// EngineSession: the anytime query-serving lifecycle (docs/API.md
// §"Serving sessions").
//
// AnytimeEngine::run answers one question — "what are the centralities
// after this schedule?" — and only after the run ends. A session keeps the
// same distributed engine resident and turns it into a server:
//
//   EngineSession session(graph, cfg);       // open: DD + IA start now
//   session.ingest({EdgeAddEvent{u, v, 1}}); // mutations stream in ...
//   QueryView view = session.view();
//   view.point(v);                           // ... while queries are answered
//   RunResult final = session.close();       // drain, join, exact result
//
// Queries read immutable per-rank snapshots published at RC-step
// granularity (publication is one atomic pointer swap — readers never
// block the drain; see serve/context.hpp) and every response carries its
// staleness contract: the publishing step, the engine's current step, the
// convergence estimators from the progress fold, and the recovery
// provenance flags.
//
// Threading: queries (QueryView) are safe from any number of threads, both
// during the run and after close(). The lifecycle calls — ingest() and
// close() — must come from one owning thread at a time.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "serve/context.hpp"

namespace aacc::serve {

/// The staleness contract attached to every query response.
struct ResponseMeta {
  /// RC step of the (oldest) snapshot that backed this answer.
  std::size_t step = 0;
  /// Latest RC step the engine had completed when the answer was read.
  std::size_t engine_step = 0;
  /// engine_step - step (saturating): how many steps of refinement the
  /// answer has not seen yet. 0 once the session is quiescent or closed.
  std::size_t age_steps = 0;
  /// True when EngineConfig::max_snapshot_lag is set and age_steps exceeds
  /// it (the response is still served — the flag is the contract).
  bool stale = false;
  /// Recovery provenance (docs/FAULTS.md): the run is in degraded
  /// survivor mode.
  bool degraded = false;
  /// Convergence estimators from the latest progress fold (top-k overlap
  /// and Kendall tau-b vs the previous step; has_estimators is false until
  /// a second RC step exists to compare against).
  bool has_estimators = false;
  double topk_overlap = 0.0;
  double kendall_tau = 0.0;
};

/// Point closeness lookup. `found` is false when the vertex is outside
/// every published snapshot (not yet added, tombstoned, or lost to a
/// degraded recovery).
struct PointResponse {
  bool found = false;
  double closeness = 0.0;
  double harmonic = 0.0;
  ResponseMeta meta;
};

struct TopkEntry {
  VertexId v = 0;
  double closeness = 0.0;
};

/// Global top-k by closeness, merged across the per-rank snapshots (ties
/// broken toward the lower id).
struct TopkResponse {
  std::vector<TopkEntry> entries;
  ResponseMeta meta;
};

/// 1-based rank of a vertex under (closeness desc, id asc) across all
/// published snapshots. Exact at quiescence; while vertices migrate
/// between ranks mid-refinement the count is approximate (a migrating
/// vertex can appear in two snapshots of different ages).
struct VertexRankResponse {
  bool found = false;
  std::size_t rank = 0;
  double closeness = 0.0;
  ResponseMeta meta;
};

/// Read-only handle onto a session's published snapshots. Cheap to copy,
/// safe from any thread, and remains answerable after the session closes
/// (it keeps the snapshots alive; post-close answers are the exact final
/// state at age 0).
class QueryView {
 public:
  /// Views are normally handed out by EngineSession::view(); constructing
  /// one over an explicit context is for tests and tools.
  explicit QueryView(std::shared_ptr<ServeContext> ctx)
      : ctx_(std::move(ctx)) {}

  [[nodiscard]] PointResponse point(VertexId v) const;
  [[nodiscard]] TopkResponse top_k(std::size_t k) const;
  [[nodiscard]] VertexRankResponse rank_of(VertexId v) const;

 private:
  std::shared_ptr<ServeContext> ctx_;
};

/// Point-in-time cut of the per-kind query latency histograms
/// (nanoseconds), the serve-side SLO surface (docs/OBSERVABILITY.md
/// §Serve latency SLOs). Percentiles via obs::histogram_quantile.
struct SloSnapshot {
  obs::Histogram point;
  obs::Histogram top_k;
  obs::Histogram rank_of;
};

/// Lifecycle phase (see state()).
enum class SessionState {
  kOpen,    ///< driver running; ingest/query/close all valid
  kClosed,  ///< close() returned the final result; queries still valid
  kFailed,  ///< close() rethrew the driver's failure
};

/// A live anytime engine: open starts DD + IA immediately on a background
/// driver (the same supervised driver AnytimeEngine::run uses), ingest
/// streams mutation batches into the RC loop, close drains and returns the
/// exact RunResult a batch run over the ingested schedule would return.
class EngineSession {
 public:
  /// Validates the config and starts the run. Beyond EngineConfig::validate,
  /// live sessions reject (ConfigError):
  ///   * health.enabled — an idle feed is indistinguishable from a wedged
  ///     peer, so supervision deadlines would declare healthy ranks dead;
  ///     the transport recv watchdog is force-disabled for the same reason.
  ///   * checkpoint_at_step — the stop-and-snapshot drill is batch-mode
  ///     only (a live session has no caller-held schedule to resume with).
  /// The progress fold is forced on (NullSink when no sink is configured)
  /// so responses always carry convergence estimators.
  EngineSession(Graph g, EngineConfig cfg);

  /// Closes the feed and joins the driver; a failure is swallowed (use
  /// close() to observe outcomes).
  ~EngineSession();

  EngineSession(const EngineSession&) = delete;
  EngineSession& operator=(const EngineSession&) = delete;

  /// Queues one mutation batch for ingestion at the next RC step. Empty
  /// batches are dropped. Throws EngineStateError after close() (or after
  /// the run ended on its own, e.g. a max_rc_steps cap), and for a
  /// VertexAddEvent whose id breaks the dense-id contract: the engine
  /// assigns vertex ids by append, so the i-th added vertex of the session
  /// must carry id = initial |V| + i (deleted ids are tombstoned, never
  /// reused). Other precondition violations (deleting a missing edge,
  /// touching a dead vertex) follow the batch-schedule contract: they
  /// fail the run with a typed logic error that close() rethrows.
  void ingest(std::vector<Event> events);

  /// Snapshot reader handle; valid for the life of the returned object,
  /// including after close().
  [[nodiscard]] QueryView view() const { return QueryView(ctx_); }

  /// Drains every ingested batch to quiescence, joins the driver and
  /// returns the final result — bit-identical to AnytimeEngine::run over
  /// the same graph and the ingested schedule. One-shot: a second call
  /// throws EngineStateError. A driver failure (exhausted recovery ladder,
  /// logic error) is rethrown here, after which state() == kFailed.
  [[nodiscard]] RunResult close();

  [[nodiscard]] SessionState state() const {
    return state_.load(std::memory_order_acquire);
  }

  /// Cumulative queries answered across all views of this session.
  [[nodiscard]] std::uint64_t queries_answered() const {
    return ctx_->queries.load(std::memory_order_relaxed);
  }

  /// Current serve-side latency SLO cut: one histogram per query kind.
  /// Safe any time (lock-free reads); exact once queries have quiesced.
  [[nodiscard]] SloSnapshot slo() const {
    return SloSnapshot{ctx_->query_ns_point.snapshot(),
                       ctx_->query_ns_top_k.snapshot(),
                       ctx_->query_ns_rank_of.snapshot()};
  }

  /// Copy of the sampled per-query flow records (deterministic 1-in-64
  /// per ServeContext::kSampleEvery, bounded buffer).
  [[nodiscard]] std::vector<QuerySample> query_samples() const {
    std::lock_guard<std::mutex> lk(ctx_->samples_mu);
    return ctx_->samples;
  }

 private:
  Graph graph_;
  EngineConfig cfg_;
  std::shared_ptr<ServeContext> ctx_;
  std::thread driver_;
  RunResult result_;          ///< written by the driver thread, read after join
  std::exception_ptr error_;  ///< ditto
  std::atomic<SessionState> state_{SessionState::kOpen};
  /// Next id the engine will assign to an added vertex (dense-id contract
  /// enforced by ingest; advanced only after a batch is accepted).
  VertexId next_vertex_id_ = 0;
};

}  // namespace aacc::serve
