// Streaming progress telemetry: a versioned per-step event feed emitted
// live during AnytimeEngine::run (docs/OBSERVABILITY.md §Progress events).
//
// The engine's defining property is that it is *anytime* — intermediate
// estimates improve monotonically between recombination steps — and this
// subsystem makes that visible while the run is still going: each RC step
// the driver rank folds a bounded per-rank summary (dirty fraction, settled
// entries, churn, queue depths, transport health, and the current top-k
// harmonic ranking) and pushes one ProgressEvent through the configured
// sinks. Online convergence estimators (top-k overlap and Kendall tau-b vs
// the previous step) are computed from the bounded top-k lists, never from
// full score vectors, so the cost per step is O(k log k + P·k).
//
// Design constraints (mirroring trace.hpp):
//   * Zero cost when off: no sink configured means the per-step hook is one
//     boolean test; nothing is computed, gathered or allocated.
//   * Emission never perturbs results: events are assembled from a
//     deterministic gather *after* the step's metrics fold, on the driver
//     rank only. Closeness/harmonic outputs are bit-identical with
//     progress on or off (the telemetry gather does add honestly-accounted
//     transport traffic).
//   * Single-writer sinks: see the threading contract on ProgressConfig.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace aacc::obs {

/// One progress event. Serialized as a single NDJSON line (stable field
/// order; see to_ndjson). Schema version kProgressSchemaVersion; consumers
/// must ignore unknown fields and reject unknown versions.
struct ProgressEvent {
  /// "ia" (initial approximation done), "rc_step" (one recombination step
  /// settled), "recovery" (supervised relaunch; `detail` says which kind),
  /// or "done" (run complete; totals).
  std::string phase;
  std::size_t step = 0;  ///< RC step index (0 for "ia"; final count for "done")
  Rank ranks = 0;
  // ---- convergence surface ----
  std::uint64_t dirty = 0;    ///< pending un-sent DV changes, Σ over ranks
  double dirty_fraction = 0;  ///< dirty / columns (0 when columns unknown)
  std::uint64_t settled = 0;  ///< finite (known-distance) DV entries, Σ ranks
  std::uint64_t columns = 0;  ///< total DV entries currently tracked (Σ rows·n)
  // ---- residual churn this step (deltas, not cumulative) ----
  std::uint64_t relaxations = 0;
  std::uint64_t poisons = 0;
  std::uint64_t repairs = 0;
  // ---- frontier / queue depths at drain start ----
  std::uint64_t queue_sum = 0;  ///< Σ queued (vertex,target) work over ranks
  std::uint64_t queue_max = 0;  ///< worst rank
  // ---- transport + recovery health (cumulative) ----
  std::uint64_t bytes = 0;        ///< wire bytes sent so far (all ranks)
  std::uint64_t retransmits = 0;  ///< frames resent so far
  // ---- exchange wait this step ----
  double exchange_wait_seconds = 0;  ///< Σ over ranks of blocked recv time
  // The longest single blocked recv inside this step's RC all-to-all on
  // any rank, and the peer whose arrival ended it (-1: nothing blocked).
  double blocked_on_seconds = 0;
  std::int64_t blocked_on_rank = -1;
  std::size_t recoveries = 0;        ///< supervised relaunches so far
  // ---- DV residency (zero under the resident store but resident bytes) ----
  std::uint64_t dv_resident_bytes = 0;  ///< hot (dense) row bytes, Σ ranks
  std::uint64_t dv_cold_bytes = 0;      ///< demoted (compressed) bytes, Σ ranks
  std::uint64_t dv_promotions = 0;      ///< cold→hot decodes so far, Σ ranks
  std::uint64_t dv_demotions = 0;       ///< hot→cold encodes so far, Σ ranks
  // ---- live serving (EngineSession runs; has_serve gates the fields) ----
  bool has_serve = false;
  std::uint64_t serve_queries = 0;  ///< queries answered so far (all views)
  /// Steps between the current step and the oldest published per-rank
  /// snapshot — the worst-case staleness a query can observe right now.
  std::uint64_t snapshot_age_steps = 0;
  // ---- online quality estimators (rc_step/done only, needs a previous
  // step to compare against; has_estimators gates the JSON fields) ----
  bool has_estimators = false;
  double topk_overlap = 0.0;  ///< |topk ∩ prev topk| / k, in [0, 1]
  double kendall_tau = 0.0;   ///< tau-b over the union of the two top lists
  /// Current global top-k vertex ids, best first (bounded by
  /// ProgressConfig::top_k; empty for recovery events).
  std::vector<VertexId> top;
  /// Recovery kind ("rollback" / "degraded"); empty otherwise.
  std::string detail;
};

inline constexpr int kProgressSchemaVersion = 1;

/// Serializes one event as a single NDJSON line (no trailing newline): the
/// metric catalog's field order (core/metric_catalog.hpp), doubles printed
/// round-trippably, optional groups (serve, estimators, top, detail)
/// omitted when absent.
[[nodiscard]] std::string to_ndjson(const ProgressEvent& ev);

/// Parses one NDJSON line produced by to_ndjson (used by `aacc tail` and
/// tests). Tolerates unknown fields; returns false on malformed input: a
/// version outside [1, kProgressSchemaVersion], a non-finite number, or an
/// integer field that is fractional or out of range for its type.
bool parse_progress_event(const std::string& line, ProgressEvent& out);

/// Sink interface. Implementations receive events strictly serially (see
/// the threading contract on ProgressConfig) and must not throw: an
/// exception from on_event unwinds through the rank-0 worker thread and
/// aborts the run as a rank failure.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const ProgressEvent& ev) = 0;
};

/// Swallows everything (placeholder wiring / benchmarks).
class NullSink final : public EventSink {
 public:
  void on_event(const ProgressEvent&) override {}
};

/// Appends one NDJSON line per event to a file, flushing after every line
/// so `aacc tail` and crash post-mortems see a live, complete prefix.
class NdjsonFileSink final : public EventSink {
 public:
  explicit NdjsonFileSink(const std::string& path);
  ~NdjsonFileSink() override;
  void on_event(const ProgressEvent& ev) override;
  /// False when the path could not be opened (events are then dropped;
  /// diagnostics must not fail the run — same policy as trace export).
  [[nodiscard]] bool ok() const { return file_ != nullptr; }

 private:
  std::FILE* file_ = nullptr;
};

using ProgressCallback = std::function<void(const ProgressEvent&)>;

/// Invokes a user callback per event.
class CallbackSink final : public EventSink {
 public:
  explicit CallbackSink(ProgressCallback cb) : cb_(std::move(cb)) {}
  void on_event(const ProgressEvent& ev) override {
    if (cb_) cb_(ev);
  }

 private:
  ProgressCallback cb_;
};

/// Progress-feed configuration (EngineConfig::progress). The feed is active
/// when any sink is configured; all configured sinks receive every event.
///
/// Threading / reentrancy contract: sinks and the callback are invoked
/// *serially*, never concurrently — from the driver-rank (rank 0) worker
/// thread after each RC step's deterministic metrics fold, and from the
/// supervising driver thread for recovery and completion events (rank
/// threads are joined at those points). The callback is NOT invoked on the
/// thread that called AnytimeEngine::run during the run itself. It must not
/// call back into the engine, must not block for long (it stalls the rank
/// world's next collective), and must not throw (a throw aborts the run).
struct ProgressConfig {
  /// NDJSON file sink: one event per line, appended and flushed live.
  std::string path;
  /// Callback sink.
  ProgressCallback callback;
  /// Custom sink (tests, alternative encoders); shared so the caller can
  /// keep inspecting it after run() returns.
  std::shared_ptr<EventSink> sink;
  /// Bound on the per-rank and merged top lists driving the online
  /// estimators (memory and per-step cost O(top_k), not O(n)). Must be > 0
  /// when the feed is active (EngineConfig::validate).
  std::size_t top_k = 32;

  [[nodiscard]] bool active() const {
    return !path.empty() || callback != nullptr || sink != nullptr;
  }
};

/// Owns the configured sinks and the estimator state for one run. Driver
/// owned (survives supervised attempts); touched only under the contract
/// documented on ProgressConfig, so no locking.
class ProgressEmitter {
 public:
  explicit ProgressEmitter(const ProgressConfig& cfg);

  /// Fans the event out to every sink.
  void emit(const ProgressEvent& ev);

  /// False when the NDJSON file sink could not open its path.
  [[nodiscard]] bool file_ok() const;

  [[nodiscard]] std::size_t top_k() const { return top_k_; }

  /// Estimator state: the previous step's merged top-k (id, score) list,
  /// best first. Written by the driver rank between emits; the driver
  /// thread seeds/reads it only while rank threads are joined.
  std::vector<std::pair<VertexId, double>> prev_top;
  /// Supervised-relaunch count mirrored into per-step events; the driver
  /// thread updates it between attempts.
  std::size_t recoveries = 0;

 private:
  std::vector<std::shared_ptr<EventSink>> sinks_;
  std::shared_ptr<NdjsonFileSink> file_sink_;
  std::size_t top_k_;
};

}  // namespace aacc::obs
