// AnytimeEngine: the public entry point of the library.
//
// Wraps the full anytime anywhere pipeline: domain decomposition (DD) with
// a pluggable partitioner, initial approximation (IA), and the
// recombination (RC) loop with dynamic-change ingestion, running on a
// rt::World of logical processors. Also provides the paper's comparison
// baseline (restart from scratch on every change batch).
//
//   Graph g = barabasi_albert(5000, 3, rng);
//   EngineConfig cfg;
//   cfg.num_ranks = 16;
//   AnytimeEngine engine(g, cfg);
//   RunResult r = engine.run(schedule);
//   r.closeness[v];             // final exact closeness of v
//   r.stats.rc_steps;           // refinement steps to quiescence
//   r.stats.modeled_network_seconds_serialized;
#pragma once

#include <iosfwd>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/events.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aacc {

/// Raised when an AnytimeEngine is used against its lifecycle contract —
/// currently: run() called a second time on the same instance (run() is
/// one-shot; see docs/API.md §"Engine lifecycle").
class EngineStateError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// A recovery rung's preconditions do not hold for this failure (rollback
/// without periodic snapshots, degraded mode under an incompatible config,
/// ...). The supervisor catches it and falls through to the next rung of
/// EngineConfig::recovery_policy; an exhausted ladder rethrows the last one
/// (docs/FAULTS.md §Recovery policy ladder).
class RecoveryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One supervised recovery, as recorded in RunStats::recovery_log.
struct RecoveryRecord {
  /// Rung that served it: "rollback" or "degraded".
  std::string kind;
  /// RC step the survivors had reached when the death was declared.
  std::size_t at_step = 0;
  /// Wall-clock seconds from the death declaration to the completion of
  /// the first post-recovery RC step at/after at_step (so rollback's
  /// replay cost is inside the window). Negative when the run ended before
  /// that step completed (e.g. a second crash arrived first).
  double mttr_seconds = -1.0;
};

/// Per-RC-step aggregates across ranks.
struct StepStats {
  std::size_t step = 0;
  std::uint64_t bytes = 0;        ///< payload bytes sent by all ranks
  double max_cpu_seconds = 0.0;   ///< slowest rank's CPU this step
  double sum_cpu_seconds = 0.0;
  std::uint64_t relaxations = 0;
  std::uint64_t poisons = 0;
  std::uint64_t repairs = 0;
  /// RC drain cost this step: Σ CPU across ranks.
  double sum_drain_cpu_seconds = 0.0;
  /// Exchange wait this step: Σ over ranks of wall time blocked in
  /// collective recvs.
  double sum_exchange_wait_seconds = 0.0;
  /// The longest single blocked recv inside this step's RC all-to-all on
  /// any rank, and the peer whose arrival ended it (-1 when no exchange
  /// blocked — e.g. a single rank). Waits in the verdict broadcast and
  /// barriers are not timed.
  double max_blocked_seconds = 0.0;
  std::int64_t blocked_on_rank = -1;
};

struct RunStats {
  double wall_seconds = 0.0;      ///< driver wall time, end to end
  double dd_seconds = 0.0;        ///< partitioning time (driver)
  double total_cpu_seconds = 0.0; ///< Σ over ranks, all phases
  double max_rank_cpu_seconds = 0.0;
  /// Modeled "cluster makespan": Σ over RC steps of the slowest rank's CPU,
  /// plus the modeled network time. This is the wall time a real
  /// 1-process-per-node cluster would approximately observe.
  double modeled_makespan_seconds = 0.0;
  std::map<std::string, double> cpu_by_phase;  ///< Σ over ranks per phase
  std::uint64_t total_bytes = 0;
  std::uint64_t total_messages = 0;
  /// Reliable-transport costs folded into the totals above: frame-header
  /// bytes (seqno + CRC32) and retransmitted frames. Zero when
  /// TransportConfig::reliable is off (docs/FAULTS.md).
  std::uint64_t frame_overhead_bytes = 0;
  std::uint64_t retransmits = 0;
  double modeled_network_seconds_serialized = 0.0;  ///< the paper's schedule
  std::size_t rc_steps = 0;
  /// RC drain total: CPU burnt in drain(), Σ over ranks and steps.
  double rc_drain_cpu_seconds = 0.0;
  /// Blocked-recv wall time in the exchanges, summed over ranks and steps.
  double rc_exchange_wait_seconds = 0.0;
  /// Σ over steps of StepStats::max_blocked_seconds — the longest single
  /// blocked recv inside each step's RC all-to-all — and the same broken
  /// down by the rank waited on (docs/OBSERVABILITY.md §Waiting on peers).
  double rc_blocked_on_seconds = 0.0;
  std::map<std::int64_t, double> rc_blocked_on_by_rank;
  /// Supervised relaunches after injected/transport failures (checkpoint
  /// rollbacks and degraded restarts; see docs/FAULTS.md).
  std::size_t recoveries = 0;
  /// One entry per supervised recovery, in order, with the serving rung
  /// and the measured MTTR (docs/FAULTS.md §Recovery timing).
  std::vector<RecoveryRecord> recovery_log;
  /// Σ DVR-invariant violations across ranks and steps (counted only when
  /// EngineConfig::validate_each_step; must be zero).
  std::size_t invariant_violations = 0;
  std::size_t cut_edges_initial = 0;
  std::size_t cut_edges_final = 0;
  double imbalance_final = 0.0;
  /// DV residency ledger (tiered store; see DESIGN.md §"Tiered DV
  /// storage"). Byte gauges are the final step-boundary values summed over
  /// ranks; promotions/demotions/decode are run totals. Under the resident
  /// store everything but dv_resident_bytes is zero. Excluded from the
  /// bit-identity contract: residency traffic varies with the budget even
  /// though results do not.
  std::uint64_t dv_resident_bytes = 0;
  std::uint64_t dv_cold_bytes = 0;
  /// Demoted rows' dense buffers kept for reuse by later promotions;
  /// resident + cold + spare bytes account for every DV buffer.
  std::uint64_t dv_spare_bytes = 0;
  std::uint64_t dv_promotions = 0;
  std::uint64_t dv_demotions = 0;
  double dv_decode_seconds = 0.0;
  /// Percentile summaries of every histogram in the merged metrics
  /// registry (p50/p95/p99 via obs::histogram_quantile), emitted in
  /// to_json under "histograms". Filled by the driver after the fold.
  struct HistogramSummary {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  std::map<std::string, HistogramSummary> histogram_summary;
  std::vector<StepStats> steps;

  /// Accumulates another run's costs (baseline restart sums whole reruns).
  void accumulate(const RunStats& other);

  /// Canonical machine-readable form (the schema documented in
  /// EXPERIMENTS.md §"Machine-readable output"): one JSON object, stable
  /// field order, doubles printed round-trippably. Benches, examples and CI
  /// artifacts all emit stats through here. `include_steps` controls the
  /// per-step array (drop it when embedding stats in per-row bench output).
  void to_json(std::ostream& os, bool include_steps = true) const;
  [[nodiscard]] std::string to_json(bool include_steps = true) const;

  /// Human-readable multi-line digest (what the examples print).
  [[nodiscard]] std::string summary() const;
};

/// Writes stats.to_json() (with a trailing newline) to `path`. Returns
/// false when the file cannot be opened. The canonical machine-readable
/// emission every bench and example shares (schema: EXPERIMENTS.md);
/// examples call it when AACC_STATS_JSON names a path.
bool write_stats_json(const std::string& path, const RunStats& stats);

struct RunResult {
  // Prefer the bounds-checked const accessors below over reaching into the
  // vectors; writing to a RunResult's fields is deprecated (the result is a
  // record of the run, not scratch space) and the fields will lose their
  // mutability in a future major version.

  /// Final closeness per vertex id (0 for tombstoned vertices).
  std::vector<double> closeness;
  /// Final harmonic centrality per vertex id.
  std::vector<double> harmonic;
  /// Full APSP matrix (only when EngineConfig::gather_apsp).
  std::vector<std::vector<Dist>> apsp;
  /// First hop of one shortest path per (source, target); kNoVertex when
  /// target is unreachable or equals the source. Only when gather_apsp.
  std::vector<std::vector<VertexId>> first_hop;
  /// Per-step anytime *harmonic centrality* estimates (only when
  /// EngineConfig::record_step_quality): step -> per-vertex estimate.
  /// Harmonic is the anytime-safe metric: with distance upper bounds it is
  /// a monotone lower bound of the exact value at every step.
  std::vector<std::vector<double>> step_harmonic;
  /// Owner rank per vertex after the run (the final data distribution).
  std::vector<Rank> final_owner;
  /// Filled when EngineConfig::checkpoint_at_step fired: the run stopped
  /// there and this snapshot resumes it (see checkpoint.hpp).
  Checkpoint checkpoint;
  /// Degraded "anytime" fallback (docs/FAULTS.md): a rank died with no
  /// recovery checkpoint available, so its rows are lost. The run completed
  /// on the survivors; `lost_vertices` is the exact coverage gap — alive
  /// vertices whose closeness could not be computed (reported as 0).
  bool degraded = false;
  std::vector<VertexId> lost_vertices;
  RunStats stats;
  /// Merged metrics registry (counters/gauges/histograms from every rank
  /// plus the runtime ledgers) — the source the `stats` ledger fields are
  /// derived from. Always populated; see docs/OBSERVABILITY.md.
  obs::MetricsRegistry metrics;
  /// Merged span trace (only when EngineConfig::trace.enabled). Export
  /// with obs::write_chrome_trace_file for chrome://tracing / Perfetto.
  obs::Trace trace;

  /// Bounds-checked reads (std::out_of_range past the vertex-id space).
  [[nodiscard]] double closeness_of(VertexId v) const;
  [[nodiscard]] double harmonic_of(VertexId v) const;
  /// Top-k vertex ids by final closeness / harmonic, best first (bounded by
  /// the id space; ties broken toward the lower id).
  [[nodiscard]] std::vector<VertexId> top_closeness(std::size_t k) const;
  [[nodiscard]] std::vector<VertexId> top_harmonic(std::size_t k) const;
};

namespace serve {
struct ServeContext;
}  // namespace serve

namespace detail {

/// Internal driver entry shared by AnytimeEngine::run (batch mode) and
/// serve::EngineSession (live mode). Not public API: construct an engine or
/// a session instead. In live mode `schedule` is null — the feed journal in
/// `serve` is the schedule, re-snapshotted whenever the rank world is
/// joined (recovery and result assembly).
struct DriverArgs {
  Graph* graph = nullptr;  ///< ground truth; events applied at assembly
  EngineConfig cfg;        ///< already validated
  const EventSchedule* schedule = nullptr;  ///< batch mode only
  const Checkpoint* resume = nullptr;       ///< set when resuming
  serve::ServeContext* serve = nullptr;  ///< live mode only
};

RunResult run_driver(const DriverArgs& args);

}  // namespace detail

class AnytimeEngine {
 public:
  /// Takes the initial graph by value; the engine's copy tracks every
  /// applied event and can be inspected via graph().
  AnytimeEngine(Graph g, EngineConfig cfg);

  /// Resume constructor (fault-tolerance extension): continues a run from
  /// a Checkpoint produced by EngineConfig::checkpoint_at_step. `g` must be
  /// the same *initial* graph the checkpointed run started from, and run()
  /// must receive the same schedule (already-consumed batches are skipped).
  AnytimeEngine(Graph g, Checkpoint checkpoint, EngineConfig cfg);

  /// Runs DD + IA + RC with the given dynamic-change schedule. One-shot:
  /// a second call throws EngineStateError (the instance's distributed
  /// state is consumed by the run; construct a new engine — or resume from
  /// a checkpoint — to run again; docs/API.md §"Engine lifecycle"). For
  /// ingesting changes while querying, use serve::EngineSession instead —
  /// run() is now a thin batch-mode wrapper over the same driver.
  [[nodiscard]] RunResult run(const EventSchedule& schedule = {});

  /// Ground-truth graph (after run(): with all events applied).
  [[nodiscard]] const Graph& graph() const { return graph_; }

 private:
  Graph graph_;
  EngineConfig cfg_;
  Checkpoint resume_;
  bool resuming_ = false;
  bool ran_ = false;
};

/// The paper's baseline: restart the whole static analysis from scratch for
/// the initial graph and again after every change batch. Costs accumulate
/// across restarts; the returned centrality values are from the last rerun.
RunResult run_baseline_restart(Graph g, const EventSchedule& schedule,
                               const EngineConfig& cfg);

/// Reconstructs one shortest path from u to v by following the gathered
/// first hops (requires EngineConfig::gather_apsp). Returns the vertex
/// sequence u..v, or an empty vector when v is unreachable from u.
std::vector<VertexId> reconstruct_path(const RunResult& result, VertexId u,
                                       VertexId v);

}  // namespace aacc
