// Shared configuration enums for the anytime anywhere engine.
#pragma once

#include <iterator>
#include <stdexcept>

#include "common/types.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "partition/partition.hpp"
#include "runtime/faults.hpp"
#include "runtime/logp.hpp"

namespace aacc {

/// Raised by EngineConfig::validate() (and therefore by the AnytimeEngine
/// constructors) on a configuration that could not produce a meaningful
/// run. Failing fast here beats a std::logic_error deep inside run().
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Sentinel for EngineConfig::checkpoint_at_step: checkpointing disabled.
inline constexpr std::size_t kNoCheckpointStep = static_cast<std::size_t>(-1);

/// Processor-assignment strategy for dynamically added vertices (§IV.C.a).
enum class AssignStrategy {
  /// RoundRobin-PS: circular assignment; O(v') overhead, ignores the
  /// relationships among the new vertices.
  kRoundRobin,
  /// CutEdge-PS: partition the batch (new vertices + edges among them) with
  /// the multilevel partitioner and map parts onto the least-loaded ranks.
  kCutEdge,
  /// Repartition-S: repartition the whole updated graph and migrate DV rows
  /// (reusing partial results — the anytime property).
  kRepartition,
};

/// How edge additions update existing DV rows (§IV.C.a / Figure 3).
enum class EdgeAddMode {
  /// Relax only the endpoint rows through the new edge and let the normal
  /// drain/RC propagation carry the improvement. Same fixpoint as eager,
  /// work proportional to the number of entries that actually improve.
  kSeeded,
  /// The paper's Figure-3 loop: broadcast both endpoint rows and relax every
  /// local row against them immediately (O(n_p * n) per edge).
  kEager,
};

/// Recovery action a rung of the policy ladder applies when the supervisor
/// declares ranks dead (docs/FAULTS.md §Recovery policy ladder).
enum class RecoveryPolicy {
  /// Whole-world rollback: every rank restores the newest snapshot all
  /// ranks hold and replays (bit-identical results). With no snapshot yet,
  /// the run restarts from scratch.
  kRollback,
  /// Degraded ghost mode: survivors carry on, the dead rank's rows are
  /// lost and reported exactly in RunResult::lost_vertices.
  kDegrade,
};

/// One rung of EngineConfig::recovery_policy. A rung is skipped when its
/// budget is exhausted or its preconditions fail (RecoveryError), falling
/// through to the next rung.
struct RecoveryRung {
  RecoveryPolicy policy = RecoveryPolicy::kRollback;
  /// Recoveries this rung may serve before the ladder falls through to the
  /// next rung. 0 = unlimited (still bounded by max_recoveries overall).
  std::size_t budget = 0;
};

/// The default recovery ladder: rollback, then degraded ghost mode.
/// EngineConfig copies it from static storage: a braced list in the member
/// initializer trips a GCC 12 -Wmaybe-uninitialized false positive.
inline constexpr RecoveryRung kDefaultRecoveryPolicy[] = {
    {RecoveryPolicy::kRollback, 0}, {RecoveryPolicy::kDegrade, 0}};

/// Local refinement inside an RC step (ablation A3).
enum class RefineMode {
  /// Label-correcting drain over a FIFO queue of rows, each relaxing its
  /// local neighbours over all of its queued targets at once (default).
  kLabelCorrecting,
  /// Additionally run the paper's boundary Floyd–Warshall pass each step:
  /// D[x][t] = min(D[x][t], D[x][b] + D[b][t]) over local boundary b.
  kBoundaryFloydWarshall,
};

/// Floor for a nonzero EngineConfig::dv_budget_bytes: roughly one small
/// dense row plus slot overhead. A budget below this cannot keep even one
/// row hot, so the tiered store would thrash on every touch.
inline constexpr std::uint64_t kMinDvBudgetBytes = 4096;

struct EngineConfig {
  Rank num_ranks = 8;
  PartitionerKind dd_partitioner = PartitionerKind::kMultilevel;
  AssignStrategy assign = AssignStrategy::kRoundRobin;
  EdgeAddMode add_mode = EdgeAddMode::kSeeded;
  RefineMode refine = RefineMode::kLabelCorrecting;
  /// Intra-rank worker threads for the IA Dijkstra sweep (the paper's
  /// MPI+OpenMP hybrid: ranks are processes, sources parallelize inside
  /// each). 0 = auto (hardware_concurrency / num_ranks, clamped to [1, 8]).
  /// Any value produces bit-identical rows and ledgers: sources are
  /// disjoint rows and per-row counters merge in row order.
  std::size_t ia_threads = 0;
  /// Has no effect: each rank drains and assembles its sends on its own
  /// thread (DESIGN.md §"The RC drain is serial per rank"). Kept only so
  /// existing callers that assign it still compile; removed with the next
  /// benchmark change.
  std::size_t rc_threads = 0;
  /// Per-rank byte budget for resident (hot) DV rows. 0 = fully resident
  /// (the historical dense store). Nonzero selects the tiered store: settled
  /// rows are demoted to a delta-compressed cold form at each RC step
  /// boundary until the hot tier fits the budget, and promoted back on
  /// first touch (DESIGN.md §"Tiered DV storage"). Results are bit-identical
  /// at any budget; only memory/CPU trade off. Must be 0 or at least
  /// kMinDvBudgetBytes — a smaller bound could not hold even one row and
  /// would thrash every step.
  std::uint64_t dv_budget_bytes = 0;
  std::uint64_t seed = 1;
  rt::LogGPParams logp;
  /// Record per-step closeness snapshots (E3 quality curves). Adds one
  /// gather per RC step.
  bool record_step_quality = false;
  /// Gather the full APSP matrix into RunResult (tests; O(n^2) memory).
  bool gather_apsp = false;
  /// Safety cap on RC steps (0 = no cap). A converged static run needs at
  /// most num_ranks - 1; dynamic runs need (last event step + num_ranks).
  std::size_t max_rc_steps = 0;
  /// Debug: run RankEngine::check_invariants after each RC step and print
  /// violations to stderr (slow; tests and bug hunts only).
  bool validate_each_step = false;
  /// Extension (fault tolerance): stop after this RC step and emit a
  /// Checkpoint in the RunResult (see checkpoint.hpp). kNoCheckpointStep
  /// disables.
  std::size_t checkpoint_at_step = static_cast<std::size_t>(-1);
  /// Extension (the paper's stated future work): automatic rebalancing.
  /// After ingesting a change batch, if max_rank_load / ideal_load exceeds
  /// this threshold the engine repartitions the whole graph and migrates
  /// DV rows (same machinery as Repartition-S). 0 disables.
  double rebalance_threshold = 0.0;
  /// Fault tolerance (docs/FAULTS.md). Transport hardening is off by
  /// default so the fault-free fast path costs nothing; it is forced on
  /// whenever `faults` injects anything.
  rt::TransportConfig transport;
  /// Deterministic fault schedule for chaos testing; inert when empty.
  rt::FaultPlan faults;
  /// Periodic recovery checkpoints: every rank snapshots its state each k
  /// RC steps; on a rank failure the supervisor rolls every rank back to
  /// the newest common snapshot and replays (bit-identical results).
  /// 0 disables — failures then fall back to degraded mode.
  std::size_t checkpoint_every = 0;
  /// Supervised relaunch budget per run (recoveries + degraded restarts).
  std::size_t max_recoveries = 4;
  /// Recovery-policy ladder (docs/FAULTS.md §Recovery policy ladder). On a
  /// declared rank death the supervisor walks the rungs in order and
  /// applies the first whose budget is unspent and whose preconditions
  /// hold; a rung that throws RecoveryError falls through to the next, and
  /// an exhausted ladder rethrows. The default reproduces the legacy
  /// hard-coded order: rollback whenever periodic checkpoints are enabled,
  /// else degraded ghost mode.
  std::vector<RecoveryRung> recovery_policy{std::begin(kDefaultRecoveryPolicy),
                                            std::end(kDefaultRecoveryPolicy)};
  /// Peer-health supervision deadlines (docs/FAULTS.md §Health
  /// supervision): straggler -> suspect -> dead escalation on awaited
  /// peers, so a wedged rank is *declared* dead after health.dead_after of
  /// attributed silence instead of tripping the transport recv_timeout
  /// much later. Off by default.
  rt::HealthConfig health;
  /// Observability (docs/OBSERVABILITY.md): when `trace.enabled`, the
  /// engine records spans/instants into per-rank ring buffers and returns
  /// the merged Chrome trace in RunResult::trace (also written to
  /// `trace.path` when set). Off by default: every instrumentation site
  /// then sees a null track and costs one predictable branch.
  obs::TraceConfig trace;
  /// Live progress telemetry (docs/OBSERVABILITY.md §Progress events):
  /// active when any sink is configured (NDJSON path, callback, or custom
  /// sink). Each RC step then adds one deterministic gather of bounded
  /// per-rank summaries to the driver rank, which emits one ProgressEvent
  /// after the step's metrics fold. Closeness/harmonic results are
  /// bit-identical with the feed on or off; the telemetry gather's traffic
  /// is honestly accounted in the transport ledgers. When inactive the
  /// per-step hook is a single boolean test.
  obs::ProgressConfig progress;
  /// ---- live serving knobs (EngineSession / `aacc serve`; docs/API.md
  /// §"Serving sessions"). Read only by live sessions: run() never
  /// publishes snapshots, so batch runs ignore both. ----
  /// Publish a fresh immutable per-rank closeness snapshot every k
  /// completed RC steps (1 = every step). The final state is always
  /// published regardless, so a closed session serves exact values.
  std::size_t publish_every = 1;
  /// Staleness contract for query responses: a response whose backing
  /// snapshot is more than this many steps behind the engine's current
  /// step is flagged stale (ResponseMeta::stale). 0 = never flag.
  std::size_t max_snapshot_lag = 0;

  /// Checks the configuration for values that cannot produce a meaningful
  /// run and throws ConfigError naming the offending field. Called by the
  /// AnytimeEngine constructors. The rules (see docs/API.md):
  ///   * num_ranks in [1, 4096]
  ///   * ia_threads, checkpoint_every, max_recoveries and each
  ///     recovery_policy rung's budget at most 4096 (a negative count cast
  ///     into these unsigned fields lands far above the cap)
  ///   * dv_budget_bytes is 0 (fully resident) or >= kMinDvBudgetBytes —
  ///     a smaller budget cannot hold one hot row and would thrash
  ///   * rebalance_threshold is 0 (off) or >= 1.0 — max/ideal load is
  ///     >= 1 by definition, so a lower bar would repartition every batch
  ///   * transport.max_retries >= 1 (0 would silently never send)
  ///   * transport.recv_timeout / retry_backoff >= 0 (0 timeout disables
  ///     the recv watchdog; negative durations are sign bugs)
  ///   * fault probabilities each in [0, 1] and summing to <= 1
  ///   * recovery_policy has at least one rung and no repeated policy
  ///     (repeats would double-charge one rung's budget)
  ///   * health deadlines, when enabled, satisfy
  ///     0 < straggler_after <= suspect_after <= dead_after, and dead_after
  ///     < transport.recv_timeout when the watchdog is armed (otherwise the
  ///     timeout always wins the race and no peer is ever declared dead)
  ///   * trace.track_capacity > 0 when tracing is enabled
  ///   * progress.top_k in [1, 4096] when the progress feed is active
  ///   * publish_every in [1, 4096] (0 would never publish a snapshot)
  ///   * max_snapshot_lag is 0 (never flag) or >= publish_every (a tighter
  ///     bound would flag every response between two publishes as stale)
  void validate() const;
};

}  // namespace aacc
