// Per-rank engine of the anytime anywhere closeness-centrality algorithm.
//
// One RankEngine instance runs on each logical processor inside a
// rt::World. It owns:
//   * a LocalGraph (its sub-graph, portal adjacency, owner map),
//   * one DvRow per local vertex (distances + next hops to all vertices),
//   * portal caches: the latest received distance rows of external boundary
//     vertices,
//   * the FIFO queue of rows with columns awaiting relaxation, and the
//     poison/repair queues.
//
// Protocol invariant (what makes dynamic deletions sound at any RC step):
// every finite entry satisfies  d[x][t] >= w(x, nh) + d[nh][t]  where nh is
// a *current neighbour* of x and d[nh][t] is either a local row entry or a
// portal cache entry. Values only decrease, except via explicit poisoning
// (set to infinity + cascade to dependents + queued repair). Edge weights
// are >= 1, so next-hop chains strictly decrease in distance and terminate.
//
// See DESIGN.md §"Deletions via DVR route poisoning".
#pragma once

#include <atomic>
#include <deque>
#include <span>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/dv_matrix.hpp"
#include "core/dv_store.hpp"
#include "core/events.hpp"
#include "core/local_graph.hpp"
#include "core/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/faults.hpp"
#include "runtime/serialize.hpp"
#include "serve/context.hpp"

namespace aacc {

class RankEngine {
 public:
  using Edges = std::vector<std::tuple<VertexId, VertexId, Weight>>;

  // How an attempt's engine starts (Init::start; the supervisor picks one
  // per rank and attempt). Pointers are non-owning.
  /// From scratch: the owner map (identical on all ranks) and the full
  /// edge list, of which the engine keeps the locally incident edges.
  struct Fresh {
    std::vector<Rank> owner;
    const Edges* edges = nullptr;
  };
  /// From a serialized blob (checkpoint resume, rollback, or a degraded
  /// survivor's stash). A degraded survivor also poisons the portal caches
  /// owned by `poison_ranks`: their rows are lost, so every value routed
  /// through them must be re-derived from surviving routes.
  struct Restore {
    const std::vector<std::byte>* blob = nullptr;
    std::vector<Rank> poison_ranks;
  };
  /// A ghost holds a dead rank's seat so the SPMD collectives stay in
  /// lockstep: it owns no rows but tracks the owner map and consumes the
  /// event feed, with the survivors' round-robin cursor.
  struct Ghost {
    std::vector<Rank> owner;
    const Edges* edges = nullptr;
    std::uint64_t vertices_added = 0;
  };
  using Start = std::variant<Fresh, Restore, Ghost>;

  /// Constructor arguments (defined below the class: the start variant's
  /// alternatives must be complete first).
  struct Init;

  RankEngine(const Init& init, rt::Comm& comm);

  /// Serializes the full resumable state (topology view, DV rows with
  /// pending-send flags, portal caches, cursors).
  void serialize_state(rt::ByteWriter& w) const;

  /// Phase 2: local APSP over the rank's sub-graph (portals are reachable
  /// leaves but are not expanded — see header comment).
  void run_ia();

  /// Phase 3: recombination loop until global quiescence. Returns the
  /// number of RC steps executed.
  std::size_t run_rc();

  /// Debug/test hook: checks the DVR protocol invariant on every finite
  /// entry — the next hop is a current neighbour and
  /// d[x][t] >= w(x,nh) + d[nh][t] where the reference value comes from a
  /// local row or the portal cache (entries referencing an empty cache slot
  /// are reported with reference infinity and are allowed: the owner's
  /// value is simply unknown here). Returns human-readable violation
  /// descriptions (empty = consistent).
  [[nodiscard]] std::vector<std::string> check_invariants() const;

  // ---- post-run extraction (driver side; no communication) ----
  [[nodiscard]] const LocalGraph& local_graph() const { return lg_; }
  /// The DV row store (resident or tiered; see dv_store.hpp). Metadata
  /// reads (self/closeness/harmonic) never promote; store().row(i) does.
  [[nodiscard]] const DvStore& store() const { return *dv_; }
  [[nodiscard]] const std::vector<StepLocal>& step_log() const { return step_log_; }
  /// Total invariant violations observed (only counted when
  /// cfg.validate_each_step; must be zero on a healthy run).
  [[nodiscard]] std::size_t invariant_violations() const {
    return invariant_violations_;
  }
  /// Per-step (vertex, harmonic centrality) snapshots; filled when
  /// cfg.record_step_quality is set.
  [[nodiscard]] const std::vector<std::vector<std::pair<VertexId, double>>>&
  step_quality() const {
    return step_quality_;
  }
  /// Supervision hooks: loop cursors at the moment run_rc stopped (used to
  /// stash survivor state after a peer failure) and the round-robin cursor
  /// (used to seed a ghost).
  [[nodiscard]] std::size_t current_step() const { return cur_step_; }
  [[nodiscard]] std::size_t current_batch() const { return cur_batch_; }
  [[nodiscard]] std::uint64_t vertices_added() const { return vertices_added_; }

 private:
  // ---- relaxation machinery ----
  void relax(VertexId x, VertexId t, Dist nd, VertexId nh);
  /// Queues column t of x's row `row` for relaxation through x's local
  /// neighbours; the row joins the row queue when t is its first column.
  void enqueue(DvRow& row, VertexId x, VertexId t);
  /// Repairs first, then rows in FIFO order, until both queues are empty.
  void drain();
  /// Takes x's queued columns and relaxes each local neighbour's row over
  /// all of them with relax_entries.
  void relax_queued_row(VertexId x);
  /// The Figure-1 update D[y][t] = min(D[y][t], base + w) over y's row
  /// `yrow` for every (t, base) of `entries` (distinct columns, finite
  /// bases), with next hop `hop`: DvRow::select_improving, then one
  /// DvRow::relax_batch over the improving entries. Same effect, in the
  /// same order, as relax() per improving entry.
  void relax_entries(DvRow& yrow, VertexId y,
                     std::span<const std::pair<VertexId, Dist>> entries,
                     Weight w, VertexId hop);
  /// relax_entries' apply pass: relax_batch over the first k picks in
  /// relax_picks_, then the engine's counts and row queue.
  void apply_picks(DvRow& yrow, VertexId y, std::size_t k, VertexId hop);
  void repair(VertexId x, VertexId t);
  /// Transitively invalidates every local entry whose next-hop chain passes
  /// through a seed; seeds are (vertex, target) pairs already known bad.
  /// Drains `seeds` (the queue also receives the cascade's own seeds).
  void poison_cascade(std::deque<std::pair<VertexId, VertexId>>& seeds);
  /// Rows that can hold an entry routed through z, ascending and unique. A
  /// next hop is always a current neighbour, so a local z yields its local
  /// neighbours' rows, a portal its cut-edge neighbours' rows, and any other
  /// vertex (migrated, deleted or dead-owned) every row.
  void route_candidates(VertexId z, std::vector<std::size_t>& out) const;
  /// Poisons, in `rows` order, every entry (r, t) whose next hop is z.
  void poison_routed(std::span<const std::size_t> rows, VertexId z,
                     VertexId t,
                     std::deque<std::pair<VertexId, VertexId>>& queue);
  void poison_entry(std::size_t row, VertexId t,
                    std::deque<std::pair<VertexId, VertexId>>& queue);

  // ---- portal cache ----
  std::vector<Dist>& cache_of(VertexId portal);
  /// Applies one record of portal b's values (each column at most once):
  /// column by column, updates the cache and cascades increases and poison
  /// markers; then relaxes each of b's local neighbour rows over the
  /// record's changed finite values in one pass. Deferring the relaxations
  /// to the record's end is exact: a cascade for column t writes only
  /// column t.
  void apply_portal_record(VertexId b,
                           std::span<const std::pair<VertexId, Dist>> values);

  // ---- RC step pieces ----
  /// One send round (collective): every dirty row's entries — only its
  /// poison markers when `markers_only` — go to the row's subscribers in
  /// one DV record through one personalized all-to-all. What was collected
  /// is retired after the collective returns (whole rows when every dirty
  /// column went out, else marker by marker), then the arrivals are
  /// applied. The RC step's exchange sends everything; a poison-barrier
  /// round sends only the newly-invalidated entries, so that repairs stay
  /// deferred until the barrier drains globally — this is what prevents
  /// the classic distance-vector count-to-infinity: no repair may read a
  /// value whose witness chain is already known to be dead elsewhere.
  void send_round(bool markers_only);
  /// Decodes every peer's exchange payload in rank order and applies it
  /// (portal values relax/cascade; non-portal records drop the stale cache).
  void apply_incoming(const std::vector<std::vector<std::byte>>& in);
  /// Records a finished collective's recv wait into the step accounting
  /// and trace.
  void note_exchange_wait(const rt::ExchangeWait& wait);
  /// The poison-synchronization barrier (collective): marker-only send
  /// rounds until no rank generated new poisons, under one poison_sync
  /// span.
  void poison_barrier();
  void ingest_batch(const std::vector<Event>& events);
  /// This rank's StepLocal counters right now (step left 0).
  [[nodiscard]] StepLocal sample() const;
  void record_step(std::size_t step);
  /// Progress telemetry (collective when cfg.progress is active, no-op
  /// otherwise): every rank gathers a bounded summary — dirty/settled
  /// counts, per-step churn deltas, queue depth, transport health, local
  /// top-k harmonic pairs — to the driver rank, which merges them in rank
  /// order, computes the online estimators vs the previous step's top-k,
  /// and emits one ProgressEvent. Called after record_step so the emitted
  /// step matches the folded metrics.
  void progress_step(const char* phase, std::size_t step);
  /// Local (vertex, harmonic) pairs, truncated to the best k by
  /// (score desc, id asc) when 0 < k < row count; unsorted row order
  /// otherwise (k = 0 means unbounded).
  [[nodiscard]] std::vector<std::pair<VertexId, double>> local_top_harmonic(
      std::size_t k) const;
  /// Live sessions only: builds a fresh immutable snapshot of this rank's
  /// closeness/harmonic values (store metadata reads — no promotion, so
  /// publication never perturbs tiered residency) and publishes it into the
  /// rank's SnapshotCell with one atomic pointer swap. Ghosts publish empty
  /// snapshots, which is what retires a dead seat's stale data from the
  /// query surface. `step` follows the progress feed's step indexing.
  void publish_snapshot(std::size_t step);

  // ---- event application ----
  void apply_edge_add(const EdgeAddEvent& e);
  void apply_edge_delete(const EdgeDeleteEvent& e);
  void apply_weight_change(const WeightChangeEvent& e);
  void apply_vertex_delete(const VertexDeleteEvent& e);
  /// Contiguous run of vertex additions, assigned by cfg.assign.
  void apply_vertex_batch(const std::vector<VertexAddEvent>& batch);
  void apply_repartition(const std::vector<VertexAddEvent>& batch);

  void eager_edge_relax(const EdgeAddEvent& e);
  void seed_through_edge(VertexId x, VertexId z, Weight w);
  /// x local, z remote: relaxes x's row through z's cached portal row, then
  /// through the edge x–z itself.
  void relax_through_portal(VertexId x, VertexId z, Weight w);
  void poison_first_hops(VertexId u, VertexId v,
                         std::deque<std::pair<VertexId, VertexId>>& seeds);
  /// Poisons row r's entries whose next hop is b, ascending by column.
  void poison_via(std::size_t r, VertexId b,
                  std::deque<std::pair<VertexId, VertexId>>& seeds);
  void grow_columns(VertexId count);
  void add_local_row(VertexId v);
  void remove_local_row(std::int32_t row);
  void mark_finite_dirty(std::size_t row);
  void boundary_fw_pass();

  // ---- tiered-store residency (dv_store.hpp) ----
  /// End-of-step residency pass: rebuilds the boundary-row flag vector and
  /// lets the store demote settled rows back under budget. Called only when
  /// the row and repair queues are empty (no kQueued flag may survive
  /// demotion).
  void maintain_store();

  /// One IA worker's scratch, reused across its sources (rank_engine.cpp).
  struct IaScratch;
  /// One IA Dijkstra source (row r) using a worker's scratch; `dirty_added`
  /// receives the row's newly-dirty entry count.
  void ia_source(std::size_t r, IaScratch& scratch,
                 std::uint64_t& dirty_added);
  [[nodiscard]] std::size_t ia_thread_count() const;

  /// This rank's incident edges, each once (from the smaller id when both
  /// ends are local): the topology section of a checkpoint blob.
  [[nodiscard]] Edges local_edges() const;
  /// Deserializes a checkpoint blob; malformed/truncated input raises
  /// CheckpointError with rank context (restore_state wraps the reader's
  /// logic_errors; _impl does the parsing).
  void restore_state(std::span<const std::byte> blob);
  void restore_state_impl(std::span<const std::byte> blob);

  // ---- ownership rebuild (construction, restore, repartition) ----
  /// Empties the store and installs a fresh row per local vertex of lg_,
  /// at its LocalGraph row index; zeroes the dirty and queued counts and
  /// empties the row queue.
  void reset_rows();
  /// Puts a rebuilt row at its vertex's row index (which must be local),
  /// counts its dirty and queued entries, and queues it if it has queued
  /// columns. Returns the index.
  std::size_t place_row(DvRow&& row);
  /// Marks every finite entry of each row with subscribers dirty, so
  /// rewired subscriptions repopulate.
  void republish_boundary_rows();

  rt::Comm& comm_;
  EngineConfig cfg_;
  const EventSchedule* schedule_;
  std::size_t start_step_ = 0;
  std::size_t start_batch_ = 0;
  std::vector<std::byte>* checkpoint_slot_ = nullptr;
  PeriodicCheckpoints* periodic_ = nullptr;
  rt::FaultInjector* injector_ = nullptr;
  bool ghost_ = false;
  std::size_t cur_step_ = 0;
  std::size_t cur_batch_ = 0;
  LocalGraph lg_;
  /// The DV row collection, behind the pluggable residency layer
  /// (ResidentDvStore when cfg.dv_budget_bytes == 0, TieredDvStore
  /// otherwise). All row access goes through this store.
  std::unique_ptr<DvStore> dv_;
  std::unordered_map<VertexId, std::vector<Dist>> caches_;
  std::deque<VertexId> row_queue_;  // rows with queued columns, FIFO
  std::deque<std::pair<VertexId, VertexId>> repairs_;
  std::uint64_t queued_entries_ = 0;  // Σ queued columns over local rows
  std::uint64_t dirty_entries_ = 0;   // pending un-sent changes
  std::uint64_t vertices_added_ = 0;  // round-robin cursor (globally consistent)
  bool poison_pending_ = false;       // new poisons since the last sync round

  // MTTR probe (see Init): fold steady-now into *recovery_mark_ once, at
  // the first completed step >= recovery_mark_step_, then drop the pointer.
  std::size_t recovery_mark_step_ = static_cast<std::size_t>(-1);
  std::atomic<std::int64_t>* recovery_mark_ = nullptr;

  // Reusable send_round() scratch, cleared in place each round instead of
  // reallocated: per-destination writers, one row's subscribers, its dirty
  // columns and entries, its encoded record, and a barrier round's
  // collected (row, column) markers, retired after the collective.
  std::vector<rt::ByteWriter> exch_writers_;
  std::vector<Rank> exch_subs_;
  std::vector<VertexId> exch_dirty_cols_;
  std::vector<std::pair<VertexId, Dist>> exch_entries_;
  rt::ByteWriter exch_record_;
  std::vector<std::pair<std::size_t, VertexId>> exch_markers_;
  /// poison_cascade() candidate rows and the seed queue
  /// apply_portal_record hands it.
  std::vector<std::size_t> cascade_rows_;
  std::deque<std::pair<VertexId, VertexId>> cascade_seeds_;
  /// Drain scratch: one popped row's queued columns and their distances.
  std::vector<VertexId> drain_cols_;
  std::vector<std::pair<VertexId, Dist>> drain_entries_;
  /// relax_entries scratch: the candidates (t, base + w), the improving
  /// ones packed at the front.
  std::vector<std::pair<VertexId, Dist>> relax_picks_;
  /// apply_portal_record scratch: the decoded record, the portal's cascade
  /// candidate rows (computed by the record's first poison) and the finite
  /// values its neighbour rows relax over.
  std::vector<std::pair<VertexId, Dist>> portal_values_;
  std::vector<std::size_t> portal_rows_;
  std::vector<std::pair<VertexId, Dist>> portal_relax_;
  /// Reusable boundary-flag vector maintain_store hands to
  /// DvStore::maintain.
  std::vector<std::uint8_t> boundary_flags_;

  // Observability. trace_ is this rank's main track (null = off); IA
  // workers fetch their subtrack from tracer_. record_step folds each step
  // into metrics_ by walking the metric catalog.
  obs::Tracer* tracer_ = nullptr;
  obs::TraceTrack* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Histogram* m_queue_depth_ = nullptr;
  // Progress feed. progress_active_ caches cfg_.progress.active() (the
  // SPMD-consistent switch every rank tests once per step); progress_ is
  // the driver rank's emitter (null elsewhere). queue_depth_step_
  // accumulates drain()-entry queue depths within the current step and is
  // reset by progress_step.
  bool progress_active_ = false;
  obs::ProgressEmitter* progress_ = nullptr;
  std::uint64_t queue_depth_step_ = 0;
  // Live session (see Init::serve). publish_index_ is the reusable
  // (vertex, row) scratch publish_snapshot argsorts. Serve metrics exist
  // only when both serve_ and metrics_ do.
  serve::ServeContext* serve_ = nullptr;
  std::vector<std::pair<VertexId, std::uint32_t>> publish_index_;
  obs::Counter* m_serve_publishes_ = nullptr;
  obs::Gauge* m_serve_publish_seconds_ = nullptr;
  obs::Histogram* m_serve_age_ = nullptr;

  // step accounting
  std::size_t invariant_violations_ = 0;
  // Work counters bumped in place; sample() adds the ledger, CPU and store
  // values. The blocked-on pair is per step: record_step resets it.
  StepLocal counts_;
  std::vector<StepLocal> step_log_;
  std::vector<std::vector<std::pair<VertexId, double>>> step_quality_;
};

struct RankEngine::Init {
  Rank me = 0;
  /// The event schedule (all ranks hold the step indices; batch contents
  /// are broadcast from rank 0 at ingestion time for honest accounting).
  const EventSchedule* schedule = nullptr;
  EngineConfig cfg;
  Start start;
  /// RC loop cursors a restart continues from.
  std::size_t start_step = 0;
  std::size_t start_batch = 0;
  /// Checkpoint path: when the RC loop reaches cfg.checkpoint_at_step it
  /// serializes into this slot and stops.
  std::vector<std::byte>* checkpoint_slot = nullptr;
  /// Recovery checkpointing: with cfg.checkpoint_every > 0, the rank
  /// snapshots its state into this store each k RC steps.
  PeriodicCheckpoints* periodic = nullptr;
  /// Chaos hook: polled at each RC step boundary; a scheduled crash
  /// throws rt::InjectedCrash out of run_rc. Non-owning.
  rt::FaultInjector* injector = nullptr;
  /// MTTR probe (docs/FAULTS.md §Recovery timing): at the first completed
  /// step >= recovery_mark_step, a non-ghost rank fetch-maxes steady-clock
  /// now into *recovery_mark (the supervisor's "recovery complete").
  std::size_t recovery_mark_step = static_cast<std::size_t>(-1);
  std::atomic<std::int64_t>* recovery_mark = nullptr;
  /// Observability (non-owning, both nullable). The tracer provides this
  /// rank's main track and IA-worker subtracks; the registry receives
  /// per-step counter folds (owned by the driver so it survives
  /// supervised attempts, like the runtime ledgers).
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Progress feed (docs/OBSERVABILITY.md §Progress events): non-null on
  /// the driver rank (rank 0) only, and only when cfg.progress is active.
  /// Every rank still participates in the per-step telemetry gather
  /// (cfg.progress.active() is the SPMD-consistent switch); rank 0 merges
  /// and emits. Driver-owned so estimator state survives attempts.
  obs::ProgressEmitter* progress = nullptr;
  /// Live session context (docs/API.md §"Serving sessions"): non-null on
  /// every rank of an EngineSession run, null under batch run(). Turns on
  /// snapshot publication at publish_every granularity, the live mutation
  /// feed (rank 0 pops BatchFeed batches and broadcasts them once the
  /// replayed journal prefix is consumed) and the quiescent idle-wait
  /// instead of loop termination. Non-owning; outlives the rank threads.
  serve::ServeContext* serve = nullptr;
};

}  // namespace aacc
