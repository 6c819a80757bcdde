#include "core/rank_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <ctime>
#include <numeric>
#include <sstream>
#include <thread>
#include <utility>

#include "analysis/closeness.hpp"
#include "analysis/quality.hpp"
#include "common/parallel.hpp"
#include "common/radix_heap.hpp"
#include "common/timer.hpp"
#include "core/strategies.hpp"
#include "partition/multilevel.hpp"
#include "runtime/serialize.hpp"

namespace aacc {

namespace {

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Checkpoint blob magic/version constants live in core/checkpoint.hpp
// (shared with validate_checkpoint).

// The progress gather record: every per-rank event field (and a kMaxRank
// partner) in catalog order.
template <class Fn>
void for_each_gathered(obs::ProgressEvent& ev, Fn&& fn) {
  for (const metrics::Metric& m : metrics::kCatalog) {
    if (m.reduce == metrics::Reduce::kNone) continue;
    metrics::each(m.event.member, [&](auto p) { fn(ev.*p); });
    if (m.reduce == metrics::Reduce::kMaxRank) {
      metrics::each(m.event.partner, [&](auto p) { fn(ev.*p); });
    }
  }
}

// The edge-list codec of a checkpoint blob's topology section and of the
// repartition gather and plan: a count, then (u, v, w) per edge.
void write_edges(rt::ByteWriter& w, const RankEngine::Edges& edges) {
  w.write(static_cast<std::uint64_t>(edges.size()));
  for (const auto& [u, v, wt] : edges) {
    w.write(u);
    w.write(v);
    w.write(wt);
  }
}

RankEngine::Edges read_edges(rt::ByteReader& r) {
  const auto count = r.read<std::uint64_t>();
  RankEngine::Edges edges;
  edges.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto u = r.read<VertexId>();
    const auto v = r.read<VertexId>();
    const auto wt = r.read<Weight>();
    edges.emplace_back(u, v, wt);
  }
  return edges;
}

// The topology an engine starts from. A ghost's `me` is an impossible rank,
// so it owns no rows; blob starts rebuild the graph in restore_state.
LocalGraph initial_graph(const RankEngine::Init& init) {
  if (const auto* f = std::get_if<RankEngine::Fresh>(&init.start)) {
    return {init.me, f->owner, *f->edges};
  }
  if (const auto* g = std::get_if<RankEngine::Ghost>(&init.start)) {
    return {init.cfg.num_ranks, g->owner, *g->edges};
  }
  return {init.me, {}, {}};
}

}  // namespace

RankEngine::RankEngine(const Init& init, rt::Comm& comm)
    : comm_(comm),
      cfg_(init.cfg),
      schedule_(init.schedule),
      start_step_(init.start_step),
      start_batch_(init.start_batch),
      checkpoint_slot_(init.checkpoint_slot),
      periodic_(init.periodic),
      injector_(init.injector),
      ghost_(std::holds_alternative<Ghost>(init.start)),
      cur_step_(init.start_step),
      cur_batch_(init.start_batch),
      lg_(initial_graph(init)) {
  if (init.tracer != nullptr) {
    tracer_ = init.tracer;
    trace_ = &tracer_->track(init.me);
  }
  progress_active_ = cfg_.progress.active();
  progress_ = init.progress;
  if (init.metrics != nullptr) {
    metrics_ = init.metrics;
    m_queue_depth_ = &metrics_->histogram("rc/drain_queue_depth");
  }
  serve_ = init.serve;
  if (serve_ != nullptr && metrics_ != nullptr) {
    m_serve_publishes_ = &metrics_->counter("serve/publishes");
    m_serve_publish_seconds_ = &metrics_->gauge("serve/publish_seconds");
    // Rank 0 samples the fleet-wide snapshot age each progress fold.
    if (init.me == 0) {
      m_serve_age_ = &metrics_->histogram("serve/snapshot_age_steps");
    }
  }
  recovery_mark_step_ = init.recovery_mark_step;
  recovery_mark_ = init.recovery_mark;
  dv_ = DvStore::create(cfg_.dv_budget_bytes);
  const auto* restore = std::get_if<Restore>(&init.start);
  if (restore != nullptr) {
    const obs::ScopedSpan span(trace_, "restore");
    restore_state(*restore->blob);
  } else {
    reset_rows();
    if (const auto* g = std::get_if<Ghost>(&init.start)) {
      vertices_added_ = g->vertices_added;
    }
  }
  if (restore != nullptr && !restore->poison_ranks.empty()) {
    // Degraded restart: the rows these ranks owned are gone, so every
    // portal-cache value they published is a dead witness. Poison the
    // cached entries; the cascade invalidates every local entry routed
    // through them and queues repairs over surviving routes.
    std::vector<bool> dead(static_cast<std::size_t>(comm_.size()), false);
    for (const Rank d : restore->poison_ranks) {
      dead[static_cast<std::size_t>(d)] = true;
    }
    const auto& owner = lg_.owner_map();
    std::vector<std::pair<VertexId, Dist>> markers;
    for (const auto& [portal, adj] : lg_.portals()) {
      (void)adj;
      if (!dead[static_cast<std::size_t>(owner[portal])]) continue;
      auto it = caches_.find(portal);
      if (it == caches_.end()) continue;
      const auto& cache = it->second;
      markers.clear();
      for (VertexId t = 0; t < static_cast<VertexId>(cache.size()); ++t) {
        if (cache[t] != kInfDist) markers.emplace_back(t, kInfDist);
      }
      apply_portal_record(portal, markers);
    }
  }
}

// ------------------------------------------------------ checkpoint/restore

void RankEngine::serialize_state(rt::ByteWriter& w) const {
  // v2 header (validate_blob_header).
  w.write(kCkptMagic0);
  w.write(kCkptMagic1);
  w.write(kCkptVersion2);
  // Topology view: owner map + this rank's locally incident edges (each
  // edge once from this rank's perspective; the LocalGraph constructor
  // rebuilds both half-edges and the portal index).
  w.write_vec(lg_.owner_map());
  write_edges(w, local_edges());
  // DV rows (varint-packed: distances/next hops are small or the sentinel),
  // including un-sent dirty targets (they must survive a restart or
  // subscribers would permanently miss the pending updates/poisons). Cold
  // rows transcode straight from the compressed form — byte-identical to
  // the hot path, so checkpoint cost tracks residency, not n
  // (DvStore::serialize_row).
  w.write(static_cast<std::uint64_t>(dv_->size()));
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    dv_->serialize_row(r, w);
  }
  // Portal caches.
  w.write(static_cast<std::uint64_t>(caches_.size()));
  for (const auto& [portal, cache] : caches_) {
    w.write(portal);
    rt::write_packed_u32s(w, cache);
  }
  w.write(vertices_added_);
}

RankEngine::Edges RankEngine::local_edges() const {
  Edges edges;
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    const VertexId u = lg_.vertex_of(r);
    for (const Edge& e : lg_.adj(r)) {
      if (!lg_.is_local(e.to) || u < e.to) edges.emplace_back(u, e.to, e.w);
    }
  }
  return edges;
}

void RankEngine::restore_state(std::span<const std::byte> blob) {
  try {
    restore_state_impl(blob);
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::logic_error& e) {
    // The bounds-checked reader reports truncation/corruption as
    // logic_error ("message underflow" etc.); re-raise with rank context
    // as the typed restore failure.
    throw CheckpointError("rank " + std::to_string(comm_.rank()) +
                          " checkpoint blob is malformed: " + e.what());
  }
}

void RankEngine::restore_state_impl(std::span<const std::byte> blob) {
  validate_blob_header(blob, "rank " + std::to_string(comm_.rank()));
  rt::ByteReader r(blob.subspan(kCkptHeaderBytes));

  auto owner = r.read_vec<Rank>();
  lg_ = LocalGraph(comm_.rank(), std::move(owner), read_edges(r));

  const auto row_count = r.read<std::uint64_t>();
  AACC_CHECK(row_count == lg_.num_local());
  // Rows must sit at their LocalGraph row index; fresh slots are installed
  // first (cheap: one cold entry under the tiered store) and each decoded
  // record lands at row_of(vid), in the form the store keeps it.
  reset_rows();
  for (std::uint64_t i = 0; i < row_count; ++i) {
    const auto vid = r.read<VertexId>();
    auto d = rt::read_packed_u32s(r);
    auto nh = rt::read_packed_u32s(r);
    auto dirty = rt::read_ascending_ids(r);
    const std::int32_t ri = lg_.row_of(vid);
    AACC_CHECK(ri >= 0);
    dirty_entries_ += dirty.size();
    dv_->put_restored(static_cast<std::size_t>(ri), vid, std::move(d),
                      std::move(nh), std::move(dirty));
  }

  const auto cache_count = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < cache_count; ++i) {
    const auto portal = r.read<VertexId>();
    caches_[portal] = rt::read_packed_u32s(r);
  }
  vertices_added_ = r.read<std::uint64_t>();
  if (!r.done()) {
    throw CheckpointError("trailing bytes in checkpoint blob");
  }

  // Re-arm the local queues from the restored dirty flags. On a quiesced
  // checkpoint the queued entries are no-ops (the values are already at
  // their fixpoint), but a crash-time stash may hold changes whose *local*
  // propagation was lost with the dying step: finite dirty entries re-enter
  // the row queue, poison markers re-enter the deferred-repair queue (they
  // run after the next poison barrier drains, as always).
  std::vector<VertexId> dirty_cols;
  std::vector<std::pair<VertexId, Dist>> dirty_entries;
  for (std::size_t ri = 0; ri < dv_->size(); ++ri) {
    if (dv_->dirty_count(ri) == 0) continue;
    dirty_cols.clear();
    dirty_entries.clear();
    dv_->collect_dirty_entries(ri, dirty_cols, dirty_entries);
    const VertexId x = dv_->self(ri);
    for (const auto& [t, d] : dirty_entries) {
      if (d == kInfDist) {
        // The marker itself goes out with the next send round (it is still
        // dirty); the repair then runs at that step's drain, after the
        // barrier — the same ordering an undisturbed run follows. The
        // pending-poison flag is re-armed too: the stash may have been taken
        // after the flag was folded into an aborted barrier round, and
        // without it the restarted barrier could run zero rounds and let
        // repairs re-derive from peers' still-unsettled entries.
        poison_pending_ = true;
        repairs_.emplace_back(x, t);
      } else {
        // A finite dirty entry is queued again: promote and re-arm.
        enqueue(dv_->row(ri), x, t);
      }
    }
  }
}

// ------------------------------------------------------- ownership rebuild

void RankEngine::reset_rows() {
  dv_->clear();
  dv_->grow_columns(lg_.n());
  for (std::size_t r = 0; r < lg_.num_local(); ++r) {
    dv_->append_fresh(lg_.vertex_of(r));
  }
  dirty_entries_ = 0;
  queued_entries_ = 0;
  row_queue_.clear();
}

std::size_t RankEngine::place_row(DvRow&& row) {
  const std::int32_t ri = lg_.row_of(row.self());
  AACC_CHECK_MSG(ri >= 0, "a rebuilt row's vertex is not local");
  dirty_entries_ += row.dirty_count();
  if (row.queued_count() != 0) {
    queued_entries_ += row.queued_count();
    row_queue_.push_back(row.self());
  }
  dv_->put(static_cast<std::size_t>(ri), std::move(row));
  return static_cast<std::size_t>(ri);
}

void RankEngine::republish_boundary_rows() {
  std::vector<Rank> subs;
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    subs.clear();
    lg_.subscribers(r, subs);
    if (!subs.empty()) mark_finite_dirty(r);
  }
}

// --------------------------------------------------------------------- IA

struct RankEngine::IaScratch {
  explicit IaScratch(VertexId n) : dist(n, kInfDist), hop(n, kNoVertex) {
    touched.reserve(n);
  }
  std::vector<Dist> dist;
  std::vector<VertexId> hop;
  std::vector<VertexId> touched;  ///< reached vertices, in discovery order
  RadixHeap heap;
};

void RankEngine::ia_source(std::size_t r, IaScratch& scratch,
                           std::uint64_t& dirty_added) {
  auto& [dist, hop, touched, heap] = scratch;
  const VertexId src = lg_.vertex_of(r);
  dist[src] = 0;
  touched.push_back(src);
  heap.clear();
  heap.push(0, src);
  while (!heap.empty()) {
    const auto [d, u] = heap.pop();
    if (d != dist[u]) continue;
    // Portals are reachable leaves: they get a distance but are not
    // expanded (paths *through* an external boundary vertex are
    // resolved during recombination, which keeps next-hop chains
    // locally sound — see DESIGN.md).
    const std::int32_t urow = lg_.row_of(u);
    if (urow < 0) continue;
    for (const Edge& e : lg_.adj(static_cast<std::size_t>(urow))) {
      const Dist nd = dist_add(d, e.w);
      const VertexId h = (u == src) ? e.to : hop[u];
      if (nd < dist[e.to]) {
        if (dist[e.to] == kInfDist) touched.push_back(e.to);
        dist[e.to] = nd;
        hop[e.to] = h;
        heap.push(nd, e.to);
      } else if (nd == dist[e.to] && h > hop[e.to]) {
        // Among equal-cost local shortest paths keep the largest first hop,
        // so rows do not depend on the queue's order among equal keys.
        // Weights are >= 1, so every equal-cost predecessor of e.to is
        // expanded before e.to and its hop is final when it is read.
        hop[e.to] = h;
      }
    }
  }
  // The store installs the sweep result; the tiered implementation encodes
  // fresh rows straight into cold form so the sweep never materializes a
  // dense O(n) row per source.
  dirty_added += dv_->install_ia(r, src, touched, dist, hop);
  for (const VertexId t : touched) {
    dist[t] = kInfDist;
    hop[t] = kNoVertex;
  }
  touched.clear();
}

std::size_t RankEngine::ia_thread_count() const {
  if (cfg_.ia_threads != 0) return cfg_.ia_threads;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const auto ranks = static_cast<unsigned>(std::max<Rank>(comm_.size(), 1));
  return std::clamp<std::size_t>(hw / ranks, 1, 8);
}

void RankEngine::run_ia() {
  comm_.set_phase("ia");
  const obs::ScopedSpan span(trace_, "ia", "rows", dv_->size());
  const VertexId n = lg_.n();

  // The paper runs a multithreaded Dijkstra here (its MPI+OpenMP hybrid:
  // O(n_p * m_p log n_p / T) per rank; the radix heap makes it
  // O(n_p * (m_p + n_p log C) / T), C the largest weight). Sources are
  // disjoint rows, so they fan out across an intra-rank pool with
  // per-thread scratch; each row is written by exactly one worker and
  // per-row dirty counters merge in row order afterwards, so rows, counters
  // and ledgers are bit-identical to the serial path for any thread count.
  std::vector<std::uint64_t> dirty_added(dv_->size(), 0);
  std::atomic<std::size_t> cursor{0};
  constexpr std::size_t kChunk = 8;
  const std::size_t threads = std::min(ia_thread_count(), dv_->size());
  std::vector<double> worker_cpu(std::max<std::size_t>(threads, 1), 0.0);
  run_workers(threads, [&](std::size_t w) {
    const double cpu0 = thread_cpu_now();
    // One span per worker on its shard subtrack (chunk assignment races,
    // but a single begin/end pair per worker stays deterministic).
    const obs::ScopedSpan wspan(
        tracer_ != nullptr ? &tracer_->subtrack(comm_.rank(), w) : nullptr,
        "ia_shard");
    // Scratch reused across this worker's sources; `touched` resets only
    // what a source actually visited.
    IaScratch scratch(n);
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(kChunk, std::memory_order_relaxed);
      if (begin >= dv_->size()) break;
      const std::size_t end = std::min(begin + kChunk, dv_->size());
      for (std::size_t r = begin; r < end; ++r) {
        ia_source(r, scratch, dirty_added[r]);
      }
    }
    worker_cpu[w] = thread_cpu_now() - cpu0;
  });
  // Worker 0 is this rank thread, whose clock the phase ledger already
  // reads; the pool threads' CPU is charged to the ia phase explicitly.
  comm_.charge_cpu(
      std::accumulate(worker_cpu.begin() + 1, worker_cpu.end(), 0.0));
  for (const std::uint64_t d : dirty_added) dirty_entries_ += d;
  if (metrics_ != nullptr) {
    std::uint64_t total = 0;
    for (const std::uint64_t d : dirty_added) total += d;
    metrics_->counter("ia/dirty_entries").add(total);
  }
  // Residency pass before the first RC step: under a tiered budget the
  // freshly swept rows settle into cold form until RC dirties them.
  maintain_store();
  // Live sessions get their first queryable snapshot the moment IA lands:
  // the intra-rank estimates are the paper's anytime starting point.
  if (serve_ != nullptr) {
    publish_snapshot(start_step_);
    if (comm_.rank() == 0) {
      serve_->engine_step.store(start_step_, std::memory_order_release);
    }
  }
  // First progress event: the local APSP sweep is done, coverage is the
  // intra-rank reachability (collective; run_ia is only called on fresh
  // attempts, where every rank takes this path).
  progress_step("ia", start_step_);
}

// ------------------------------------------------------ relaxation kernel

void RankEngine::relax(VertexId x, VertexId t, Dist nd, VertexId nh) {
  if (nd == kInfDist || !lg_.is_alive(t)) return;
  const std::int32_t ri = lg_.row_of(x);
  AACC_DCHECK(ri >= 0);
  DvRow& row = dv_->row(static_cast<std::size_t>(ri));
  if (row.dist(t) == kInfDist && row.test_flag(t, DvRow::kDirty)) {
    // Undelivered poison marker: subscribers have not yet been told this
    // entry died. Overwriting it now (e.g. from a stale portal cache while
    // ingesting a later event of the same batch) would silently revoke the
    // invalidation and leave remote dependents holding stale-low values.
    // Defer: repairs run only after the poison barrier has drained.
    repairs_.emplace_back(x, t);
    return;
  }
  if (nd < row.dist(t)) {
    row.set(t, nd, nh);
    if (row.mark_dirty(t)) ++dirty_entries_;
    ++counts_.relaxations;
    enqueue(row, x, t);
  }
}

void RankEngine::enqueue(DvRow& row, VertexId x, VertexId t) {
  if (!row.mark_queued(t)) return;
  ++queued_entries_;
  if (row.queued_count() == 1) row_queue_.push_back(x);
}

// Defined before its callers so that the select inlines into them: a
// sparse pop mostly improves nothing, and then pays no call.
inline void RankEngine::relax_entries(
    DvRow& yrow, VertexId y,
    std::span<const std::pair<VertexId, Dist>> entries, Weight w,
    VertexId hop) {
  const std::size_t k = yrow.select_improving(entries, w, relax_picks_);
  if (k != 0) apply_picks(yrow, y, k, hop);
}

void RankEngine::apply_picks(DvRow& yrow, VertexId y, std::size_t k,
                             VertexId hop) {
  // The columns are distinct, so the select read no entry this batch
  // writes.
  const bool was_idle = yrow.queued_count() == 0;
  const DvRow::BatchCounts c = yrow.relax_batch(
      std::span(relax_picks_.data(), k), hop,
      [&](VertexId t) { repairs_.emplace_back(y, t); });
  counts_.relaxations += c.relaxed;
  dirty_entries_ += c.dirtied;
  queued_entries_ += c.queued;
  if (was_idle && c.queued != 0) row_queue_.push_back(y);
}

void RankEngine::relax_queued_row(VertexId x) {
  // A deleted row left the queued count with it (remove_local_row); every
  // row rebuild empties the row queue (reset_rows).
  const std::int32_t ri = lg_.row_of(x);
  if (ri < 0) return;
  DvRow& row = dv_->row(static_cast<std::size_t>(ri));
  row.take_queued(drain_cols_);
  queued_entries_ -= drain_cols_.size();
  // Columns poisoned or deleted since queueing seed nothing.
  drain_entries_.clear();
  for (const VertexId t : drain_cols_) {
    const Dist base = row.dist(t);
    if (base != kInfDist && lg_.is_alive(t)) {
      drain_entries_.emplace_back(t, base);
    }
  }
  if (drain_entries_.empty()) return;
  for (const Edge& e : lg_.adj(static_cast<std::size_t>(ri))) {
    if (!lg_.is_local(e.to)) continue;
    const std::int32_t yi = lg_.row_of(e.to);
    AACC_DCHECK(yi >= 0);
    relax_entries(dv_->row(static_cast<std::size_t>(yi)), e.to, drain_entries_,
                  e.w, x);
  }
}

void RankEngine::repair(VertexId x, VertexId t) {
  ++counts_.repairs;
  const std::int32_t ri = lg_.row_of(x);
  if (ri < 0 || !lg_.is_alive(t) || x == t) return;
  Dist best = kInfDist;
  VertexId best_hop = kNoVertex;
  for (const Edge& e : lg_.adj(static_cast<std::size_t>(ri))) {
    Dist dz;
    if (e.to == t) {
      dz = 0;
    } else if (lg_.is_local(e.to)) {
      dz = dv_->row(static_cast<std::size_t>(lg_.row_of(e.to))).dist(t);
    } else {
      const auto it = caches_.find(e.to);
      dz = it == caches_.end() ? kInfDist : it->second[t];
    }
    const Dist cand = dist_add(dz, e.w);
    if (cand < best) {
      best = cand;
      best_hop = e.to;
    }
  }
  relax(x, t, best, best_hop);
}

void RankEngine::drain() {
  const std::size_t queued = repairs_.size() + queued_entries_;
  const obs::ScopedSpan span(trace_, "drain", "queued", queued);
  if (m_queue_depth_ != nullptr) m_queue_depth_->record(queued);
  queue_depth_step_ += queued;  // progress feed: frontier depth this step
  const std::uint64_t repairs_before = counts_.repairs;
  const double t0 = thread_cpu_now();
  // Repairs first: they re-derive poisoned entries, whose improvements
  // then flow through the row queue. The repair queue empties before every
  // row pop.
  while (!repairs_.empty() || !row_queue_.empty()) {
    if (!repairs_.empty()) {
      const auto [x, t] = repairs_.front();
      repairs_.pop_front();
      repair(x, t);
    } else {
      const VertexId x = row_queue_.front();
      row_queue_.pop_front();
      relax_queued_row(x);
    }
  }
  AACC_DCHECK(queued_entries_ == 0);
  counts_.drain_cpu_seconds += thread_cpu_now() - t0;
  // Repairs interleave with row relaxation inside the drain (repairs
  // first, then rows FIFO), so repair activity surfaces as one counted
  // instant per drain rather than per-item spans.
  if (trace_ != nullptr && counts_.repairs > repairs_before) {
    trace_->instant("repairs", "count", counts_.repairs - repairs_before);
  }
}

// ------------------------------------------------------------- poisoning

void RankEngine::poison_entry(std::size_t row_idx, VertexId t,
                              std::deque<std::pair<VertexId, VertexId>>& queue) {
  DvRow& row = dv_->row(row_idx);
  row.set(t, kInfDist, kNoVertex);
  if (row.mark_dirty(t)) ++dirty_entries_;
  ++counts_.poisons;
  poison_pending_ = true;
  repairs_.emplace_back(row.self(), t);
  queue.emplace_back(row.self(), t);
}

void RankEngine::poison_cascade(std::deque<std::pair<VertexId, VertexId>>& seeds) {
  while (!seeds.empty()) {
    const auto [z, t] = seeds.front();
    seeds.pop_front();
    // Every local entry whose witness chain starts through z is invalid.
    // Only the rows route_candidates yields can hold nh == z, so a local
    // seed probes adj(z) and a portal seed (a cross-rank marker) its
    // cut-edge neighbours. A whole-store sweep would cost O(rows) per seed,
    // and under a tiered store every cold probe is a linear blob scan; only
    // a seed with neither a row nor a cut edge here still sweeps.
    route_candidates(z, cascade_rows_);
    poison_routed(cascade_rows_, z, t, seeds);
  }
}

void RankEngine::route_candidates(VertexId z,
                                  std::vector<std::size_t>& out) const {
  // A next hop is always a current neighbour (relax, repair, IA install and
  // incoming portal updates all set nh to an adjacent vertex, and deleting
  // an edge or a vertex poisons the entries routed over it before the next
  // event applies).
  out.clear();
  const std::int32_t zri = lg_.row_of(z);
  if (zri >= 0) {
    for (const Edge& e : lg_.adj(static_cast<std::size_t>(zri))) {
      const std::int32_t ri = lg_.is_local(e.to) ? lg_.row_of(e.to) : -1;
      if (ri >= 0) out.push_back(static_cast<std::size_t>(ri));
    }
  } else if (const auto it = lg_.portals().find(z); it != lg_.portals().end()) {
    for (const auto& [x, w] : it->second) {
      (void)w;
      out.push_back(static_cast<std::size_t>(lg_.row_of(x)));
    }
  } else {
    // z has no local row and no cut edge here (migrated or deleted): its
    // adjacency is unknown, so every row is a candidate.
    out.resize(dv_->size());
    std::iota(out.begin(), out.end(), std::size_t{0});
    return;
  }
  // Ascending row order reproduces the exact poison sequence of the
  // whole-store sweep.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void RankEngine::poison_routed(std::span<const std::size_t> rows, VertexId z,
                               VertexId t,
                               std::deque<std::pair<VertexId, VertexId>>& queue) {
  // Probe lookups never promote: a real next-hop hit implies a finite
  // distance (the row invariant), so the dist probe only guards hot-row
  // reads.
  for (const std::size_t r : rows) {
    if (dv_->probe_next_hop(r, t) == z && dv_->probe_dist(r, t) != kInfDist) {
      poison_entry(r, t, queue);
    }
  }
}

void RankEngine::poison_first_hops(
    VertexId u, VertexId v, std::deque<std::pair<VertexId, VertexId>>& seeds) {
  if (const std::int32_t ri = lg_.row_of(u); ri >= 0) {
    poison_via(static_cast<std::size_t>(ri), v, seeds);
  }
  if (const std::int32_t ri = lg_.row_of(v); ri >= 0) {
    poison_via(static_cast<std::size_t>(ri), u, seeds);
  }
}

void RankEngine::poison_via(std::size_t r, VertexId b,
                            std::deque<std::pair<VertexId, VertexId>>& seeds) {
  // Only finite columns can hold a witness through b, so the entry walk is
  // a complete candidate set — O(finite), not an O(n) column scan. Collect
  // first, then poison: poison_entry promotes the row, which would free a
  // cold blob out from under the entry cursor. Both stores walk ascending
  // columns, so resident and tiered poison identically.
  std::vector<VertexId> hits;
  dv_->for_each_entry(r, [&](VertexId t, Dist, VertexId nh) {
    if (nh == b) hits.push_back(t);
  });
  for (const VertexId t : hits) poison_entry(r, t, seeds);
}

// ----------------------------------------------------------- portal cache

std::vector<Dist>& RankEngine::cache_of(VertexId portal) {
  auto [it, inserted] = caches_.try_emplace(portal);
  if (inserted) it->second.assign(lg_.n(), kInfDist);
  return it->second;
}

void RankEngine::apply_portal_record(
    VertexId b, std::span<const std::pair<VertexId, Dist>> values) {
  if (values.empty()) return;
  std::vector<Dist>& cache = cache_of(b);
  portal_rows_.clear();
  portal_relax_.clear();
  for (const auto& [t, d] : values) {
    const Dist cur = cache[t];
    if (d == cur && d != kInfDist) continue;
    cache[t] = d;
    if (d > cur || d == kInfDist) {
      // The owner's value increased (a deletion upstream), or this is an
      // explicit poison marker: every local chain through b for this
      // target is stale. The marker must cascade even when the cache
      // already reads infinity — a cache rebuilt after repartitioning
      // starts blank, yet dependents derived in an earlier
      // co-location/subscription era may still hold finite values routed
      // through b.
      // A portal always has candidate rows, so an empty list is unset.
      if (portal_rows_.empty()) route_candidates(b, portal_rows_);
      poison_routed(portal_rows_, b, t, cascade_seeds_);
      poison_cascade(cascade_seeds_);
    }
    if (d != kInfDist && lg_.is_alive(t)) portal_relax_.emplace_back(t, d);
  }
  if (portal_relax_.empty()) return;
  for (const auto& [x, w] : lg_.portal_neighbors(b)) {
    relax_entries(dv_->row(static_cast<std::size_t>(lg_.row_of(x))), x,
                  portal_relax_, w, b);
  }
}

// --------------------------------------------------------------- exchange

void RankEngine::send_round(bool markers_only) {
  const auto P = static_cast<std::size_t>(comm_.size());
  if (exch_writers_.size() < P) exch_writers_.resize(P);
  for (auto& w : exch_writers_) w.clear();
  exch_markers_.clear();

  {
    const obs::ScopedSpan assembly(trace_, "send_assembly");
    for (std::size_t r = 0; r < dv_->size(); ++r) {
      if (dv_->dirty_count(r) == 0) continue;
      exch_subs_.clear();
      lg_.subscribers(r, exch_subs_);
      // Send assembly collects the dirty columns ascending, as the delta
      // codec requires (sorted list or flag scan, whichever is cheaper for
      // the row's density); the record is encoded once and fanned out.
      // collect_dirty_entries is read-only, so cold rows serve their sends
      // without promotion. A dirty column with no live entry is a poison
      // marker, so the cold rows' collect view (absent → kInfDist) matches
      // the dense dist() reads exactly.
      exch_entries_.clear();
      if (markers_only) {
        // The newly-invalid entries are dirty by construction, so the
        // dirty set is a complete candidate set. Finite entries stay
        // dirty for the next exchange; markers retire even without
        // subscribers, so the deferred repairs (see relax()) become
        // runnable again.
        dv_->collect_dirty_entries(r, exch_dirty_cols_, exch_entries_);
        std::erase_if(exch_entries_,
                      [](const auto& e) { return e.second != kInfDist; });
        for (const auto& [t, d] : exch_entries_) {
          exch_markers_.emplace_back(r, t);
        }
      } else if (!exch_subs_.empty()) {
        dv_->collect_dirty_entries(r, exch_dirty_cols_, exch_entries_);
      }
      if (exch_entries_.empty() || exch_subs_.empty()) continue;
      exch_record_.clear();
      rt::write_dv_record(exch_record_, dv_->self(r), exch_entries_);
      for (const Rank q : exch_subs_) {
        exch_writers_[static_cast<std::size_t>(q)].write_bytes(
            exch_record_.view());
      }
    }
  }

  std::vector<std::vector<std::byte>> out(P);
  for (std::size_t q = 0; q < P; ++q) out[q] = exch_writers_[q].take();
  // Dirty flags are retired only once the collective has returned: if the
  // exchange throws (a peer died mid-step), the pending sends stay dirty in
  // this rank's state and survive into the recovery stash — subscribers
  // will still receive them after the restart. Retired before
  // apply_incoming so entries re-dirtied by the incoming values are kept.
  rt::ExchangeWait wait;
  const auto in = comm_.all_to_all(std::move(out), &wait);
  // Chaos hook (FaultPlan CrashPhase::kMidExchange): die once every send
  // has been issued, before the retire. Survivors have received and apply
  // this rank's payload and abort at the next collective, while the dirty
  // flags are still set, so the recovery stash re-sends those entries.
  if (!markers_only && !ghost_ && injector_ != nullptr &&
      injector_->should_crash(comm_.rank(), cur_step_,
                              rt::CrashPhase::kMidExchange)) {
    throw rt::InjectedCrash(comm_.rank(), cur_step_);
  }
  note_exchange_wait(wait);
  // Nothing since send assembly wrote a row, so what was collected is
  // exactly what is still dirty: an exchange retires every dirty row whole
  // (rows without subscribers included), a barrier round its markers.
  if (markers_only) {
    for (const auto& [r, t] : exch_markers_) {
      dirty_entries_ -= dv_->retire_dirty_one(r, t);
    }
  } else {
    for (std::size_t r = 0; r < dv_->size(); ++r) {
      if (dv_->dirty_count(r) != 0) dirty_entries_ -= dv_->retire_dirty(r);
    }
  }
  apply_incoming(in);
}

void RankEngine::note_exchange_wait(const rt::ExchangeWait& wait) {
  counts_.exchange_wait_seconds += wait.seconds;
  if (wait.blocked_on_seconds > counts_.blocked_on_seconds) {
    counts_.blocked_on_seconds = wait.blocked_on_seconds;
    counts_.blocked_on_rank = wait.blocked_on_peer;
  }
  if (trace_ != nullptr) {
    // The measured wait is wall-clock: on a logical-clock track its value
    // would differ run to run and break golden-trace reproducibility, so
    // the arg is only attached on wall-clock tracks.
    if (trace_->logical_clock()) {
      trace_->instant("exchange_wait");
    } else {
      trace_->instant("exchange_wait", "us",
                      static_cast<std::uint64_t>(wait.seconds * 1e6));
    }
  }
}

void RankEngine::maintain_store() {
  // Step-boundary residency pass. Boundary rows feed every exchange's send
  // assembly, so the LRU demotes them last.
  boundary_flags_.assign(dv_->size(), 0);
  std::vector<Rank> subs;
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    subs.clear();
    lg_.subscribers(r, subs);
    boundary_flags_[r] = subs.empty() ? 0 : 1;
  }
  dv_->maintain(boundary_flags_);
}

void RankEngine::apply_incoming(const std::vector<std::vector<std::byte>>& in) {
  const obs::ScopedSpan span(trace_, "apply_incoming");
  for (Rank q = 0; q < comm_.size(); ++q) {
    if (q == comm_.rank()) continue;
    rt::ByteReader rd(in[static_cast<std::size_t>(q)]);
    while (!rd.done()) {
      // Targets index the portal caches and the owner map: a corrupt one
      // must throw here, not read out of bounds.
      rt::DvRecordReader rec(rd, lg_.n());
      const VertexId b = rec.vid();
      portal_values_.clear();
      for (std::uint32_t i = 0; i < rec.count(); ++i) {
        portal_values_.push_back(rec.next());
      }
      if (lg_.is_portal(b)) {
        apply_portal_record(b, portal_values_);
      } else {
        caches_.erase(b);  // stale sender view; drop leftovers
      }
    }
  }
}

void RankEngine::poison_barrier() {
  const obs::ScopedSpan sync_span(trace_, "poison_sync");
  while (comm_.all_reduce_or(std::exchange(poison_pending_, false))) {
    send_round(/*markers_only=*/true);
  }
}

// ----------------------------------------------------------- dirty helper

void RankEngine::mark_finite_dirty(std::size_t row_idx) {
  // Walks the row's finite columns instead of the full column range —
  // O(finite), which is what the whole-row resend actually costs
  // downstream anyway. Cold rows merge their sorted dirty list in place,
  // without promotion.
  dirty_entries_ += dv_->mark_finite_dirty(row_idx);
}

// ------------------------------------------------------------- edge events

void RankEngine::seed_through_edge(VertexId x, VertexId z, Weight w) {
  // x, z local; relax x's whole row through its neighbour z. Only finite
  // entries of z can seed anything (an infinite source saturates dist_add
  // and relax drops it), so the entry walk — which never promotes z —
  // visits exactly the columns the old dense scan acted on.
  const auto zri = static_cast<std::size_t>(lg_.row_of(z));
  dv_->for_each_entry(zri, [&](VertexId t, Dist d, VertexId) {
    if (t == x) return;
    relax(x, t, dist_add(d, w), z);
  });
}

void RankEngine::apply_edge_add(const EdgeAddEvent& e) {
  lg_.add_edge(e.u, e.v, e.w);
  const bool lu = lg_.is_local(e.u);
  const bool lv = lg_.is_local(e.v);

  if (cfg_.add_mode == EdgeAddMode::kEager) {
    eager_edge_relax(e);  // collective: every rank participates
  }

  if (lu && lv) {
    if (cfg_.add_mode == EdgeAddMode::kSeeded) {
      seed_through_edge(e.u, e.v, e.w);
      seed_through_edge(e.v, e.u, e.w);
    }
    return;
  }
  if (lu) {
    // The owner of v just became (or already is) a subscriber of u's row.
    mark_finite_dirty(static_cast<std::size_t>(lg_.row_of(e.u)));
    relax_through_portal(e.u, e.v, e.w);
  } else if (lv) {
    mark_finite_dirty(static_cast<std::size_t>(lg_.row_of(e.v)));
    relax_through_portal(e.v, e.u, e.w);
  }
}

void RankEngine::relax_through_portal(VertexId x, VertexId z, Weight w) {
  const auto it = caches_.find(z);
  if (it != caches_.end()) {
    const std::vector<Dist>& cache = it->second;
    for (VertexId t = 0; t < cache.size(); ++t) {
      if (t != x) relax(x, t, dist_add(cache[t], w), z);
    }
  }
  relax(x, z, w, z);
}

void RankEngine::eager_edge_relax(const EdgeAddEvent& e) {
  // Figure-3 of the paper: owners broadcast both endpoint rows; every rank
  // relaxes every local row against them.
  const auto fetch_row = [&](VertexId v) {
    rt::ByteWriter w;
    if (lg_.is_local(v)) {
      // Whole-row broadcast needs the dense form; promotes if cold.
      w.write_vec(dv_->row(static_cast<std::size_t>(lg_.row_of(v))).dists());
    }
    auto buf = comm_.broadcast(w.take(), lg_.owner(v));
    rt::ByteReader r(buf);
    return r.read_vec<Dist>();
  };
  const std::vector<Dist> row_u = fetch_row(e.u);
  const std::vector<Dist> row_v = fetch_row(e.v);

  // Fold the broadcast rows into the portal caches first, *through the
  // regular delivery path* (apply_portal_record), exactly as if the owner's
  // row had arrived in an exchange: decreases relax the portal's
  // neighbours, increases/poisons cascade. (Silently assigning the cache
  // would make the owner's next dirty-send look like a no-change and
  // suppress the relaxation it is meant to trigger — an early bug.)
  const auto absorb = [&](VertexId vtx, const std::vector<Dist>& row) {
    if (!lg_.is_portal(vtx)) return;
    portal_values_.clear();
    for (VertexId t = 0; t < row.size(); ++t) {
      portal_values_.emplace_back(t, row[t]);
    }
    apply_portal_record(vtx, portal_values_);
  };
  absorb(e.u, row_u);
  absorb(e.v, row_v);

  const auto relax_against = [&](VertexId via, const std::vector<Dist>& far_row,
                                 VertexId far) {
    for (std::size_t r = 0; r < dv_->size(); ++r) {
      // Whole-matrix relaxation sweep: dense access is the point here, so
      // rows promote as they are touched (eager adds are rare and
      // collective; the next maintain() re-demotes the settled ones).
      DvRow& row = dv_->row(r);
      const VertexId x = row.self();
      const Dist dxv = row.dist(via);
      if (dxv == kInfDist && x != via) continue;
      const VertexId nh = (x == via) ? far : row.next_hop(via);
      // The DVR chain relation d[x][t] >= w(x,nh) + d[nh][t] must hold at
      // commit time against nh's *current* value (local row or portal
      // cache): a deferred/poisoned entry on nh may have been repaired to
      // something larger than the snapshot this relaxation is derived
      // from, and committing below the chain would detach the entry from
      // the poison-cascade bookkeeping. Skipped writes are safe — the
      // ordinary propagation converges to the same fixpoint.
      Weight wxh = 0;
      for (const Edge& edge : lg_.adj(r)) {
        if (edge.to == nh) {
          wxh = edge.w;
          break;
        }
      }
      if (wxh == 0) continue;  // nh is not currently a neighbour: skip row
      const DvRow* ref_row = nullptr;
      const std::vector<Dist>* ref_cache = nullptr;
      if (lg_.is_local(nh)) {
        ref_row = &dv_->row(static_cast<std::size_t>(lg_.row_of(nh)));
      } else {
        const auto it = caches_.find(nh);
        if (it == caches_.end()) continue;  // no reference available
        ref_cache = &it->second;
      }
      for (VertexId t = 0; t < far_row.size(); ++t) {
        if (t == x) continue;
        const Dist cand = dist_add(dxv, dist_add(e.w, far_row[t]));
        if (cand >= row.dist(t)) continue;
        const Dist ref = (nh == t) ? 0
                         : (ref_row != nullptr ? ref_row->dist(t)
                                               : (*ref_cache)[t]);
        if (cand < dist_add(wxh, ref)) continue;  // chain would break: skip
        relax(x, t, cand, nh);
      }
    }
  };
  relax_against(e.u, row_v, e.v);
  relax_against(e.v, row_u, e.u);
}

void RankEngine::apply_edge_delete(const EdgeDeleteEvent& e) {
  std::deque<std::pair<VertexId, VertexId>> seeds;
  poison_first_hops(e.u, e.v, seeds);
  lg_.remove_edge(e.u, e.v);
  if (!lg_.is_portal(e.u)) caches_.erase(e.u);
  if (!lg_.is_portal(e.v)) caches_.erase(e.v);
  poison_cascade(seeds);
}

void RankEngine::apply_weight_change(const WeightChangeEvent& e) {
  const bool lu = lg_.is_local(e.u);
  const bool lv = lg_.is_local(e.v);
  if (!lu && !lv) return;
  const Weight old = lg_.edge_weight(e.u, e.v);
  lg_.set_weight(e.u, e.v, e.w_new);
  if (e.w_new < old) {
    // Behaves like an addition: relax the endpoint rows through the edge.
    if (lu && lv) {
      seed_through_edge(e.u, e.v, e.w_new);
      seed_through_edge(e.v, e.u, e.w_new);
    } else if (lu) {
      relax_through_portal(e.u, e.v, e.w_new);
    } else {
      relax_through_portal(e.v, e.u, e.w_new);
    }
  } else if (e.w_new > old) {
    // Behaves like a deletion: witnesses crossing the edge are stale; the
    // repairs re-derive them with the new weight.
    std::deque<std::pair<VertexId, VertexId>> seeds;
    poison_first_hops(e.u, e.v, seeds);
    poison_cascade(seeds);
  }
}

// ------------------------------------------------------------ vertex events

void RankEngine::grow_columns(VertexId count) {
  dv_->grow_columns(count);
  for (auto& [b, cache] : caches_) {
    cache.insert(cache.end(), count, kInfDist);
  }
}

void RankEngine::add_local_row(VertexId v) {
  AACC_CHECK(static_cast<std::size_t>(lg_.row_of(v)) == dv_->size());
  dv_->append_fresh(v);
}

void RankEngine::remove_local_row(std::int32_t row) {
  const auto r = static_cast<std::size_t>(row);
  // A queued row is hot: queueing promotes it and only maintain() demotes.
  if (dv_->is_hot(r)) queued_entries_ -= dv_->row(r).queued_count();
  dv_->swap_remove(r);
}

void RankEngine::apply_vertex_batch(const std::vector<VertexAddEvent>& batch) {
  if (cfg_.assign == AssignStrategy::kRepartition) {
    // No drain here: repairing a poisoned entry back to a finite value
    // before the poison barrier inside apply_repartition has broadcast its
    // infinity marker would hide the invalidation from remote dependents.
    // Stale repair entries survive the migration harmlessly — they resolve
    // by global vertex id and skip rows that moved away; the row rebuild
    // drops the queued columns and re-queues every finite entry.
    apply_repartition(batch);
    return;
  }
  std::vector<Rank> assign;
  if (cfg_.assign == AssignStrategy::kRoundRobin) {
    assign = assign_round_robin(batch.size(), vertices_added_, comm_.size());
  } else {
    assign = assign_cut_edge(batch, batch.front().id, lg_.owner_map(),
                             comm_.size(), cfg_.seed);
  }
  vertices_added_ += batch.size();

  grow_columns(static_cast<VertexId>(batch.size()));
  // Register the whole batch before creating any row: rows are sized to
  // lg_.n(), which must already cover every new column.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const VertexId id = lg_.add_vertex(assign[i]);
    AACC_CHECK_MSG(id == batch[i].id, "vertex id mismatch in batch");
  }
  for (const VertexAddEvent& ev : batch) {
    if (lg_.is_local(ev.id)) add_local_row(ev.id);
  }
  for (const VertexAddEvent& ev : batch) {
    for (const auto& [to, w] : ev.edges) {
      apply_edge_add(EdgeAddEvent{ev.id, to, w});
    }
  }
}

void RankEngine::apply_vertex_delete(const VertexDeleteEvent& e) {
  const VertexId v = e.v;
  std::deque<std::pair<VertexId, VertexId>> seeds;
  // Any witness whose first hop is v dies with it; deeper chains through v
  // are reached by the cascade. Rows visit ascending, as the whole-store
  // walk did, so the poison sequence is unchanged.
  std::vector<std::size_t> rows;
  route_candidates(v, rows);
  for (const std::size_t r : rows) {
    if (dv_->self(r) != v) poison_via(r, v, seeds);
  }
  // Tombstone the target column everywhere (no repair: the target is gone;
  // every rank applies the same event so no message is needed).
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    if (dv_->self(r) != v && dv_->tombstone_column(r, v)) --dirty_entries_;
  }
  const std::int32_t removed = lg_.remove_vertex(v);
  if (removed >= 0) {
    // Keep the global dirty counter consistent with the dropped row.
    dirty_entries_ -= dv_->dirty_count(static_cast<std::size_t>(removed));
    remove_local_row(removed);
  }
  caches_.erase(v);
  poison_cascade(seeds);
}

// ------------------------------------------------------------- repartition

void RankEngine::apply_repartition(const std::vector<VertexAddEvent>& batch) {
  const obs::ScopedSpan span(trace_, "repartition", "added", batch.size());
  const Rank P = comm_.size();
  const Rank me = comm_.rank();
  const VertexId n_old = lg_.n();
  const VertexId n_new = n_old + static_cast<VertexId>(batch.size());
  vertices_added_ += batch.size();

  // Settle all outstanding invalidations globally before redistributing
  // rows: the rebuild below resets dirty flags, so a pending poison that
  // has not reached its cross-rank dependents yet would otherwise be lost
  // and a stale (too small) value would survive.
  poison_barrier();

  // 1. Gather the current edge list at rank 0 (the paper runs ParMETIS here;
  //    the gather+partition+broadcast is our accounted substitute).
  {
    rt::ByteWriter w;
    write_edges(w, lg_.local_edges_for_gather());
    std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(P));
    out[0] = w.take();
    auto in = comm_.all_to_all(std::move(out));

    rt::ByteWriter plan;  // new owners + full edge list, produced by rank 0
    if (me == 0) {
      Graph g(n_new);
      Edges edges;
      for (Rank q = 0; q < P; ++q) {
        rt::ByteReader rd(in[static_cast<std::size_t>(q)]);
        if (rd.done()) continue;
        const Edges part = read_edges(rd);
        edges.insert(edges.end(), part.begin(), part.end());
      }
      for (const VertexAddEvent& ev : batch) {
        for (const auto& [to, wt] : ev.edges) {
          edges.emplace_back(ev.id, to, wt);
        }
      }
      for (const auto& [u, v, wt] : edges) g.add_edge(u, v, wt);
      // Tombstoned ids must stay unassigned.
      for (VertexId v = 0; v < n_old; ++v) {
        if (!lg_.is_alive(v)) g.remove_vertex(v);
      }
      Rng rng(cfg_.seed ^ (0xda7a5eedULL + n_new));
      const MultilevelPartitioner ml;
      const Partition part = ml.partition(g, P, rng);
      plan.write_vec(part.assignment);
      write_edges(plan, edges);
    }
    auto buf = comm_.broadcast(plan.take(), 0);
    rt::ByteReader rd(buf);
    const auto new_owner = rd.read_vec<Rank>();
    const Edges edges = read_edges(rd);

    // 2. Migrate DV rows whose owner changed (partial results are reused —
    //    the anytime property). Rows of new vertices start fresh.
    grow_columns(static_cast<VertexId>(batch.size()));
    std::vector<rt::ByteWriter> writers(static_cast<std::size_t>(P));
    std::vector<DvRow> kept;
    for (std::size_t r = 0; r < dv_->size(); ++r) {
      const Rank owner = new_owner[dv_->self(r)];
      if (owner == me) {
        // Extraction promotes: kept rows re-enter residency hot and the
        // next maintain() re-demotes whatever settles.
        kept.push_back(dv_->take(r));
      } else {
        DvRow row = dv_->take(r);
        auto& w = writers[static_cast<std::size_t>(owner)];
        w.write(row.self());
        w.write_vec(row.dists());
        w.write_vec(row.next_hops());
      }
    }
    std::vector<std::vector<std::byte>> mig(static_cast<std::size_t>(P));
    for (Rank q = 0; q < P; ++q) {
      mig[static_cast<std::size_t>(q)] = writers[static_cast<std::size_t>(q)].take();
    }
    auto arrived = comm_.all_to_all(std::move(mig));

    // 3. Rebuild the local view under the new ownership.
    lg_ = LocalGraph(me, new_owner, edges);
    caches_.clear();
    reset_rows();
    for (DvRow& row : kept) {
      row.grow(static_cast<VertexId>(n_new - row.size()));
      row.reset_flags();  // dirty/queued bits predate the new ownership
      place_row(std::move(row));
    }
    for (Rank q = 0; q < P; ++q) {
      if (q == me) continue;
      rt::ByteReader mr(arrived[static_cast<std::size_t>(q)]);
      while (!mr.done()) {
        const auto vid = mr.read<VertexId>();
        auto d = mr.read_vec<Dist>();
        auto nh = mr.read_vec<VertexId>();
        d.resize(n_new, kInfDist);
        nh.resize(n_new, kNoVertex);
        place_row(DvRow(vid, std::move(d), std::move(nh)));
      }
    }
    // Kept rows carry geometric-growth slack from the previous era; drop it
    // now that the row set is final for this ownership generation.
    dv_->shrink_all();

    // 4. Every boundary row must reach its (fresh) subscribers; seed new
    //    rows through their local edges. Existing rows are deliberately not
    //    updated against the new vertices here — that happens over the next
    //    RC steps (the paper's stated trade-off for Repartition-S).
    republish_boundary_rows();
    for (const VertexAddEvent& ev : batch) {
      if (!lg_.is_local(ev.id)) continue;
      const auto ri = static_cast<std::size_t>(lg_.row_of(ev.id));
      for (const Edge& e : lg_.adj(ri)) {
        if (lg_.is_local(e.to)) {
          seed_through_edge(ev.id, e.to, e.w);
        }
      }
    }
    // Direct-edge relaxation for every local row: fresh rows (and rows that
    // gained cut edges through migration) must know their one-hop distances
    // even though the portal caches start empty.
    for (std::size_t r = 0; r < dv_->size(); ++r) {
      const VertexId u = lg_.vertex_of(r);
      for (const Edge& e : lg_.adj(r)) {
        relax(u, e.to, e.w, e.to);
      }
    }
    // Re-enqueue every finite entry for local propagation. Migration
    // co-locates rows that were last reconciled through (now discarded)
    // portal caches, and the reset dirty flags dropped any in-flight
    // improvements; only a full re-relaxation pass restores the local
    // fixpoint constraints d[x][t] <= w(x,z) + d[z][t]. This is exactly
    // the "additional RC steps" cost the paper attributes to Repartition-S.
    for (std::size_t r = 0; r < dv_->size(); ++r) {
      DvRow& row = dv_->row(r);
      const VertexId u = lg_.vertex_of(r);
      for (VertexId t = 0; t < row.size(); ++t) {
        if (row.dist(t) != kInfDist) enqueue(row, u, t);
      }
    }
  }
}

// ------------------------------------------------------------ RC main loop

void RankEngine::ingest_batch(const std::vector<Event>& events) {
  std::size_t i = 0;
  while (i < events.size()) {
    if (std::holds_alternative<VertexAddEvent>(events[i])) {
      std::vector<VertexAddEvent> run;
      while (i < events.size() &&
             std::holds_alternative<VertexAddEvent>(events[i])) {
        run.push_back(std::get<VertexAddEvent>(events[i]));
        ++i;
      }
      apply_vertex_batch(run);
      continue;
    }
    std::visit(
        [this](const auto& ev) {
          using T = std::decay_t<decltype(ev)>;
          if constexpr (std::is_same_v<T, EdgeAddEvent>) {
            apply_edge_add(ev);
          } else if constexpr (std::is_same_v<T, EdgeDeleteEvent>) {
            apply_edge_delete(ev);
          } else if constexpr (std::is_same_v<T, WeightChangeEvent>) {
            apply_weight_change(ev);
          } else if constexpr (std::is_same_v<T, VertexDeleteEvent>) {
            apply_vertex_delete(ev);
          }
        },
        events[i]);
    ++i;
  }
}

void RankEngine::boundary_fw_pass() {
  // The paper's alternative local refinement: one Floyd–Warshall-style pass
  // composing own distance-to-portal with the portal's cached row. Sound
  // only for additive workloads (see config.hpp); the driver enforces that.
  for (const auto& [b, cache] : caches_) {
    if (!lg_.is_portal(b)) continue;
    for (std::size_t r = 0; r < dv_->size(); ++r) {
      // Whole-matrix refinement: dense access is inherent, promote per row.
      DvRow& row = dv_->row(r);
      const Dist dxb = row.dist(b);
      if (dxb == kInfDist) continue;
      const VertexId nh = row.next_hop(b);
      for (VertexId t = 0; t < cache.size(); ++t) {
        if (t == row.self()) continue;
        relax(row.self(), t, dist_add(dxb, cache[t]), nh);
      }
    }
  }
}

std::vector<std::string> RankEngine::check_invariants() const {
  std::vector<std::string> out;
  const auto report = [&out](VertexId x, VertexId t, const auto&... rest) {
    std::ostringstream os;
    os << '(' << x << ',' << t << ") ";
    (os << ... << rest);
    out.push_back(os.str());
  };
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    const VertexId x = lg_.vertex_of(r);
    // The cached harmonic value must be a fresh ascending sum, bit for bit.
    // Read before row() so a cold row is checked in its cold form.
    const double cached = dv_->harmonic(r);
    const double fresh = dv_->harmonic_uncached(r);
    if (std::bit_cast<std::uint64_t>(cached) !=
        std::bit_cast<std::uint64_t>(fresh)) {
      report(x, x, "cached harmonic ", cached, " != fresh sum ", fresh);
    }
    // Validation is a whole-matrix walk; const row access promotes cold
    // rows (observable state is unchanged — that is what const means here).
    const DvRow& row = dv_->row(r);
    for (VertexId t = 0; t < row.size(); ++t) {
      if (t == x || row.dist(t) == kInfDist) continue;
      const VertexId nh = row.next_hop(t);
      if (nh == kNoVertex) {
        report(x, t, "finite without next hop");
        continue;
      }
      // nh must be a current neighbour.
      Weight w = 0;
      bool neighbour = false;
      for (const Edge& e : lg_.adj(r)) {
        if (e.to == nh) {
          neighbour = true;
          w = e.w;
          break;
        }
      }
      if (!neighbour) {
        report(x, t, "next hop ", nh, " is not a neighbour");
        continue;
      }
      Dist ref = kInfDist;
      if (nh == t) {
        ref = 0;
      } else if (lg_.is_local(nh)) {
        ref = dv_->probe_dist(static_cast<std::size_t>(lg_.row_of(nh)), t);
      } else {
        const auto it = caches_.find(nh);
        if (it == caches_.end()) continue;  // owner value unknown here
        ref = it->second[t];
      }
      if (ref == kInfDist) continue;  // reference unknown / poisoned
      if (row.dist(t) < dist_add(w, ref)) {
        report(x, t, "d=", row.dist(t), " < w(", w, ") + ref(", ref, ") via ",
               nh);
      }
    }
  }
  return out;
}

StepLocal RankEngine::sample() const {
  StepLocal s = counts_;
  s.bytes_sent = comm_.ledger().bytes_sent;
  s.cpu_seconds = thread_cpu_now();
  s.dv_resident_bytes = dv_->resident_bytes();
  s.dv_cold_bytes = dv_->cold_bytes();
  s.dv_spare_bytes = dv_->spare_bytes();
  s.dv_promotions = dv_->promotions();
  s.dv_demotions = dv_->demotions();
  s.dv_decode_seconds = dv_->decode_seconds();
  return s;
}

void RankEngine::record_step(std::size_t step) {
  // Records hold running totals; the driver and the progress feed derive
  // per-step values from consecutive records.
  const StepLocal prev = step_log_.empty() ? StepLocal{} : step_log_.back();
  StepLocal& rec = step_log_.emplace_back(sample());
  rec.step = step;
  if (metrics_ != nullptr) {
    // Once per step (the hot loops only bump counts_): counters and summed
    // gauges take the delta since the previous record, latest-value gauges
    // the level. cpu_seconds has no registry name — the driver derives CPU
    // gauges from the world's phase ledgers instead.
    for (const metrics::Metric& m : metrics::kCatalog) {
      if (m.name == nullptr) continue;
      metrics::each(m.local.member, [&](auto p) {
        if (m.kind == metrics::Kind::kCounter) {
          metrics_->counter(m.name).add(
              static_cast<std::uint64_t>(rec.*p - prev.*p));
        } else if (m.runs == metrics::Runs::kLatest) {
          metrics_->gauge(m.name).set(static_cast<double>(rec.*p));
        } else {
          metrics_->gauge(m.name).add(static_cast<double>(rec.*p - prev.*p));
        }
      });
    }
    metrics_->counter("rc/steps").add(1);
  }
  counts_.blocked_on_seconds = 0.0;  // per-step, reset at each record
  counts_.blocked_on_rank = -1;
}

std::vector<std::pair<VertexId, double>> RankEngine::local_top_harmonic(
    std::size_t k) const {
  std::vector<std::pair<VertexId, double>> all;
  all.reserve(dv_->size());
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    // The cached value is the ascending-column sum, exactly like the
    // pre-bounded snapshots: the k = 0 path stays bit-identical to the
    // historical E3 output, and bounded runs agree with it on the
    // surviving entries. After publish_snapshot in the same step every
    // read here is O(1); neither residency form is promoted.
    all.emplace_back(dv_->self(r), dv_->harmonic(r));
  }
  if (k > 0 && all.size() > k) {
    const auto better = [](const std::pair<VertexId, double>& a,
                           const std::pair<VertexId, double>& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    };
    std::partial_sort(all.begin(),
                      all.begin() + static_cast<std::ptrdiff_t>(k), all.end(),
                      better);
    all.resize(k);
  }
  return all;
}

void RankEngine::progress_step(const char* phase, std::size_t step) {
  if (!progress_active_) return;  // the whole feed costs this one test
  const obs::ScopedSpan span(trace_, "progress", "step", step);

  // ---- this rank's share of the event ----
  // Per-step churn between the last two step records (the same derivation
  // the driver uses for StepStats; the IA event has none), running totals
  // at this boundary.
  const std::size_t records = step_log_.size();
  const StepLocal cur = records == 0 ? sample() : step_log_.back();
  const StepLocal prev = records == 0   ? cur
                         : records == 1 ? StepLocal{}
                                        : step_log_[records - 2];
  obs::ProgressEvent mine;
  metrics::from_step(mine, &metrics::Metric::event, cur, prev, &comm_.ledger());
  mine.dirty = dirty_entries_;
  for (std::size_t r = 0; r < dv_->size(); ++r) {
    mine.settled += dv_->finite_count(r);
    mine.columns += dv_->columns(r);
  }
  mine.queue_max = mine.queue_sum = queue_depth_step_;
  queue_depth_step_ = 0;

  rt::ByteWriter w;
  for_each_gathered(mine, [&](auto& field) { w.write(field); });
  const std::size_t k = cfg_.progress.top_k;
  const auto top = local_top_harmonic(k);
  w.write<std::uint32_t>(static_cast<std::uint32_t>(top.size()));
  for (const auto& [v, h] : top) {
    w.write<VertexId>(v);
    w.write<double>(h);
  }

  // Deterministic fold to the driver rank. The gather is real transport
  // (ledger-accounted); a ghost contributes zero rows like any collective.
  const auto bufs = comm_.gather(w.take(), 0);
  if (progress_ == nullptr) return;  // non-driver ranks are done

  // ---- driver rank: merge in rank order, estimate, emit ----
  obs::ProgressEvent ev;
  ev.phase = phase;
  ev.step = step;
  ev.ranks = comm_.size();
  std::vector<std::pair<VertexId, double>> merged;
  for (const auto& buf : bufs) {
    rt::ByteReader r(buf);
    obs::ProgressEvent theirs;
    for_each_gathered(theirs, [&](auto& field) {
      field = r.read<std::remove_reference_t<decltype(field)>>();
    });
    theirs.queue_sum = theirs.queue_max;
    metrics::merge(ev, &metrics::Metric::event, theirs);
    const auto count = r.read<std::uint32_t>();
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto v = r.read<VertexId>();
      const auto h = r.read<double>();
      merged.emplace_back(v, h);
    }
  }
  ev.dirty_fraction =
      ev.columns == 0 ? 0.0
                      : static_cast<double>(ev.dirty) /
                            static_cast<double>(ev.columns);
  ev.recoveries = progress_->recoveries;
  // Vertices are uniquely owned, so the concatenation has no duplicate ids;
  // one sort gives the global bounded top-k.
  std::sort(merged.begin(), merged.end(),
            [](const std::pair<VertexId, double>& a,
               const std::pair<VertexId, double>& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  if (merged.size() > k) merged.resize(k);
  if (std::strcmp(phase, "rc_step") == 0 && !progress_->prev_top.empty()) {
    ev.has_estimators = true;
    ev.topk_overlap = top_k_overlap(progress_->prev_top, merged, k);
    ev.kendall_tau = kendall_tau(progress_->prev_top, merged);
  }
  ev.top.reserve(merged.size());
  for (const auto& [v, h] : merged) ev.top.push_back(v);
  progress_->prev_top = std::move(merged);
  if (serve_ != nullptr) {
    // Republish the estimator sample for query responses (the staleness
    // contract: every answer carries the latest convergence estimators),
    // and surface the serve counters in the feed itself.
    auto est = std::make_shared<serve::EstimatorSample>();
    est->step = step;
    est->has = ev.has_estimators;
    est->topk_overlap = ev.topk_overlap;
    est->kendall_tau = ev.kendall_tau;
    serve_->estimators.store(std::move(est));
    ev.has_serve = true;
    ev.serve_queries = serve_->queries.load(std::memory_order_relaxed);
    std::size_t oldest = step;
    for (const auto& cell : serve_->snapshots) {
      const auto snap = cell.read();
      oldest = std::min(oldest, snap ? snap->step : std::size_t{0});
    }
    ev.snapshot_age_steps = step - oldest;
    if (m_serve_age_ != nullptr) {
      m_serve_age_->record(ev.snapshot_age_steps);
    }
  }
  progress_->emit(ev);
}

void RankEngine::publish_snapshot(std::size_t step) {
  const obs::ScopedSpan span(trace_, "publish", "step", step);
  const Timer timer;
  auto& cell = serve_->snapshots[static_cast<std::size_t>(comm_.rank())];
  auto snap = std::make_shared<serve::SnapshotData>();
  {
    const auto prev = cell.read();
    snap->epoch = prev != nullptr ? prev->epoch + 1 : 1;
  }
  snap->step = step;
  snap->degraded = serve_->degraded.load(std::memory_order_relaxed);
  const std::size_t rows = dv_->size();  // 0 for ghosts: an empty snapshot
  publish_index_.clear();
  publish_index_.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    publish_index_.emplace_back(dv_->self(r), static_cast<std::uint32_t>(r));
  }
  std::sort(publish_index_.begin(), publish_index_.end());
  snap->ids.resize(rows);
  snap->closeness.resize(rows);
  snap->harmonic.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto [v, r] = publish_index_[i];
    snap->ids[i] = v;
    // Metadata reads — the tiered store serves them from either residency
    // form without promotion, so publication cannot perturb residency.
    // Only rows written since the last read re-sum their harmonic value.
    snap->closeness[i] = dv_->closeness(r);
    snap->harmonic[i] = dv_->harmonic(r);
  }
  snap->by_closeness.resize(rows);
  std::iota(snap->by_closeness.begin(), snap->by_closeness.end(), 0U);
  std::sort(snap->by_closeness.begin(), snap->by_closeness.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return snap->closeness[a] != snap->closeness[b]
                         ? snap->closeness[a] > snap->closeness[b]
                         : snap->ids[a] < snap->ids[b];
            });
  cell.publish(std::move(snap));  // the O(1) swap — readers never waited
  if (m_serve_publishes_ != nullptr) {
    m_serve_publishes_->add(1);
    m_serve_publish_seconds_->add(timer.seconds());
  }
}

std::size_t RankEngine::run_rc() {
  comm_.set_phase("rc");
  std::size_t step = start_step_;
  std::size_t next_batch = start_batch_;
  const std::size_t num_batches = schedule_ != nullptr ? schedule_->size() : 0;
  // Live session: schedule_ is the replayed journal prefix (empty on a
  // first attempt); once it is consumed, fresh batches come from the feed.
  const bool live = serve_ != nullptr;

  for (;;) {
    cur_step_ = step;
    // Health supervision names this step when a wait on a peer stalls.
    comm_.set_rc_step(static_cast<std::uint32_t>(step));
    // Opened before the crash hook so a mid-step InjectedCrash unwinds
    // through the span and the trace still shows the truncated step.
    const obs::ScopedSpan step_span(trace_, "rc_step", "step", step);
    // Chaos hook: a scheduled crash fires at the top of the RC step, before
    // this rank enters the step's first collective. Every survivor then
    // blocks inside that exchange (the all_to_all needs the dead rank) and
    // is interrupted there, so all survivors stop with the *same* (step,
    // batch) cursors — which is what makes the degraded restart coherent.
    if (!ghost_ && injector_ != nullptr &&
        injector_->should_crash(comm_.rank(), step)) {
      throw rt::InjectedCrash(comm_.rank(), step);
    }

    {
      const obs::ScopedSpan span(trace_, "exchange", "dirty", dirty_entries_);
      send_round(/*markers_only=*/false);
    }

    // One intake loop for both feeds. A scheduled batch is replicated data:
    // every rank serializes its own copy and hands it to the broadcast as
    // the replica, so a survivor whose tree parent died mid-broadcast
    // reconstructs the payload locally instead of stalling — only the
    // feed's distribution cost is being modeled (docs/FAULTS.md §Recovery
    // policy ladder). Once the schedule is consumed, a live session's rank 0
    // pops queued batches (journaling each at this step so recovery can
    // replay it). An empty payload is the "no more this step" terminator —
    // a real batch always serializes non-empty. The live feed runs on ghost
    // seats too: the seat, not the process, owns the feed role, so the
    // protocol survives rank 0's death.
    bool ingested = false;
    for (;;) {
      const bool scheduled = next_batch < num_batches;
      if (scheduled && (*schedule_)[next_batch].at_step > step) break;
      if (!scheduled && !live) break;
      rt::ByteWriter w;
      if (scheduled) {
        serialize_events((*schedule_)[next_batch].events, w);
      } else if (comm_.rank() == 0) {
        std::vector<Event> events;
        if (serve_->feed.try_pop(step, events)) serialize_events(events, w);
      }
      const std::vector<std::byte> feed = w.take();
      const auto buf = comm_.broadcast(feed, 0, scheduled ? &feed : nullptr);
      if (buf.empty()) break;
      const obs::ScopedSpan ingest_span(trace_, "ingest", "batch", next_batch);
      rt::ByteReader rd(buf);
      ingest_batch(deserialize_events(rd));
      ingested = true;
      cur_batch_ = ++next_batch;
    }

    // Extension: automatic rebalancing when dynamic changes (typically
    // deletions) have skewed the load beyond the configured threshold.
    // The decision is a deterministic function of the shared owner map, so
    // every rank takes the same branch without communication.
    if (ingested && cfg_.rebalance_threshold > 0.0) {
      const auto loads = rank_loads(lg_.owner_map(), comm_.size());
      std::size_t alive = 0;
      std::size_t max_load = 0;
      for (const std::size_t l : loads) {
        alive += l;
        max_load = std::max(max_load, l);
      }
      const double ideal =
          static_cast<double>(alive) / static_cast<double>(comm_.size());
      if (ideal > 0.0 &&
          static_cast<double>(max_load) / ideal > cfg_.rebalance_threshold) {
        apply_repartition({});
      }
    }

    // Poison-synchronization barrier: all invalidations must settle on
    // every rank before any repair runs, otherwise two ranks can re-derive
    // distances from each other's stale entries and count to infinity.
    poison_barrier();

    drain();
    if (cfg_.refine == RefineMode::kBoundaryFloydWarshall) {
      boundary_fw_pass();
      drain();
    }

    if (cfg_.validate_each_step) {
      const auto violations = check_invariants();
      invariant_violations_ += violations.size();
      for (const std::string& v : violations) {
        std::fprintf(stderr, "[rank %d step %zu] INVARIANT: %s\n",
                     comm_.rank(), step, v.c_str());
      }
    }

    if (cfg_.record_step_quality) {
      // Harmonic centrality is the anytime-safe quality metric: distance
      // upper bounds make it a monotone lower bound of the exact value,
      // whereas 1/Σ(known distances) overshoots while coverage is partial.
      step_quality_.push_back(local_top_harmonic(0));
    }
    // Residency pass at the step boundary: the queues are empty (drain just
    // ran), so no demoted row can hold a kQueued flag — maintain()'s
    // precondition. record_step then folds the fresh residency gauges.
    maintain_store();
    record_step(step);
    if (live) {
      // Publish before the progress fold so the feed's snapshot-age sample
      // sees this step's snapshots; the final state is force-published at
      // loop exit whatever the cadence.
      if (step % cfg_.publish_every == 0) publish_snapshot(step);
      if (comm_.rank() == 0) {
        serve_->engine_step.store(step, std::memory_order_release);
      }
    }
    progress_step("rc_step", step);

    // MTTR probe: the first completed step at/after the death step marks
    // this rank recovered; the supervisor takes the max over ranks as the
    // recovery-complete instant. Rollback restarts earlier than the death
    // step, so its replay cost is inside the measured window by design.
    if (!ghost_ && recovery_mark_ != nullptr && step >= recovery_mark_step_) {
      const std::int64_t now = steady_now_ns();
      std::int64_t cur = recovery_mark_->load(std::memory_order_relaxed);
      while (cur < now && !recovery_mark_->compare_exchange_weak(
                              cur, now, std::memory_order_relaxed)) {
      }
      recovery_mark_ = nullptr;  // once per rank
    }

    // Checkpoints are taken after drain, so the local queues are empty and
    // the blob captures a step boundary. A recovery snapshot goes to this
    // rank's own periodic slot (no locking; see PeriodicCheckpoints). The
    // fault-tolerance drill persists and stops: all ranks share `step`, so
    // the exit is collective without extra messages.
    const bool periodic = !ghost_ && periodic_ != nullptr &&
                          cfg_.checkpoint_every > 0 &&
                          step % cfg_.checkpoint_every == 0;
    const bool drill = step == cfg_.checkpoint_at_step;
    if (periodic || drill) {
      AACC_CHECK_MSG(!drill || checkpoint_slot_ != nullptr,
                     "checkpoint_at_step set without a checkpoint slot");
      const obs::ScopedSpan ckpt_span(trace_, "checkpoint", "step", step);
      rt::ByteWriter w;
      serialize_state(w);
      std::vector<std::byte> blob = w.take();
      if (!drill) {
        periodic_->store(comm_.rank(), step, std::move(blob));
      } else {
        if (periodic) periodic_->store(comm_.rank(), step, blob);
        *checkpoint_slot_ = std::move(blob);
      }
    }
    if (drill) {
      ++step;
      break;
    }

    bool pending = dirty_entries_ > 0 || next_batch < num_batches;
    if (live && comm_.rank() == 0) {
      pending = pending || serve_->feed.has_ready();
    }
    const bool any_pending = comm_.all_reduce_or(pending);
    ++step;
    if (!any_pending) {
      if (!live) break;
      // Quiescent with an open feed: the fixpoint is reached and published,
      // so rank 0 blocks until the session ingests more or closes, then
      // broadcasts the verdict (1 = new work, 0 = closed and drained). The
      // other ranks block inside this broadcast — which is why a live
      // session disables the recv watchdog and peer-health supervision: an
      // idle feed is indistinguishable from a wedged peer.
      std::vector<std::byte> verdict(1, std::byte{0});
      if (comm_.rank() == 0 && serve_->feed.wait_ready()) {
        verdict[0] = std::byte{1};
      }
      const auto buf = comm_.broadcast(std::move(verdict), 0, nullptr);
      if (buf.at(0) == std::byte{0}) break;
    }
    if (cfg_.max_rc_steps != 0 && step >= cfg_.max_rc_steps) break;
  }
  if (live) {
    // Terminal snapshots: whatever the publish cadence, a closed (or
    // capped) session serves the exact final state at zero staleness. The
    // feed is closed on every exit path (a max_rc_steps cap included) so a
    // late ingest fails fast instead of queuing into the void.
    publish_snapshot(cur_step_);
    if (comm_.rank() == 0) {
      serve_->feed.close();
      serve_->engine_step.store(cur_step_, std::memory_order_release);
    }
  }
  // Promotions after the RC phase (extraction, validation) are one-off:
  // the recycled buffers would only hold memory.
  dv_->release_spares();
  return step;
}

}  // namespace aacc
