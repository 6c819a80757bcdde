#include "serve/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <variant>

#include "common/check.hpp"
#include "obs/progress.hpp"

namespace aacc::serve {

namespace {

using Snap = std::shared_ptr<const SnapshotData>;

std::vector<Snap> collect(const ServeContext& ctx) {
  std::vector<Snap> snaps;
  snaps.reserve(ctx.snapshots.size());
  for (const SnapshotCell& cell : ctx.snapshots) snaps.push_back(cell.read());
  return snaps;
}

/// The freshness floor across every consulted cell: an unpublished cell
/// reads as step 0 (nothing of that rank's data is visible yet).
std::size_t min_step(const std::vector<Snap>& snaps) {
  std::size_t oldest = static_cast<std::size_t>(-1);
  for (const Snap& s : snaps) oldest = std::min(oldest, s ? s->step : 0);
  return snaps.empty() ? 0 : oldest;
}

/// Builds the staleness contract for an answer backed by snapshots no
/// older than `answer_step`, and bumps the query-side counters. `index`
/// receives this query's 0-based global index (the pre-increment counter
/// value) for the deterministic 1-in-N flow sampling.
ResponseMeta make_meta(ServeContext& ctx, const std::vector<Snap>& snaps,
                       std::size_t answer_step, std::uint64_t& index) {
  ResponseMeta meta;
  meta.step = answer_step;
  // Rank 0 advances engine_step after its own publish, so another rank's
  // snapshot of the same step can be served first: a published step is
  // always a completed one.
  meta.engine_step =
      std::max(ctx.engine_step.load(std::memory_order_acquire), answer_step);
  meta.age_steps =
      meta.engine_step > meta.step ? meta.engine_step - meta.step : 0;
  meta.stale =
      ctx.max_snapshot_lag != 0 && meta.age_steps > ctx.max_snapshot_lag;
  meta.degraded = ctx.degraded.load(std::memory_order_acquire);
  for (const Snap& s : snaps) {
    if (s == nullptr) continue;
    meta.degraded = meta.degraded || s->degraded;
  }
  if (const auto est = ctx.estimators.load(); est != nullptr && est->has) {
    meta.has_estimators = true;
    meta.topk_overlap = est->topk_overlap;
    meta.kendall_tau = est->kendall_tau;
  }
  index = ctx.queries.fetch_add(1, std::memory_order_relaxed);
  if (meta.stale) ctx.stale_responses.fetch_add(1, std::memory_order_relaxed);
  return meta;
}

/// Finishes one timed query: records its latency into the per-kind SLO
/// histogram (lock-free) and, for sampled indices, captures a QuerySample
/// tying the response to the snapshot publish (`epoch`) that served it.
void record_query(ServeContext& ctx, LatencyHistogram& hist, char kind,
                  std::uint64_t index,
                  std::chrono::steady_clock::time_point t0,
                  const ResponseMeta& meta, std::uint64_t epoch) {
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  hist.record(ns);
  if (index % ServeContext::kSampleEvery != 0) return;
  std::lock_guard<std::mutex> lk(ctx.samples_mu);
  if (ctx.samples.size() >= ServeContext::kMaxSamples) return;
  QuerySample s;
  s.kind = kind;
  s.index = index;
  s.ns = ns;
  s.snapshot_step = meta.step;
  s.snapshot_epoch = epoch;
  s.engine_step = meta.engine_step;
  ctx.samples.push_back(s);
}

/// Freshest publish epoch among the consulted snapshots (multi-snapshot
/// answers: top_k / rank_of / not-found).
std::uint64_t max_epoch(const std::vector<Snap>& snaps) {
  std::uint64_t e = 0;
  for (const Snap& s : snaps) {
    if (s != nullptr) e = std::max(e, s->epoch);
  }
  return e;
}

/// Locates v in the freshest snapshot that contains it. Returns the holder
/// (null if absent everywhere) and the position of v inside it.
const SnapshotData* find_vertex(const std::vector<Snap>& snaps, VertexId v,
                                std::size_t& pos) {
  const SnapshotData* holder = nullptr;
  for (const Snap& s : snaps) {
    if (s == nullptr) continue;
    const auto it = std::lower_bound(s->ids.begin(), s->ids.end(), v);
    if (it == s->ids.end() || *it != v) continue;
    if (holder == nullptr || s->step > holder->step) {
      holder = s.get();
      pos = static_cast<std::size_t>(it - s->ids.begin());
    }
  }
  return holder;
}

}  // namespace

PointResponse QueryView::point(VertexId v) const {
  const auto t0 = std::chrono::steady_clock::now();
  const auto snaps = collect(*ctx_);
  std::size_t pos = 0;
  const SnapshotData* holder = find_vertex(snaps, v, pos);
  PointResponse r;
  std::uint64_t index = 0;
  std::uint64_t epoch = 0;
  if (holder != nullptr) {
    r.found = true;
    r.closeness = holder->closeness[pos];
    r.harmonic = holder->harmonic[pos];
    epoch = holder->epoch;
    r.meta = make_meta(*ctx_, snaps, holder->step, index);
  } else {
    // "Not found" is only as fresh as the oldest cell consulted.
    epoch = max_epoch(snaps);
    r.meta = make_meta(*ctx_, snaps, min_step(snaps), index);
  }
  record_query(*ctx_, ctx_->query_ns_point, 'p', index, t0, r.meta, epoch);
  return r;
}

TopkResponse QueryView::top_k(std::size_t k) const {
  const auto t0 = std::chrono::steady_clock::now();
  const auto snaps = collect(*ctx_);
  TopkResponse r;
  std::uint64_t index = 0;
  r.meta = make_meta(*ctx_, snaps, min_step(snaps), index);
  const auto done = [&]() {
    record_query(*ctx_, ctx_->query_ns_top_k, 't', index, t0, r.meta,
                 max_epoch(snaps));
  };
  if (k == 0) {
    done();
    return r;
  }
  // Each rank's top-k prefix (its by_closeness order) is a superset of its
  // contribution to the global top-k, so k candidates per rank suffice.
  struct Cand {
    VertexId v;
    double closeness;
    std::size_t step;
  };
  std::vector<Cand> cands;
  for (const Snap& s : snaps) {
    if (s == nullptr) continue;
    const std::size_t take = std::min(k, s->by_closeness.size());
    for (std::size_t i = 0; i < take; ++i) {
      const std::uint32_t idx = s->by_closeness[i];
      cands.push_back(Cand{s->ids[idx], s->closeness[idx], s->step});
    }
  }
  // A vertex migrating between ranks can appear in two snapshots of
  // different ages; keep the freshest occurrence.
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    return a.v != b.v ? a.v < b.v : a.step > b.step;
  });
  cands.erase(std::unique(cands.begin(), cands.end(),
                          [](const Cand& a, const Cand& b) {
                            return a.v == b.v;
                          }),
              cands.end());
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    return a.closeness != b.closeness ? a.closeness > b.closeness
                                      : a.v < b.v;
  });
  if (cands.size() > k) cands.resize(k);
  r.entries.reserve(cands.size());
  for (const Cand& c : cands) r.entries.push_back(TopkEntry{c.v, c.closeness});
  done();
  return r;
}

VertexRankResponse QueryView::rank_of(VertexId v) const {
  const auto t0 = std::chrono::steady_clock::now();
  const auto snaps = collect(*ctx_);
  std::size_t pos = 0;
  const SnapshotData* holder = find_vertex(snaps, v, pos);
  VertexRankResponse r;
  std::uint64_t index = 0;
  const auto done = [&]() {
    record_query(*ctx_, ctx_->query_ns_rank_of, 'r', index, t0, r.meta,
                 holder != nullptr ? holder->epoch : max_epoch(snaps));
  };
  if (holder == nullptr) {
    r.meta = make_meta(*ctx_, snaps, min_step(snaps), index);
    done();
    return r;
  }
  r.found = true;
  r.closeness = holder->closeness[pos];
  // Rank = 1 + the number of entries strictly ordered before (c_v, v) under
  // (closeness desc, id asc). Each by_closeness permutation is sorted by
  // exactly that comparator, so the per-rank count is one binary search.
  std::size_t before = 0;
  for (const Snap& s : snaps) {
    if (s == nullptr) continue;
    const auto ordered_before = [&](std::uint32_t idx) {
      return s->closeness[idx] > r.closeness ||
             (s->closeness[idx] == r.closeness && s->ids[idx] < v);
    };
    const auto it = std::partition_point(s->by_closeness.begin(),
                                         s->by_closeness.end(), ordered_before);
    before += static_cast<std::size_t>(it - s->by_closeness.begin());
  }
  r.rank = 1 + before;
  r.meta = make_meta(*ctx_, snaps, min_step(snaps), index);
  done();
  return r;
}

EngineSession::EngineSession(Graph g, EngineConfig cfg)
    : graph_(std::move(g)), cfg_(std::move(cfg)) {
  cfg_.validate();
  if (cfg_.health.enabled) {
    throw ConfigError(
        "EngineSession: health supervision is incompatible with live "
        "serving — a session idles inside a collective while the feed is "
        "empty, which the deadlines would misread as a wedged rank "
        "(run() still supports health.enabled)");
  }
  if (cfg_.checkpoint_at_step != kNoCheckpointStep) {
    throw ConfigError(
        "EngineSession: checkpoint_at_step is a batch-mode drill — a live "
        "session has no caller-held schedule to resume the checkpoint "
        "against (periodic checkpoint_every for recovery is fine)");
  }
  // An idle feed blocks rank 0 inside the feed-verdict broadcast; the recv
  // watchdog cannot tell that apart from a dead peer, so it is off for the
  // session's lifetime.
  cfg_.transport.recv_timeout = std::chrono::milliseconds(0);
  // Estimators ride the progress fold; force it on so every response
  // carries them even when the caller configured no sink.
  if (!cfg_.progress.active()) {
    cfg_.progress.sink = std::make_shared<obs::NullSink>();
  }
  ctx_ = std::make_shared<ServeContext>(cfg_.num_ranks, cfg_.publish_every,
                                        cfg_.max_snapshot_lag);
  next_vertex_id_ = graph_.num_vertices();
  driver_ = std::thread([this] {
    detail::DriverArgs args;
    args.graph = &graph_;
    args.cfg = cfg_;
    args.serve = ctx_.get();
    try {
      result_ = detail::run_driver(args);
    } catch (...) {
      error_ = std::current_exception();
    }
    // Normally already closed by the drain; on a driver failure this makes
    // the next ingest fail fast instead of queuing into the void.
    ctx_->feed.close();
  });
}

EngineSession::~EngineSession() {
  if (driver_.joinable()) {
    ctx_->feed.close();
    driver_.join();
    // A failure outcome is dropped here by design: close() is the API for
    // observing it, and destructors must not throw.
  }
}

void EngineSession::ingest(std::vector<Event> events) {
  if (state_.load(std::memory_order_acquire) != SessionState::kOpen) {
    throw EngineStateError("EngineSession::ingest after close()");
  }
  if (events.empty()) return;  // an empty broadcast is the feed terminator
  if (cfg_.refine == RefineMode::kBoundaryFloydWarshall) {
    for (const Event& e : events) {
      AACC_CHECK_MSG(!std::holds_alternative<EdgeDeleteEvent>(e) &&
                         !std::holds_alternative<WeightChangeEvent>(e) &&
                         !std::holds_alternative<VertexDeleteEvent>(e),
                     "boundary-FW refinement is additive-only (see config.hpp)");
    }
  }
  // Dense-id contract: the engine assigns added-vertex ids by append, so a
  // mismatched id would fail deep inside the rank loop ("vertex id
  // mismatch in batch") long after the caller could do anything about it.
  // Reject here, before the batch is queued; the counter advances only on
  // acceptance so a rejected batch can be fixed and resubmitted.
  VertexId expect = next_vertex_id_;
  for (const Event& e : events) {
    if (const auto* add = std::get_if<VertexAddEvent>(&e)) {
      if (add->id != expect) {
        throw EngineStateError(
            "EngineSession::ingest: vertex add id " +
            std::to_string(add->id) + " breaks the dense-id contract — the "
            "engine assigns ids by append, so this session's next added "
            "vertex must carry id " + std::to_string(expect) +
            " (deleted ids are tombstoned, never reused)");
      }
      ++expect;
    }
  }
  if (!ctx_->feed.push(std::move(events))) {
    throw EngineStateError(
        "EngineSession::ingest after the run ended (max_rc_steps cap or "
        "driver failure; close() reports the outcome)");
  }
  next_vertex_id_ = expect;
}

RunResult EngineSession::close() {
  if (state_.load(std::memory_order_acquire) != SessionState::kOpen) {
    throw EngineStateError("EngineSession::close is one-shot");
  }
  ctx_->feed.close();
  driver_.join();
  if (error_ != nullptr) {
    state_.store(SessionState::kFailed, std::memory_order_release);
    std::rethrow_exception(error_);
  }
  state_.store(SessionState::kClosed, std::memory_order_release);
  return std::move(result_);
}

}  // namespace aacc::serve
