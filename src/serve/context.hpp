// Shared state between a live EngineSession and the rank engines it drives
// (docs/API.md §"Serving sessions", DESIGN.md §"Anytime query serving").
//
// Three pieces, all engineered so concurrent readers never block the RC
// drain:
//   * SnapshotCell — one immutable, atomically published closeness snapshot
//     per rank. The owning rank builds a fresh SnapshotData off to the side
//     and publishes it with one atomic shared_ptr store (the double-buffer
//     swap); readers take shared_ptr copies and can hold them for as long
//     as they like without ever making the writer wait.
//   * BatchFeed — the mutation queue from EngineSession::ingest to rank 0's
//     RC loop, plus the journal of consumed batches. The journal is the
//     live-mode stand-in for the EventSchedule: supervised recovery replays
//     it, and the driver applies it to the ground-truth graph at close.
//   * ServeContext — the per-session bundle: the cells, the feed, the
//     engine's step marker, recovery flags, estimator sample and query
//     counters.
//
// This header is intentionally dependency-light (core types + events only)
// so core/rank_engine.cpp can publish into it without linking the serve
// library.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/events.hpp"
#include "obs/metrics.hpp"

namespace aacc::serve {

/// Lock-free latency histogram for the query hot path. Same power-of-two
/// bucket layout as obs::Histogram (snapshot() converts losslessly), but
/// every field is a relaxed atomic so concurrent QueryView threads never
/// serialize on a mutex — the ~µs point-query path stays wait-free.
/// Relaxed ordering is fine: each field is independently monotone and
/// readers only consume statistical summaries.
struct LatencyHistogram {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  /// min/max use sentinel init + CAS loops; min starts at ~0 (u64 max).
  std::atomic<std::uint64_t> min{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max{0};
  std::atomic<std::uint64_t> buckets[obs::Histogram::kBuckets] = {};

  void record(std::uint64_t v) {
    count.fetch_add(1, std::memory_order_relaxed);
    sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = min.load(std::memory_order_relaxed);
    while (v < cur &&
           !min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = max.load(std::memory_order_relaxed);
    while (v > cur &&
           !max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    const int b = v <= 1 ? 0 : std::bit_width(v);
    buckets[std::min(b, obs::Histogram::kBuckets - 1)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Materializes an obs::Histogram (mergeable into a MetricsRegistry).
  /// Not a consistent point-in-time cut under concurrent writers — counts
  /// may be mid-update — but every individual sample lands eventually and
  /// the close-time snapshot (writers quiesced) is exact.
  [[nodiscard]] obs::Histogram snapshot() const {
    obs::Histogram h;
    h.count = count.load(std::memory_order_relaxed);
    h.sum = sum.load(std::memory_order_relaxed);
    h.min = h.count == 0 ? 0 : min.load(std::memory_order_relaxed);
    h.max = max.load(std::memory_order_relaxed);
    for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
      h.buckets[b] = buckets[b].load(std::memory_order_relaxed);
    }
    return h;
  }
};

/// One sampled query, tying a served response to the snapshot publish that
/// answered it (docs/OBSERVABILITY.md §Serve latency SLOs). Collected 1-in-N so
/// the buffer stays bounded regardless of query volume.
struct QuerySample {
  char kind = '?';           ///< 'p' point, 't' top_k, 'r' rank_of
  std::uint64_t index = 0;   ///< 0-based global query index
  std::uint64_t ns = 0;      ///< wall time spent in the query
  /// Provenance of the freshest snapshot consulted: its RC step and
  /// publish epoch, plus the engine step at query time (staleness =
  /// engine_step - snapshot_step).
  std::size_t snapshot_step = 0;
  std::uint64_t snapshot_epoch = 0;
  std::size_t engine_step = 0;
};

/// One immutable per-rank closeness snapshot. All vectors are aligned:
/// ids[i] / closeness[i] / harmonic[i] describe the same vertex, and ids is
/// sorted ascending (readers binary-search it). by_closeness is an index
/// permutation ordered by (closeness desc, id asc) — the rank's local
/// ranking, merged across ranks by QueryView::top_k.
struct SnapshotData {
  /// RC step the publishing rank had completed (same indexing as the
  /// progress feed; the IA publish uses the run's start step).
  std::size_t step = 0;
  /// Publish sequence number for this rank's cell, monotone within a
  /// session (survives supervised restarts: the next attempt continues
  /// from the published predecessor's epoch).
  std::uint64_t epoch = 0;
  /// Recovery provenance at publish time (docs/FAULTS.md): the run is
  /// in degraded survivor mode.
  bool degraded = false;
  std::vector<VertexId> ids;      ///< local vertices, ascending
  std::vector<double> closeness;  ///< aligned with ids
  std::vector<double> harmonic;   ///< aligned with ids
  std::vector<std::uint32_t> by_closeness;  ///< index into ids, best first
};

/// Atomically publishable shared_ptr slot: store() swaps the pointer in,
/// load() takes a pinned copy out. The critical section on either side is
/// a single refcount operation under a tiny acquire/release spinlock.
///
/// Not std::atomic<std::shared_ptr<T>>: libstdc++'s _Sp_atomic unlocks its
/// load() path with a relaxed fetch_sub (shared_ptr_atomic.h), so there is
/// no release edge from a reader's plain _M_ptr read to the next store()'s
/// plain write — mutual exclusion holds, but formally it is a data race
/// and ThreadSanitizer reports it as one. This box keeps both lock and
/// unlock acquire/release, which makes the happens-before real.
template <typename T>
class PublishedPtr {
 public:
  void store(std::shared_ptr<T> next) {
    lock();
    current_.swap(next);
    unlock();
    // `next` (the displaced value) releases its reference outside the
    // lock, so a slow destructor never extends the critical section.
  }

  [[nodiscard]] std::shared_ptr<T> load() const {
    lock();
    std::shared_ptr<T> copy = current_;
    unlock();
    return copy;
  }

 private:
  void lock() const {
    while (locked_.exchange(true, std::memory_order_acquire)) {
      while (locked_.load(std::memory_order_relaxed)) {
      }
    }
  }
  void unlock() const { locked_.store(false, std::memory_order_release); }

  mutable std::atomic<bool> locked_{false};
  std::shared_ptr<T> current_;
};

/// Single-writer (the owning rank thread), many-reader snapshot slot.
/// Publication swaps one shared_ptr; reads pin a copy. The data behind
/// the pointer is immutable after publish — every publish installs a
/// freshly built SnapshotData, so a reader holding the previous epoch
/// keeps a complete, consistent view and the writer never waits for
/// readers to finish with it (no seqlock retry loop, and TSan sees real
/// synchronization instead of a formally racy memcpy).
class SnapshotCell {
 public:
  void publish(std::shared_ptr<const SnapshotData> next) {
    current_.store(std::move(next));
  }
  [[nodiscard]] std::shared_ptr<const SnapshotData> read() const {
    return current_.load();
  }

 private:
  PublishedPtr<const SnapshotData> current_;
};

/// Latest convergence-estimator sample, republished by rank 0 from the
/// per-step progress fold (top-k overlap / Kendall tau-b vs the previous
/// step — the staleness contract attached to every query response).
struct EstimatorSample {
  std::size_t step = 0;
  bool has = false;  ///< false until a second step exists to compare against
  double topk_overlap = 0.0;
  double kendall_tau = 0.0;
};

/// Mutation feed from EngineSession::ingest into rank 0's RC loop, plus the
/// journal of everything already consumed. Thread-safe; closed exactly once
/// by EngineSession::close (a close with batches still queued lets the loop
/// drain them first — the session's final result reflects every ingested
/// batch).
class BatchFeed {
 public:
  /// Queues one batch. Returns false when the feed is already closed (the
  /// batch is dropped; EngineSession::ingest turns that into an error).
  bool push(std::vector<Event> events) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      queue_.push_back(std::move(events));
    }
    cv_.notify_all();
    return true;
  }

  void close() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Non-blocking pop; on success the batch is journaled as ingested at
  /// `step` (the journal is the live-mode EventSchedule: recovery replays
  /// it with the exact step pinning the original ingest used).
  bool try_pop(std::size_t step, std::vector<Event>& out) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    out = std::move(queue_.front());
    queue_.pop_front();
    journal_.push_back(EventBatch{step, out});
    return true;
  }

  /// Blocks until a batch is queued or the feed is closed. True = a batch
  /// is pending; false = closed and drained (the RC loop terminates).
  bool wait_ready() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    return !queue_.empty();
  }

  [[nodiscard]] bool has_ready() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return !queue_.empty();
  }

  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// Stable copy of the consumed-batch journal. The supervisor snapshots it
  /// while the rank world is joined (the journal only grows, and only from
  /// rank 0's try_pop, so a joined-world copy is a coherent prefix).
  [[nodiscard]] EventSchedule journal_copy() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return journal_;
  }

  [[nodiscard]] std::size_t journal_size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return journal_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::vector<Event>> queue_;
  EventSchedule journal_;
  bool closed_ = false;
};

/// Everything one live session shares between the driver thread, the rank
/// threads and any number of QueryView reader threads. Owned by
/// EngineSession through a shared_ptr so queries stay valid after close().
struct ServeContext {
  ServeContext(Rank ranks, std::size_t publish_every_,
               std::size_t max_snapshot_lag_)
      : publish_every(publish_every_ == 0 ? 1 : publish_every_),
        max_snapshot_lag(max_snapshot_lag_),
        snapshots(static_cast<std::size_t>(ranks)) {}

  const std::size_t publish_every;    ///< EngineConfig::publish_every
  const std::size_t max_snapshot_lag; ///< EngineConfig::max_snapshot_lag
  std::vector<SnapshotCell> snapshots;  ///< one cell per rank
  BatchFeed feed;
  /// Latest RC step the engine completed (rank 0 advances it in lockstep;
  /// response staleness = engine_step - snapshot step).
  std::atomic<std::size_t> engine_step{0};
  /// Latest estimator sample (rank 0 republishes it from the progress fold).
  PublishedPtr<const EstimatorSample> estimators;
  /// Recovery provenance, maintained by the supervising driver thread
  /// (rollback clears it — the replay resurrects every seat).
  std::atomic<bool> degraded{false};
  /// Query-side counters (bumped by QueryView, folded into the merged
  /// metrics registry as serve/queries at close).
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> stale_responses{0};
  /// Per-kind query latency histograms (nanoseconds), folded into the
  /// merged registry as serve/query_ns/{point,top_k,rank_of} at close.
  /// Lock-free so the query path never blocks (docs/OBSERVABILITY.md
  /// §Serve latency SLOs).
  LatencyHistogram query_ns_point;
  LatencyHistogram query_ns_top_k;
  LatencyHistogram query_ns_rank_of;
  /// Deterministic 1-in-64 query sampling: query index i is sampled when
  /// i % kSampleEvery == 0. Bounded buffer; oldest samples win (the cap
  /// drops the tail, keeping capture deterministic).
  static constexpr std::uint64_t kSampleEvery = 64;
  static constexpr std::size_t kMaxSamples = 256;
  std::mutex samples_mu;  ///< cold path: taken only for sampled queries
  std::vector<QuerySample> samples;
};

}  // namespace aacc::serve
