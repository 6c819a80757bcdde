// Helpers of the wall-clock benchmark: a seeded generator, the workload
// inputs (graphs and change schedules, built against a working copy so
// every event is valid), the reference checker, the client's fixed-size
// latency histogram, exact quantiles of small sample sets, and the
// in-memory span recorder of traced runs.
//
// The inputs come from the benchmark's own generators, not the library's,
// so a change to src/graph cannot silently change the workloads.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/events.hpp"
#include "graph/graph.hpp"

namespace perfbench {

using aacc::Dist;
using aacc::Event;
using aacc::EventBatch;
using aacc::EventSchedule;
using aacc::Graph;
using aacc::VertexId;
using aacc::Weight;

// ---------------------------------------------------------------- seeding

/// SplitMix64: small, fast and identical on every platform.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound); bound > 0. The modulo bias is below 2^-40 for
  /// every bound used here.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream for one input of one workload.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  SeedRng r(seed * 0x100000001b3ULL + stream);
  return r.next();
}

// ---------------------------------------------------------------- graphs

/// Barabási–Albert preferential attachment: a clique of m + 1 vertices,
/// then each new vertex attaches to m distinct earlier vertices drawn in
/// proportion to degree (uniform draws from the endpoint list).
inline Graph ba_graph(VertexId n, unsigned m, std::uint64_t seed) {
  SeedRng rng(seed);
  Graph g(n);
  std::vector<VertexId> endpoints;
  endpoints.reserve(2ULL * m * n);
  const VertexId core = std::min<VertexId>(n, m + 1);
  for (VertexId u = 0; u < core; ++u) {
    for (VertexId v = u + 1; v < core; ++v) {
      g.add_edge(u, v, 1);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  std::vector<VertexId> picked;
  for (VertexId v = core; v < n; ++v) {
    picked.clear();
    while (picked.size() < m) {
      const VertexId u = endpoints[rng.below(endpoints.size())];
      if (std::find(picked.begin(), picked.end(), u) == picked.end()) {
        picked.push_back(u);
      }
    }
    for (const VertexId u : picked) {
      g.add_edge(v, u, 1);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  return g;
}

inline constexpr VertexId kCommunity = 32;  ///< vertices per community
inline constexpr VertexId kIsland = 128;    ///< 4 chained communities

/// Bounded-reach island graph: islands of kIsland consecutive ids, each a
/// chain of chorded communities, mutually unreachable. Every row holds at
/// most kIsland finite entries, so settled rows compress well in the cold
/// tier, and under block partitioning only the islands cut by a rank
/// boundary exchange anything.
inline Graph island_graph(VertexId n, std::uint64_t seed) {
  SeedRng rng(seed);
  Graph g(n);
  for (VertexId v = 1; v < n; ++v) {
    if (v % kIsland == 0) continue;
    g.add_edge(v, v - 1, 1);
    const VertexId cbase = v - (v % kCommunity);
    if (v % kCommunity >= 2) {
      const auto u =
          static_cast<VertexId>(cbase + rng.below(v - cbase - 1));
      if (!g.has_edge(v, u)) g.add_edge(v, u, 1);
    }
  }
  return g;
}

// ---------------------------------------------------------------- schedules

/// Undirected edge key with u < v.
inline std::pair<VertexId, VertexId> edge_key(VertexId a, VertexId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

/// Index into `live` of one edge from each of `k` equal strata of the
/// edges ordered by endpoint-degree product. The cost of a deletion is
/// heavy-tailed in how many shortest paths cross the edge, and a hub edge
/// carries far more than a leaf edge; stratifying gives every seed the same
/// mix of hub and leaf edges, so the repair work does not hinge on a few
/// lucky or unlucky draws.
inline std::vector<std::size_t> stratified_edges(
    const Graph& g, const std::vector<std::pair<VertexId, VertexId>>& live,
    std::size_t k, SeedRng& rng) {
  std::vector<std::size_t> order(live.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto cost = [&](std::size_t i) {
    return std::make_tuple(g.degree(live[i].first) * g.degree(live[i].second),
                           live[i].first, live[i].second);
  };
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return cost(a) < cost(b); });
  std::vector<std::size_t> picked;
  for (std::size_t s = 0; s < k; ++s) {
    const std::size_t lo = s * order.size() / k;
    const std::size_t hi = (s + 1) * order.size() / k;
    picked.push_back(order[lo + rng.below(hi - lo)]);
  }
  return picked;
}

/// Churn batches for the deletion path: each batch is half deletions of
/// existing edges, a quarter additions of absent edges and a quarter
/// weight changes, deletions and weight changes stratified by endpoint
/// degree (see stratified_edges). `work` is the working copy and ends as
/// the final graph; an edge is touched at most once per batch.
inline EventSchedule churn_schedule(Graph& work, std::size_t batches,
                                    std::size_t per_batch,
                                    std::size_t first_step,
                                    std::size_t step_stride,
                                    std::uint64_t seed) {
  SeedRng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> live;
  for (const auto& [u, v, w] : work.edges()) {
    (void)w;
    live.emplace_back(u, v);
  }
  const VertexId n = work.num_vertices();
  EventSchedule sched;
  for (std::size_t b = 0; b < batches; ++b) {
    EventBatch batch;
    batch.at_step = first_step + b * step_stride;
    const std::size_t dels = per_batch / 2;
    const std::size_t adds = per_batch / 4;
    const std::size_t changes = per_batch - dels - adds;
    // Strata are disjoint index ranges, so the deletions are distinct;
    // remove from the back so the swap-removal keeps earlier indices valid.
    std::vector<std::size_t> del = stratified_edges(work, live, dels, rng);
    std::sort(del.rbegin(), del.rend());
    for (const std::size_t at : del) {
      const auto e = live[at];
      live[at] = live.back();
      live.pop_back();
      work.remove_edge(e.first, e.second);
      batch.events.push_back(aacc::EdgeDeleteEvent{e.first, e.second});
    }
    std::vector<std::pair<VertexId, VertexId>> added;
    for (std::size_t i = 0; i < adds;) {
      const auto u = static_cast<VertexId>(rng.below(n));
      const auto v = static_cast<VertexId>(rng.below(n));
      if (u == v || work.has_edge(u, v)) continue;
      work.add_edge(u, v, 1);
      batch.events.push_back(aacc::EdgeAddEvent{u, v, 1});
      added.push_back(edge_key(u, v));
      ++i;
    }
    // Weight changes come from the edges that existed before the batch's
    // additions, so no edge is touched twice; the new weight differs from
    // the old one by construction.
    for (const std::size_t at : stratified_edges(work, live, changes, rng)) {
      const auto e = live[at];
      const Weight old = work.edge_weight(e.first, e.second);
      const auto w = static_cast<Weight>(1 + (old + rng.below(3)) % 4);
      work.set_weight(e.first, e.second, w);
      batch.events.push_back(aacc::WeightChangeEvent{e.first, e.second, w});
    }
    live.insert(live.end(), added.begin(), added.end());
    sched.push_back(std::move(batch));
  }
  return sched;
}

/// Localized batches for the tiered store: each toggles `per_batch`
/// chords inside one random community (delete when present, add when
/// absent), one batch per RC step from `first_step` on. A batch dirties
/// one island's rows, so almost every row stays settled and cold. Chain
/// edges (ids one apart) are never toggled: the chain keeps every island
/// connected, so the repair work per batch does not hinge on whether the
/// seed happens to cut a community in two.
inline EventSchedule island_schedule(Graph& work, std::size_t batches,
                                     std::size_t per_batch,
                                     std::size_t first_step,
                                     std::uint64_t seed) {
  SeedRng rng(seed);
  const VertexId communities = work.num_vertices() / kCommunity;
  EventSchedule sched;
  for (std::size_t b = 0; b < batches; ++b) {
    EventBatch batch;
    batch.at_step = first_step + b;
    const VertexId base =
        static_cast<VertexId>(rng.below(communities)) * kCommunity;
    std::vector<std::pair<VertexId, VertexId>> touched;
    while (batch.events.size() < per_batch) {
      const auto u = static_cast<VertexId>(base + rng.below(kCommunity));
      const auto v = static_cast<VertexId>(base + rng.below(kCommunity));
      if (u == v || u == v + 1 || v == u + 1) continue;
      const auto e = edge_key(u, v);
      if (std::find(touched.begin(), touched.end(), e) != touched.end()) {
        continue;
      }
      touched.push_back(e);
      if (work.has_edge(u, v)) {
        work.remove_edge(u, v);
        batch.events.push_back(aacc::EdgeDeleteEvent{e.first, e.second});
      } else {
        work.add_edge(u, v, 1);
        batch.events.push_back(aacc::EdgeAddEvent{e.first, e.second, 1});
      }
    }
    sched.push_back(std::move(batch));
  }
  return sched;
}

/// One live-feed batch: a new vertex (id = current |V|) attached to two
/// random vertices, plus `extra_edges` random absent edges among all
/// vertices. Additions only, so the backlog cannot outgrow the feed.
inline std::vector<Event> growth_batch(Graph& work, std::size_t extra_edges,
                                       SeedRng& rng) {
  std::vector<Event> batch;
  const VertexId id = work.num_vertices();
  aacc::VertexAddEvent add{id, {}};
  while (add.edges.size() < 2) {
    const auto u = static_cast<VertexId>(rng.below(id));
    const bool dup = std::any_of(add.edges.begin(), add.edges.end(),
                                 [u](const auto& e) { return e.first == u; });
    if (!dup) add.edges.emplace_back(u, 1);
  }
  work.add_vertex();
  for (const auto& [u, w] : add.edges) work.add_edge(id, u, w);
  batch.emplace_back(std::move(add));
  const VertexId n = work.num_vertices();
  while (batch.size() < 1 + extra_edges) {
    const auto u = static_cast<VertexId>(rng.below(n));
    const auto v = static_cast<VertexId>(rng.below(n));
    if (u == v || work.has_edge(u, v)) continue;
    work.add_edge(u, v, 1);
    batch.emplace_back(aacc::EdgeAddEvent{u, v, 1});
  }
  return batch;
}

/// `k` distinct alive vertices, ascending.
inline std::vector<VertexId> sample_vertices(const Graph& g, std::size_t k,
                                             std::uint64_t seed) {
  std::vector<VertexId> alive = g.alive_vertices();
  SeedRng rng(seed);
  k = std::min(k, alive.size());
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(alive[i], alive[i + rng.below(alive.size() - i)]);
  }
  alive.resize(k);
  std::sort(alive.begin(), alive.end());
  return alive;
}

// ---------------------------------------------------------------- reference

/// Exact closeness of `src` (1 / Σ finite distances, 0 when nothing is
/// reachable) by binary-heap Dijkstra; the same integer sum the engine
/// keeps, so the doubles compare bit for bit.
inline double reference_closeness(const Graph& g, VertexId src) {
  constexpr Dist kInf = std::numeric_limits<Dist>::max();
  std::vector<Dist> dist(g.num_vertices(), kInf);
  using Item = std::pair<Dist, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[src] = 0;
  heap.emplace(0, src);
  std::uint64_t sum = 0;
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d != dist[u]) continue;
    sum += d;
    for (const aacc::Edge& e : g.neighbors(u)) {
      const Dist nd = d + e.w;
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        heap.emplace(nd, e.to);
      }
    }
  }
  return sum == 0 ? 0.0 : 1.0 / static_cast<double>(sum);
}

// ---------------------------------------------------------------- statistics

/// Quantile of a small sample set by linear interpolation between order
/// statistics (q in [0, 1]); 0 for an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Fixed-size latency histogram: exact below 64, then 32 log-linear
/// sub-buckets per power of two (relative bucket width <= 1/32). Memory
/// stays constant however many samples a run records.
class LatencyLog {
 public:
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kSub = 1ULL << kSubBits;
  static constexpr std::uint64_t kExact = 2 * kSub;
  static constexpr std::size_t kBuckets =
      kExact + (64 - (kSubBits + 1)) * kSub;

  void record(std::uint64_t v) {
    ++buckets_[index(v)];
    ++count_;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// q-quantile, interpolated linearly inside the bucket holding the
  /// sample of rank q * (count - 1) and clamped to the exact min and max.
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_ - 1);
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = buckets_[i];
      if (c == 0) continue;
      if (static_cast<double>(before + c) > rank) {
        const auto [lo, hi] = bounds(i);
        const double frac =
            (rank - static_cast<double>(before) + 0.5) / static_cast<double>(c);
        const double v = static_cast<double>(lo) +
                         frac * static_cast<double>(hi - lo);
        return std::clamp(v, static_cast<double>(min_),
                          static_cast<double>(max_));
      }
      before += c;
    }
    return static_cast<double>(max_);
  }

  static std::size_t index(std::uint64_t v) {
    if (v < kExact) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - 1;  // >= kSubBits + 1
    const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;
    return static_cast<std::size_t>(
        kExact + static_cast<std::uint64_t>(e - (kSubBits + 1)) * kSub + sub);
  }

  /// [lo, hi) of bucket i.
  static std::pair<std::uint64_t, std::uint64_t> bounds(std::size_t i) {
    if (i < kExact) return {i, i + 1};
    const std::size_t k = i - kExact;
    const int shift = static_cast<int>(k / kSub) + 1;
    const std::uint64_t sub = kSub + k % kSub;
    return {sub << shift, (sub + 1) << shift};
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

// ---------------------------------------------------------------- tracing

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder for one thread. Disabled, begin() is one
/// branch; enabled, spans go into a buffer reserved up front (spans past
/// the capacity are counted and dropped) and are written out at the end.
class Tracer {
 public:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< index of the enclosing span, -1 for a root
  };

  Tracer(bool enabled, std::size_t capacity)
      : enabled_(enabled), capacity_(enabled ? capacity : 0) {
    spans_.reserve(capacity_);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  int begin(const char* name) {
    if (!enabled_) return -1;
    if (spans_.size() == capacity_) {
      ++dropped_;
      return -1;
    }
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Record{name, now_ns(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void end(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Record>& spans() const { return spans_; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// Per span name: (Σ self seconds, occurrences). Self time is a span's
  /// duration minus the part its direct children cover.
  [[nodiscard]] std::map<std::string, std::pair<double, std::size_t>>
  self_seconds() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Record& r : spans_) {
      if (r.parent >= 0) {
        child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
      }
    }
    std::map<std::string, std::pair<double, std::size_t>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      auto& slot = out[r.name];
      slot.first += 1e-9 * static_cast<double>(r.end_ns - r.start_ns -
                                               child_ns[i]);
      ++slot.second;
    }
    return out;
  }

  /// Chrome trace "complete" events for thread `tid` (comma-separated,
  /// no enclosing brackets).
  void write_chrome(std::ostream& os, int tid, bool& first) const {
    for (const Record& r : spans_) {
      os << (first ? "" : ",\n") << "{\"name\":\"" << r.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
         << ",\"ts\":" << static_cast<double>(r.start_ns) / 1e3
         << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
         << '}';
      first = false;
    }
  }

 private:
  bool enabled_;
  std::size_t capacity_;
  std::vector<Record> spans_;
  std::vector<int> open_;
  std::size_t dropped_ = 0;
};

/// Scoped span on one thread's tracer.
class Span {
 public:
  Span(Tracer& t, const char* name) : t_(t), idx_(t.begin(name)) {}
  ~Span() { t_.end(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

/// Peak resident set of this process so far, in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
