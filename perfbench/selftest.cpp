// Tests of the benchmark's own helpers: generator validity, seed
// determinism of every input, and the quantile / histogram / span math.
// Run with `python3 perfbench/run.py --selftest`; exits non-zero on the
// first failed check.
#include <cmath>
#include <cstdio>
#include <set>
#include <variant>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;

int failures = 0;

#define EXPECT(cond)                                               \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                               \
      ++failures;                                                  \
    }                                                              \
  } while (0)

bool same_graph(const Graph& a, const Graph& b) {
  return a.num_vertices() == b.num_vertices() && a.edges() == b.edges();
}

/// Replays a schedule on a copy with the graph's own precondition checks
/// (a duplicate add or missing delete aborts) and compares the result to
/// the generator's working copy.
bool schedule_replays_to(const Graph& initial, const EventSchedule& sched,
                         const Graph& final_graph) {
  Graph g = initial;
  std::size_t last_step = 0;
  for (const EventBatch& b : sched) {
    if (b.at_step < last_step) return false;
    last_step = b.at_step;
    aacc::apply_schedule(g, EventSchedule{b});
  }
  return same_graph(g, final_graph);
}

void test_ba_graph() {
  const Graph g = ba_graph(500, 3, 7);
  EXPECT(g.num_vertices() == 500);
  // Clique of 4 (6 edges) plus 3 edges for each later vertex.
  EXPECT(g.num_edges() == 6 + 3 * (500 - 4));
  for (VertexId v = 0; v < g.num_vertices(); ++v) EXPECT(g.degree(v) >= 3);
  EXPECT(same_graph(g, ba_graph(500, 3, 7)));
  EXPECT(!same_graph(g, ba_graph(500, 3, 8)));
}

void test_island_graph() {
  const Graph g = island_graph(4 * kIsland, 3);
  for (const auto& [u, v, w] : g.edges()) {
    EXPECT(u / kIsland == v / kIsland);  // islands never connect
    EXPECT(w == 1);
  }
  EXPECT(same_graph(g, island_graph(4 * kIsland, 3)));
}

void test_churn_schedule() {
  const Graph g = ba_graph(400, 3, 11);
  Graph work = g;
  const EventSchedule s = churn_schedule(work, 6, 48, 2, 2, 5);
  EXPECT(s.size() == 6);
  std::size_t dels = 0, adds = 0, changes = 0;
  for (std::size_t b = 0; b < s.size(); ++b) {
    EXPECT(s[b].at_step == 2 + 2 * b);
    EXPECT(s[b].events.size() == 48);
    std::set<std::pair<VertexId, VertexId>> touched;
    for (const aacc::Event& e : s[b].events) {
      std::visit(
          [&](const auto& ev) {
            using T = std::decay_t<decltype(ev)>;
            if constexpr (std::is_same_v<T, aacc::EdgeDeleteEvent>) ++dels;
            if constexpr (std::is_same_v<T, aacc::EdgeAddEvent>) ++adds;
            if constexpr (std::is_same_v<T, aacc::WeightChangeEvent>) {
              ++changes;
            }
            if constexpr (!std::is_same_v<T, aacc::VertexAddEvent> &&
                          !std::is_same_v<T, aacc::VertexDeleteEvent>) {
              EXPECT(touched.insert(edge_key(ev.u, ev.v)).second);
            }
          },
          e);
    }
  }
  EXPECT(dels == 6 * 24 && adds == 6 * 12 && changes == 6 * 12);
  EXPECT(schedule_replays_to(g, s, work));

  Graph again = g;
  (void)churn_schedule(again, 6, 48, 2, 2, 5);
  EXPECT(same_graph(again, work));
}

void test_island_schedule() {
  const Graph g = island_graph(64 * kCommunity, 4);
  Graph work = g;
  const EventSchedule s = island_schedule(work, 32, 4, 4, 9);
  EXPECT(s.size() == 32);
  for (std::size_t b = 0; b < s.size(); ++b) {
    EXPECT(s[b].at_step == 4 + b);
    EXPECT(s[b].events.size() == 4);
  }
  EXPECT(schedule_replays_to(g, s, work));
  Graph again = g;
  (void)island_schedule(again, 32, 4, 4, 9);
  EXPECT(same_graph(again, work));
}

void test_growth_batches() {
  const Graph g = ba_graph(300, 2, 1);
  Graph work = g;
  SeedRng rng(21);
  EventSchedule s;
  for (std::size_t b = 0; b < 20; ++b) {
    s.push_back(EventBatch{b, growth_batch(work, 8, rng)});
    EXPECT(s.back().events.size() == 9);
    const auto* add = std::get_if<aacc::VertexAddEvent>(&s.back().events[0]);
    EXPECT(add != nullptr && add->id == 300 + b);
  }
  EXPECT(work.num_vertices() == 320);
  EXPECT(schedule_replays_to(g, s, work));
  Graph again = g;
  SeedRng rng2(21);
  for (std::size_t b = 0; b < 20; ++b) (void)growth_batch(again, 8, rng2);
  EXPECT(same_graph(again, work));
}

void test_reference_closeness() {
  // Path 0 -1- 1 -2- 2 and an isolated vertex 3.
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  EXPECT(reference_closeness(g, 0) == 1.0 / (1 + 3));
  EXPECT(reference_closeness(g, 1) == 1.0 / (1 + 2));
  EXPECT(reference_closeness(g, 3) == 0.0);
}

void test_sample_vertices() {
  Graph g(50);
  g.remove_vertex(7);
  const auto s = sample_vertices(g, 20, 3);
  EXPECT(s.size() == 20);
  EXPECT(std::set<VertexId>(s.begin(), s.end()).size() == 20);
  for (const VertexId v : s) EXPECT(v != 7);
  EXPECT(s == sample_vertices(g, 20, 3));
  EXPECT(sample_vertices(g, 100, 3).size() == 49);
}

void test_quantile() {
  EXPECT(quantile({}, 0.5) == 0.0);
  EXPECT(quantile({3.0}, 0.99) == 3.0);
  EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  EXPECT(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25) == 2.0);
  EXPECT(std::abs(quantile({0.0, 10.0}, 0.9) - 9.0) < 1e-12);
}

void test_latency_log() {
  // Bucket bounds tile the value range and index() inverts them.
  for (std::size_t i = 0; i + 1 < LatencyLog::kBuckets - LatencyLog::kSub;
       ++i) {
    const auto [lo, hi] = LatencyLog::bounds(i);
    EXPECT(LatencyLog::bounds(i + 1).first == hi);
    EXPECT(LatencyLog::index(lo) == i);
    EXPECT(LatencyLog::index(hi - 1) == i);
    if (i >= LatencyLog::kExact) {
      EXPECT(static_cast<double>(hi - lo) / static_cast<double>(lo) <=
             1.0 / LatencyLog::kSub + 1e-12);
    }
  }
  // Small values are exact.
  LatencyLog small;
  for (std::uint64_t v = 0; v < 10; ++v) small.record(v);
  EXPECT(small.count() == 10);
  EXPECT(std::abs(small.quantile(0.5) - 4.5) <= 0.5);
  EXPECT(small.quantile(1.0) == 9.0);

  // Wide distribution: within one bucket width of the exact quantile.
  LatencyLog h;
  std::vector<double> exact;
  SeedRng rng(5);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = 200 + rng.below(1000000) * rng.below(8);
    h.record(v);
    exact.push_back(static_cast<double>(v));
  }
  for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    const double want = quantile(exact, q);
    EXPECT(std::abs(h.quantile(q) - want) <= want / LatencyLog::kSub + 1.0);
  }
}

void test_tracer_self_time() {
  Tracer t(true, 8);
  const int root = t.begin("root");
  const int child = t.begin("child");
  t.end(child);
  t.end(root);
  auto self = t.self_seconds();
  const auto& spans = t.spans();
  const double root_total =
      1e-9 * static_cast<double>(spans[0].end_ns - spans[0].start_ns);
  const double child_total =
      1e-9 * static_cast<double>(spans[1].end_ns - spans[1].start_ns);
  EXPECT(spans[1].parent == 0);
  EXPECT(self["child"].second == 1);
  EXPECT(std::abs(self["child"].first - child_total) < 1e-12);
  EXPECT(std::abs(self["root"].first - (root_total - child_total)) < 1e-12);

  Tracer off(false, 8);
  EXPECT(off.begin("x") == -1);
  EXPECT(off.spans().empty());

  Tracer tiny(true, 1);
  tiny.end(tiny.begin("a"));
  EXPECT(tiny.begin("b") == -1);
  EXPECT(tiny.dropped() == 1);
}

}  // namespace

int main() {
  test_ba_graph();
  test_island_graph();
  test_churn_schedule();
  test_island_schedule();
  test_growth_batches();
  test_reference_closeness();
  test_sample_vertices();
  test_quantile();
  test_latency_log();
  test_tracer_self_time();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
