// Integration: static runs of the full DD+IA+RC pipeline must reproduce the
// sequential reference APSP and closeness exactly.
#include <gtest/gtest.h>

#include "analysis/closeness.hpp"
#include "test_util.hpp"

namespace aacc {
namespace {

using test::expect_apsp_exact;
using test::make_ba;
using test::make_er;

EngineConfig base_cfg(Rank P) {
  EngineConfig cfg;
  cfg.num_ranks = P;
  cfg.gather_apsp = true;
  return cfg;
}

TEST(EngineStatic, TinyPathGraph) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.add_edge(2, 3, 3);
  AnytimeEngine engine(g, base_cfg(2));
  const RunResult r = engine.run();
  expect_apsp_exact(g, r);
  EXPECT_DOUBLE_EQ(r.closeness[0], 1.0 / (1 + 3 + 6));
  EXPECT_DOUBLE_EQ(r.closeness[1], 1.0 / (1 + 2 + 5));
}

TEST(EngineStatic, SingleRankMatchesReference) {
  const Graph g = make_ba(120, 2, 7);
  AnytimeEngine engine(g, base_cfg(1));
  const RunResult r = engine.run();
  expect_apsp_exact(g, r);
}

TEST(EngineStatic, ScaleFreeUnweighted) {
  const Graph g = make_ba(300, 2, 42);
  AnytimeEngine engine(g, base_cfg(8));
  const RunResult r = engine.run();
  expect_apsp_exact(g, r);
  const auto exact = closeness_exact(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(r.closeness[v], exact[v], 1e-12) << "vertex " << v;
  }
}

TEST(EngineStatic, WeightedGraph) {
  const Graph g = make_er(200, 600, 9, WeightRange{1, 9});
  AnytimeEngine engine(g, base_cfg(5));
  const RunResult r = engine.run();
  expect_apsp_exact(g, r);
}

TEST(EngineStatic, DisconnectedGraph) {
  Rng rng(3);
  Graph g = erdos_renyi(150, 260, rng);  // likely several components
  AnytimeEngine engine(g, base_cfg(4));
  const RunResult r = engine.run();
  expect_apsp_exact(g, r);
}

TEST(EngineStatic, RcStepsBoundedByRanksForStaticRuns) {
  const Graph g = make_ba(200, 2, 5);
  EngineConfig cfg = base_cfg(8);
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  // Static convergence needs at most P-1 information hops plus the final
  // empty round that detects quiescence.
  EXPECT_LE(r.stats.rc_steps, static_cast<std::size_t>(cfg.num_ranks) + 1);
}

// The drain takes a popped row's queued columns from its queue list while
// at most n/64 are queued and by a flag scan past that. At n = 2000 the cap
// is 31, so both forms occur: 5,745 of this run's 14,508 pops take the list
// and 8,763 scan (at n = 100, as in RebuildPaths.LedgersArePinned, the cap
// is 1 and nearly every pop scans). A relaxation kernel that changes
// which entries improve, or their order, moves these counts.
TEST(RowKernel, StaticLedgerIsPinned) {
  const Graph g = make_ba(2000, 2, 17);
  AnytimeEngine engine(g, base_cfg(4));
  const RunResult r = engine.run();
  expect_apsp_exact(g, r);
  std::uint64_t relaxations = 0;
  for (const StepStats& s : r.stats.steps) relaxations += s.relaxations;
  EXPECT_EQ(relaxations, 5497244u);
  EXPECT_EQ(r.stats.rc_steps, 6u);
  EXPECT_EQ(r.stats.total_messages, 150u);
  EXPECT_EQ(r.stats.total_bytes, 10922605u);
}

}  // namespace
}  // namespace aacc
