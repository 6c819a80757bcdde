// Path reconstruction from the gathered next-hop tables: every chain must
// realize exactly the reported distance using real edges — including after
// dynamic changes rewired the routes.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace aacc {
namespace {

using test::expect_paths_realize_distances;
using test::make_ba;
using test::make_er;

TEST(PathReconstruction, StaticWeightedGraph) {
  const Graph g = make_er(120, 360, 3, WeightRange{1, 7});
  EngineConfig cfg;
  cfg.num_ranks = 5;
  cfg.gather_apsp = true;
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  expect_paths_realize_distances(g, r, 7);
}

TEST(PathReconstruction, AfterDynamicChanges) {
  const Graph g = make_ba(100, 2, 4);
  Rng rng(5);
  EventSchedule sched;
  EventBatch batch;
  batch.at_step = 1;
  Graph cursor = g;
  for (int i = 0; i < 8; ++i) {
    const auto edges = cursor.edges();
    const auto& [u, v, w] = edges[rng.next_below(edges.size())];
    (void)w;
    cursor.remove_edge(u, v);
    batch.events.emplace_back(EdgeDeleteEvent{u, v});
  }
  for (const Event& e : test::grow_vertices(cursor, 10, 2, rng)) {
    apply_event(cursor, e);
    batch.events.push_back(e);
  }
  sched.push_back(std::move(batch));

  EngineConfig cfg;
  cfg.num_ranks = 6;
  cfg.gather_apsp = true;
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(sched);
  expect_paths_realize_distances(cursor, r, 5);
}

TEST(PathReconstruction, SelfPathAndUnreachable) {
  Graph g(3);
  g.add_edge(0, 1, 2);
  EngineConfig cfg;
  cfg.num_ranks = 2;
  cfg.gather_apsp = true;
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  EXPECT_EQ(reconstruct_path(r, 1, 1), std::vector<VertexId>{1});
  EXPECT_TRUE(reconstruct_path(r, 0, 2).empty());
  EXPECT_EQ(reconstruct_path(r, 0, 1), (std::vector<VertexId>{0, 1}));
}

TEST(PathReconstruction, RequiresGatheredApsp) {
  Graph g(2);
  g.add_edge(0, 1);
  EngineConfig cfg;
  cfg.num_ranks = 1;
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  EXPECT_THROW((void)reconstruct_path(r, 0, 1), std::logic_error);
}

}  // namespace
}  // namespace aacc
