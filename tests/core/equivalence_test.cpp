// Strong cross-configuration properties: the converged result must be
// independent of the processor count, the DD partitioner, the assignment
// strategy, and the edge-addition mode — every configuration solves the
// same problem.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace aacc {
namespace {

using test::grow_vertices;
using test::make_ba;
using test::make_er;

RunResult run_cfg(const Graph& g, const EventSchedule& sched, EngineConfig cfg) {
  cfg.gather_apsp = true;
  AnytimeEngine engine(g, cfg);
  return engine.run(sched);
}

EventSchedule mixed_schedule(const Graph& g, std::uint64_t seed, Graph* truth) {
  Rng rng(seed);
  *truth = g;
  EventSchedule sched;
  EventBatch batch;
  batch.at_step = 1;
  for (const Event& e : grow_vertices(*truth, 12, 2, rng)) {
    apply_event(*truth, e);
    batch.events.push_back(e);
  }
  for (int i = 0; i < 6; ++i) {
    const auto edges = truth->edges();
    const auto& [u, v, w] = edges[rng.next_below(edges.size())];
    (void)w;
    truth->remove_edge(u, v);
    batch.events.emplace_back(EdgeDeleteEvent{u, v});
  }
  sched.push_back(std::move(batch));
  return sched;
}

TEST(Equivalence, RankCountDoesNotChangeTheAnswer) {
  const Graph g = make_er(140, 420, 51, WeightRange{1, 5});
  Graph truth;
  const auto sched = mixed_schedule(g, 1, &truth);

  EngineConfig base;
  base.num_ranks = 1;
  const RunResult ref = run_cfg(g, sched, base);
  test::expect_apsp_exact(truth, ref);

  for (const Rank p : {2, 3, 5, 8, 13}) {
    EngineConfig cfg;
    cfg.num_ranks = p;
    const RunResult r = run_cfg(g, sched, cfg);
    for (VertexId u = 0; u < truth.num_vertices(); ++u) {
      ASSERT_EQ(r.apsp[u], ref.apsp[u]) << "P=" << p << " row " << u;
    }
  }
}

TEST(Equivalence, PartitionerDoesNotChangeTheAnswer) {
  const Graph g = make_ba(150, 2, 52);
  Graph truth;
  const auto sched = mixed_schedule(g, 2, &truth);
  for (const PartitionerKind kind :
       {PartitionerKind::kMultilevel, PartitionerKind::kHash,
        PartitionerKind::kBlock, PartitionerKind::kBfs}) {
    EngineConfig cfg;
    cfg.num_ranks = 6;
    cfg.dd_partitioner = kind;
    const RunResult r = run_cfg(g, sched, cfg);
    test::expect_apsp_exact(truth, r);
  }
}

TEST(Equivalence, AssignmentStrategyDoesNotChangeTheAnswer) {
  const Graph g = make_ba(150, 2, 53);
  Graph truth;
  const auto sched = mixed_schedule(g, 3, &truth);
  for (const AssignStrategy strat :
       {AssignStrategy::kRoundRobin, AssignStrategy::kCutEdge,
        AssignStrategy::kRepartition}) {
    EngineConfig cfg;
    cfg.num_ranks = 6;
    cfg.assign = strat;
    const RunResult r = run_cfg(g, sched, cfg);
    test::expect_apsp_exact(truth, r);
  }
}

TEST(Equivalence, EagerAndSeededAgreeOnWeightedDynamicRuns) {
  const Graph g = make_er(120, 360, 54, WeightRange{1, 7});
  Rng rng(4);
  EventSchedule sched;
  Graph truth = g;
  EventBatch batch;
  batch.at_step = 2;
  for (const Event& e : grow_vertices(truth, 15, 3, rng)) {
    apply_event(truth, e);
    batch.events.push_back(e);
  }
  sched.push_back(std::move(batch));

  for (const EdgeAddMode mode : {EdgeAddMode::kSeeded, EdgeAddMode::kEager}) {
    EngineConfig cfg;
    cfg.num_ranks = 5;
    cfg.add_mode = mode;
    const RunResult r = run_cfg(g, sched, cfg);
    test::expect_apsp_exact(truth, r);
  }
}

TEST(Equivalence, IaThreadCountDoesNotChangeTheAnswer) {
  // The parallel IA sweep must be bit-identical to the serial one: rows are
  // disjoint per worker and dirty counters merge in row order, so closeness,
  // APSP, step counts, and even the communication ledger must all match.
  const Graph g = make_er(140, 420, 56, WeightRange{1, 5});
  Graph truth;
  const auto sched = mixed_schedule(g, 6, &truth);

  EngineConfig serial;
  serial.num_ranks = 4;
  serial.ia_threads = 1;
  const RunResult ref = run_cfg(g, sched, serial);
  test::expect_apsp_exact(truth, ref);

  for (const std::size_t t : {2, 4, 7}) {
    EngineConfig cfg;
    cfg.num_ranks = 4;
    cfg.ia_threads = t;
    cfg.validate_each_step = true;
    const RunResult r = run_cfg(g, sched, cfg);
    EXPECT_EQ(r.stats.invariant_violations, 0u) << "ia_threads=" << t;
    EXPECT_EQ(r.closeness, ref.closeness) << "ia_threads=" << t;
    EXPECT_EQ(r.stats.rc_steps, ref.stats.rc_steps) << "ia_threads=" << t;
    EXPECT_EQ(r.stats.total_bytes, ref.stats.total_bytes)
        << "ia_threads=" << t;
    for (VertexId u = 0; u < truth.num_vertices(); ++u) {
      ASSERT_EQ(r.apsp[u], ref.apsp[u]) << "ia_threads=" << t << " row " << u;
    }
  }
}

TEST(Equivalence, DeterministicAcrossRepeatedRuns) {
  const Graph g = make_ba(130, 2, 55);
  Graph truth;
  const auto sched = mixed_schedule(g, 5, &truth);
  EngineConfig cfg;
  cfg.num_ranks = 7;
  const RunResult a = run_cfg(g, sched, cfg);
  const RunResult b = run_cfg(g, sched, cfg);
  EXPECT_EQ(a.closeness, b.closeness);
  EXPECT_EQ(a.final_owner, b.final_owner);
  EXPECT_EQ(a.stats.rc_steps, b.stats.rc_steps);
  // Communication is deterministic too (fixed seeds, fixed schedule), and
  // so are next-hop tie-breaks: peers' payloads are applied in rank order
  // after the blocking exchange, never in arrival order.
  EXPECT_EQ(a.stats.total_bytes, b.stats.total_bytes);
  EXPECT_EQ(a.stats.total_messages, b.stats.total_messages);
  ASSERT_EQ(a.first_hop.size(), b.first_hop.size());
  for (VertexId u = 0; u < a.first_hop.size(); ++u) {
    ASSERT_EQ(a.first_hop[u], b.first_hop[u]) << "row " << u;
  }
}

}  // namespace
}  // namespace aacc
