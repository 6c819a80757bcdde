// Chaos harness for the fault-injected runtime (docs/FAULTS.md): message
// faults must not change a single bit of the result, an injected crash with
// periodic checkpoints must recover to the fault-free answer, and a crash
// without checkpoints must complete degraded with an exact coverage report.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/shortest_paths.hpp"
#include "test_util.hpp"

namespace aacc {
namespace {

using test::expect_apsp_exact;
using test::grow_vertices;
using test::make_ba;
using test::make_er;

EngineConfig base_cfg(Rank P) {
  EngineConfig cfg;
  cfg.num_ranks = P;
  cfg.gather_apsp = true;
  // Keep chaos tests snappy: faulted frames retry almost immediately, and a
  // wedged run fails with TimeoutError instead of hitting the ctest timeout.
  cfg.transport.retry_backoff = std::chrono::microseconds(1);
  cfg.transport.recv_timeout = std::chrono::seconds(60);
  return cfg;
}

/// A dynamic schedule exercising adds, deletions, and growth.
EventSchedule mixed_schedule(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  EventSchedule sched;
  {
    EventBatch b;
    b.at_step = 1;
    VertexId fresh = g.num_vertices() / 2;
    while (fresh == 0 || g.has_edge(0, fresh)) ++fresh;
    b.events.push_back(EdgeAddEvent{0, fresh, 1});
    const auto edges = g.edges();
    const auto& [u, v, w] = edges[rng.next_below(edges.size())];
    (void)w;
    b.events.push_back(EdgeDeleteEvent{u, v});
    sched.push_back(std::move(b));
  }
  {
    EventBatch b;
    b.at_step = 3;
    Graph grown = g;
    for (const Event& e : sched[0].events) apply_event(grown, e);
    b.events = grow_vertices(grown, 6, 2, rng);
    sched.push_back(std::move(b));
  }
  return sched;
}

rt::FaultPlan message_faults(std::uint64_t seed) {
  rt::FaultPlan plan;
  plan.seed = seed;
  plan.drop = 0.08;
  plan.duplicate = 0.04;
  plan.delay = 0.08;
  plan.corrupt = 0.08;
  return plan;
}

// ------------------------------------------------------------- chaos fuzz

TEST(ChaosFuzz, MessageFaultsNeverChangeTheResult) {
  // Reliable delivery is exact: dropped/duplicated/delayed/corrupted frames
  // are repaired by the transport, so the converged state is bit-identical
  // to the fault-free run — same distances, same closeness doubles.
  const Graph g = make_er(140, 420, 11, WeightRange{1, 4});
  const EventSchedule sched = mixed_schedule(g, 21);
  const EngineConfig cfg = base_cfg(4);

  AnytimeEngine clean_engine(g, cfg);
  const RunResult clean = clean_engine.run(sched);

  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    EngineConfig chaos_cfg = cfg;
    chaos_cfg.faults = message_faults(seed);
    AnytimeEngine engine(g, chaos_cfg);
    const RunResult chaotic = engine.run(sched);

    EXPECT_EQ(chaotic.stats.rc_steps, clean.stats.rc_steps) << "seed " << seed;
    EXPECT_FALSE(chaotic.degraded);
    ASSERT_EQ(chaotic.closeness.size(), clean.closeness.size());
    for (VertexId v = 0; v < clean.closeness.size(); ++v) {
      ASSERT_EQ(chaotic.closeness[v], clean.closeness[v])
          << "seed " << seed << " vertex " << v;
    }
    EXPECT_EQ(chaotic.apsp, clean.apsp) << "seed " << seed;
  }
}

TEST(ChaosFuzz, FaultFreeRunPaysNothingForTheMachinery) {
  // Acceptance gate: with no faults configured the hardened build must be
  // byte-for-byte the PR 1 runtime — same traffic, same steps, no frames.
  const Graph g = make_ba(150, 2, 5);
  const EventSchedule sched = mixed_schedule(g, 9);
  const EngineConfig cfg = base_cfg(4);

  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(sched);
  EXPECT_EQ(r.stats.recoveries, 0u);
  EXPECT_FALSE(r.degraded);
  expect_apsp_exact(engine.graph(), r);
}

// --------------------------------------------------- checkpoint recovery

TEST(Recovery, CrashWithPeriodicCheckpointsIsBitIdentical) {
  const Graph g = make_er(130, 390, 13, WeightRange{1, 3});
  const EventSchedule sched = mixed_schedule(g, 31);
  const EngineConfig cfg = base_cfg(4);

  AnytimeEngine clean_engine(g, cfg);
  const RunResult clean = clean_engine.run(sched);
  ASSERT_GE(clean.stats.rc_steps, 4u);

  // Crash rank 1 mid-run *and* fault the wire during both the original
  // attempt and the replay; the supervisor rolls back to the newest common
  // snapshot and the replay converges to the identical answer.
  EngineConfig chaos_cfg = cfg;
  chaos_cfg.checkpoint_every = 2;
  chaos_cfg.faults = message_faults(404);
  chaos_cfg.faults.crashes.push_back({1, 3});

  AnytimeEngine engine(g, chaos_cfg);
  const RunResult recovered = engine.run(sched);

  EXPECT_EQ(recovered.stats.recoveries, 1u);
  EXPECT_FALSE(recovered.degraded);
  EXPECT_TRUE(recovered.lost_vertices.empty());
  ASSERT_EQ(recovered.closeness.size(), clean.closeness.size());
  for (VertexId v = 0; v < clean.closeness.size(); ++v) {
    ASSERT_EQ(recovered.closeness[v], clean.closeness[v]) << "vertex " << v;
  }
  EXPECT_EQ(recovered.apsp, clean.apsp);
  EXPECT_EQ(recovered.final_owner, clean.final_owner);
  expect_apsp_exact(engine.graph(), recovered);
}

TEST(Recovery, CrashBeforeAnySnapshotRestartsFromScratch) {
  // Rank 2 dies at the very first RC step, before any periodic snapshot
  // exists: the supervisor restarts the whole run (still bit-identical).
  const Graph g = make_ba(120, 2, 17);
  const EngineConfig cfg = base_cfg(3);

  AnytimeEngine clean_engine(g, cfg);
  const RunResult clean = clean_engine.run();

  EngineConfig chaos_cfg = cfg;
  chaos_cfg.checkpoint_every = 4;
  chaos_cfg.faults.crashes.push_back({2, 0});

  AnytimeEngine engine(g, chaos_cfg);
  const RunResult recovered = engine.run();
  EXPECT_EQ(recovered.stats.recoveries, 1u);
  EXPECT_EQ(recovered.apsp, clean.apsp);
}

TEST(Recovery, CrashAtEveryStepSweep) {
  // Kill a rank at every step of the run, one run per crash point: each
  // must recover (rollback or full restart) and converge to the fault-free
  // answer. This sweeps the checkpoint/rollback boundary conditions —
  // crash on a snapshot step, just after one, and on the final step.
  const Graph g = make_er(90, 270, 19, WeightRange{1, 3});
  const EventSchedule sched = mixed_schedule(g, 41);
  const EngineConfig cfg = base_cfg(3);

  AnytimeEngine clean_engine(g, cfg);
  const RunResult clean = clean_engine.run(sched);
  const std::size_t steps = clean.stats.rc_steps;
  ASSERT_GE(steps, 3u);

  for (std::size_t s = 0; s < steps; ++s) {
    EngineConfig chaos_cfg = cfg;
    chaos_cfg.checkpoint_every = 2;
    chaos_cfg.faults.crashes.push_back({1, s});

    AnytimeEngine engine(g, chaos_cfg);
    const RunResult recovered = engine.run(sched);
    EXPECT_EQ(recovered.stats.recoveries, 1u) << "crash at step " << s;
    EXPECT_EQ(recovered.apsp, clean.apsp) << "crash at step " << s;
  }
}

TEST(Recovery, RepeatedCrashesWithinTheBudget) {
  // Two distinct crash points in one run: the supervisor recovers twice.
  const Graph g = make_ba(110, 2, 23);
  const EventSchedule sched = mixed_schedule(g, 51);
  EngineConfig cfg = base_cfg(4);

  AnytimeEngine clean_engine(g, cfg);
  const RunResult clean = clean_engine.run(sched);
  ASSERT_GE(clean.stats.rc_steps, 4u);

  EngineConfig chaos_cfg = cfg;
  chaos_cfg.checkpoint_every = 1;
  chaos_cfg.faults.crashes.push_back({0, 2});
  chaos_cfg.faults.crashes.push_back({3, 3});

  AnytimeEngine engine(g, chaos_cfg);
  const RunResult recovered = engine.run(sched);
  EXPECT_EQ(recovered.stats.recoveries, 2u);
  EXPECT_EQ(recovered.apsp, clean.apsp);
}

TEST(Recovery, BudgetExhaustionSurfacesTheRootCause) {
  const Graph g = make_ba(80, 2, 29);
  EngineConfig cfg = base_cfg(3);
  cfg.checkpoint_every = 0;  // degraded path would fire, but...
  cfg.max_recoveries = 0;    // ...the budget forbids any relaunch
  cfg.faults.crashes.push_back({1, 1});

  AnytimeEngine engine(g, cfg);
  EXPECT_THROW((void)engine.run(), rt::InjectedCrash);
}

// ------------------------------------------------------ degraded fallback

TEST(Degraded, ReportsTheExactCoverageGapAndFinishes) {
  // No recovery checkpoints: rank 2's rows are lost for good. The run must
  // still terminate (no hang, no crash), flag itself degraded, and list
  // exactly the alive vertices whose closeness is unknown.
  const Graph g = make_er(120, 360, 37, WeightRange{1, 3});
  const EventSchedule sched = mixed_schedule(g, 61);
  const EngineConfig cfg = base_cfg(4);

  AnytimeEngine clean_engine(g, cfg);
  const RunResult clean = clean_engine.run(sched);

  EngineConfig chaos_cfg = cfg;
  chaos_cfg.checkpoint_every = 0;
  chaos_cfg.faults.crashes.push_back({2, 2});

  AnytimeEngine engine(g, chaos_cfg);
  const RunResult degraded = engine.run(sched);

  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.stats.recoveries, 1u);

  // The coverage gap is exactly the final ownership of the dead rank.
  std::vector<VertexId> expected;
  for (VertexId v = 0; v < degraded.final_owner.size(); ++v) {
    if (degraded.final_owner[v] == 2 && engine.graph().is_alive(v)) {
      expected.push_back(v);
    }
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(degraded.lost_vertices, expected);
  for (const VertexId v : degraded.lost_vertices) {
    EXPECT_EQ(degraded.closeness[v], 0.0);
  }

  // Survivors hold sound DVR state: distances are upper bounds of the true
  // ones (routes through the dead rank's territory may be lost, never
  // underestimated), so harmonic centrality is a lower bound.
  const auto ref = apsp_reference(engine.graph());
  std::size_t exact_entries = 0;
  for (VertexId u = 0; u < degraded.final_owner.size(); ++u) {
    if (degraded.final_owner[u] == 2) continue;
    for (VertexId v = 0; v < ref.size(); ++v) {
      if (u == v) continue;
      EXPECT_GE(degraded.apsp[u][v], ref[u][v])
          << "underestimate at (" << u << ',' << v << ')';
      exact_entries += degraded.apsp[u][v] == ref[u][v] ? 1 : 0;
    }
    EXPECT_LE(degraded.harmonic[u], clean.harmonic[u] + 1e-12);
  }
  // The anytime property: much of the surviving state still converges
  // exactly (a whole row is only exact when none of its shortest paths
  // route through the dead rank's territory, which is rare on dense ER).
  EXPECT_GT(exact_entries, ref.size());
}

TEST(Degraded, StaticRunLosesOnlyTheDeadRanksRows) {
  const Graph g = make_ba(100, 2, 43);
  EngineConfig cfg = base_cfg(3);
  cfg.faults.crashes.push_back({0, 1});  // rank 0 dies (also the broadcaster)

  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.degraded);
  ASSERT_FALSE(r.lost_vertices.empty());
  for (const VertexId v : r.lost_vertices) {
    EXPECT_EQ(r.final_owner[v], 0);
    EXPECT_EQ(r.closeness[v], 0.0);
  }
  // Survivor rows are intact and exact: the crash fired at a step
  // boundary, so no survivor state was torn.
  const auto ref = apsp_reference(engine.graph());
  for (VertexId u = 0; u < r.final_owner.size(); ++u) {
    if (r.final_owner[u] == 0) continue;
    for (VertexId v = 0; v < ref.size(); ++v) {
      if (u != v) {
        EXPECT_GE(r.apsp[u][v], ref[u][v]);
      }
    }
  }
}

}  // namespace
}  // namespace aacc
