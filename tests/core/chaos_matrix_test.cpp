// Chaos matrix for the recovery-policy ladder (docs/FAULTS.md §Recovery
// policy ladder): {crash early / mid / late} × {rollback / degrade}, each
// also exercised with a mid-exchange death. Rollback must converge to the
// fault-free values with nothing lost; degrade must account for the
// coverage gap exactly. The ladder tests cover fall-through, budgets and
// exhaustion.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "test_util.hpp"

namespace aacc {
namespace {

using test::grow_vertices;
using test::make_er;

EngineConfig matrix_cfg(Rank P) {
  EngineConfig cfg;
  cfg.num_ranks = P;
  // Keep chaos runs snappy; a wedged run fails on the recv watchdog instead
  // of the ctest timeout.
  cfg.transport.retry_backoff = std::chrono::microseconds(1);
  cfg.transport.recv_timeout = std::chrono::seconds(60);
  return cfg;
}

/// Adds, deletions, a weight change and growth: every structural fact a
/// recovery must reproduce.
EventSchedule matrix_schedule(const Graph& g, std::uint64_t seed) {
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
    const auto edges = grown.edges();
    const auto& [u, v, w] = edges[rng.next_below(edges.size())];
    b.events.push_back(WeightChangeEvent{u, v, static_cast<Weight>(w + 2)});
    b.events.push_back(EdgeDeleteEvent{std::get<0>(edges[0]),
                                       std::get<1>(edges[0])});
    auto growth = grow_vertices(grown, 5, 2, rng);
    b.events.insert(b.events.end(), growth.begin(), growth.end());
    sched.push_back(std::move(b));
  }
  return sched;
}

const char* kind_of(RecoveryPolicy p) {
  switch (p) {
    case RecoveryPolicy::kRollback: return "rollback";
    case RecoveryPolicy::kDegrade: return "degraded";
  }
  return "?";
}

std::vector<VertexId> lost_of(const Graph& truth, const RunResult& r,
                              Rank dead) {
  std::vector<VertexId> expected;
  for (VertexId v = 0; v < r.final_owner.size(); ++v) {
    if (r.final_owner[v] == dead && truth.is_alive(v)) expected.push_back(v);
  }
  return expected;
}

// ------------------------------------------------------------ the matrix

TEST(ChaosMatrix, EveryPolicyEveryCrashWindow) {
  const Graph g = make_er(100, 300, 7, WeightRange{1, 3});
  const EventSchedule sched = matrix_schedule(g, 5);
  const Rank victim = 1;

  const EngineConfig cfg = matrix_cfg(4);
  AnytimeEngine clean_engine(g, cfg);
  const RunResult clean = clean_engine.run(sched);
  const std::size_t steps = clean.stats.rc_steps;
  ASSERT_GE(steps, 5u);
  // Crash early (first step a snapshot can precede), mid, and late.
  const std::size_t crash_steps[] = {1, steps / 2, steps - 1};

  for (const RecoveryPolicy policy :
       {RecoveryPolicy::kRollback, RecoveryPolicy::kDegrade}) {
    for (const std::size_t s : crash_steps) {
      for (const rt::CrashPhase phase :
           {rt::CrashPhase::kStepStart, rt::CrashPhase::kMidExchange}) {
        const std::string ctx =
            std::string("policy ") + kind_of(policy) + " step " +
            std::to_string(s) +
            (phase == rt::CrashPhase::kMidExchange ? " mid-exchange" : "");
        EngineConfig ccfg = cfg;
        ccfg.recovery_policy = {{policy, 0}};
        if (policy != RecoveryPolicy::kDegrade) ccfg.checkpoint_every = 1;
        ccfg.faults.crashes.push_back({victim, s, phase});

        AnytimeEngine engine(g, ccfg);
        RunResult r;
        try {
          r = engine.run(sched);
        } catch (const std::exception& e) {
          ADD_FAILURE() << ctx << ": run threw: " << e.what();
          continue;
        }

        EXPECT_EQ(r.stats.recoveries, 1u) << ctx;
        ASSERT_EQ(r.stats.recovery_log.size(), 1u) << ctx;
        EXPECT_EQ(r.stats.recovery_log[0].kind, kind_of(policy)) << ctx;
        EXPECT_GT(r.stats.recovery_log[0].mttr_seconds, 0.0) << ctx;

        if (policy == RecoveryPolicy::kDegrade) {
          EXPECT_TRUE(r.degraded) << ctx;
          EXPECT_EQ(r.lost_vertices, lost_of(engine.graph(), r, victim))
              << ctx;
          EXPECT_FALSE(r.lost_vertices.empty()) << ctx;
        } else {
          EXPECT_FALSE(r.degraded) << ctx;
          EXPECT_TRUE(r.lost_vertices.empty()) << ctx;
          ASSERT_EQ(r.closeness.size(), clean.closeness.size()) << ctx;
          for (VertexId v = 0; v < clean.closeness.size(); ++v) {
            ASSERT_EQ(r.closeness[v], clean.closeness[v])
                << ctx << " vertex " << v;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------- the ladder

TEST(Ladder, SpentBudgetFallsThroughToTheNextRung) {
  // Rollback may serve exactly one recovery; the second death falls
  // through to degrade even though snapshots are available.
  const Graph g = make_er(90, 270, 43, WeightRange{1, 3});
  const EventSchedule sched = matrix_schedule(g, 47);
  EngineConfig cfg = matrix_cfg(4);

  AnytimeEngine probe_engine(g, cfg);
  const RunResult probe = probe_engine.run(sched);
  ASSERT_GE(probe.stats.rc_steps, 5u);

  EngineConfig ccfg = cfg;
  ccfg.checkpoint_every = 2;
  ccfg.recovery_policy = {{RecoveryPolicy::kRollback, 1},
                          {RecoveryPolicy::kDegrade, 0}};
  ccfg.faults.crashes.push_back({1, 2});
  ccfg.faults.crashes.push_back({2, 4});

  AnytimeEngine engine(g, ccfg);
  const RunResult r = engine.run(sched);
  EXPECT_EQ(r.stats.recoveries, 2u);
  ASSERT_EQ(r.stats.recovery_log.size(), 2u);
  EXPECT_EQ(r.stats.recovery_log[0].kind, "rollback");
  EXPECT_EQ(r.stats.recovery_log[1].kind, "degraded");
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.lost_vertices, lost_of(engine.graph(), r, 2));
}

TEST(Ladder, ExhaustedLadderRethrowsTheLastPreconditionFailure) {
  // A single-rung rollback ladder with no periodic snapshots configured:
  // the rung's precondition failure surfaces as RecoveryError.
  const Graph g = make_er(70, 210, 53, WeightRange{1, 3});
  EngineConfig cfg = matrix_cfg(3);
  cfg.checkpoint_every = 0;
  cfg.recovery_policy = {{RecoveryPolicy::kRollback, 0}};
  cfg.faults.crashes.push_back({1, 1});

  AnytimeEngine engine(g, cfg);
  EXPECT_THROW((void)engine.run(), RecoveryError);
}

TEST(Ladder, DefaultLadderReproducesTheLegacyOrder) {
  // Default recovery_policy = {rollback, degrade}: with snapshots it rolls
  // back; without, it degrades — exactly the pre-ladder behavior.
  const Graph g = make_er(80, 240, 59, WeightRange{1, 3});
  EngineConfig with_ck = matrix_cfg(3);
  with_ck.checkpoint_every = 2;
  with_ck.faults.crashes.push_back({1, 3});
  AnytimeEngine a(g, with_ck);
  const RunResult ra = a.run();
  ASSERT_EQ(ra.stats.recovery_log.size(), 1u);
  EXPECT_EQ(ra.stats.recovery_log[0].kind, "rollback");
  EXPECT_FALSE(ra.degraded);

  EngineConfig without_ck = matrix_cfg(3);
  without_ck.faults.crashes.push_back({1, 3});
  AnytimeEngine b(g, without_ck);
  const RunResult rb = b.run();
  ASSERT_EQ(rb.stats.recovery_log.size(), 1u);
  EXPECT_EQ(rb.stats.recovery_log[0].kind, "degraded");
  EXPECT_TRUE(rb.degraded);
}

TEST(RecoveryLog, SerializesIntoTheStatsJson) {
  const Graph g = make_er(70, 210, 61, WeightRange{1, 3});
  EngineConfig cfg = matrix_cfg(3);
  cfg.checkpoint_every = 1;
  cfg.recovery_policy = {{RecoveryPolicy::kRollback, 0}};
  cfg.faults.crashes.push_back({1, 2});

  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  const std::string json = r.stats.to_json(false);
  EXPECT_NE(json.find("\"recovery_log\":[{\"kind\":\"rollback\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"mttr_seconds\":"), std::string::npos);
}

}  // namespace
}  // namespace aacc
