// The "anytime" contract: interrupted snapshots are valid lower bounds of
// harmonic centrality whose quality is monotone non-decreasing over RC
// steps for additive workloads, and the modeled accounting behaves
// sensibly. (Classic closeness 1/Σd is only meaningful at full coverage —
// partial sums overshoot — which is why the quality curve uses harmonic.)
#include <gtest/gtest.h>

#include "analysis/closeness.hpp"
#include "analysis/quality.hpp"
#include "test_util.hpp"

namespace aacc {
namespace {

using test::make_ba;

TEST(Anytime, SnapshotsAreMonotoneLowerBoundsOnStaticRuns) {
  const Graph g = make_ba(250, 2, 19);
  EngineConfig cfg;
  cfg.num_ranks = 8;
  cfg.record_step_quality = true;
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  ASSERT_GE(r.step_harmonic.size(), 2u);

  const auto exact = harmonic_exact(g);
  for (std::size_t s = 0; s < r.step_harmonic.size(); ++s) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      // Distances are upper bounds => stored sums are >= true sums =>
      // estimates never exceed the exact value.
      EXPECT_LE(r.step_harmonic[s][v], exact[v] + 1e-12)
          << "step " << s << " vertex " << v;
      if (s > 0) {
        EXPECT_GE(r.step_harmonic[s][v], r.step_harmonic[s - 1][v] - 1e-12)
            << "monotonicity violated at step " << s << " vertex " << v;
      }
    }
  }
  // Final step equals exact.
  const auto& last = r.step_harmonic.back();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(last[v], exact[v], 1e-12);
  }
}

TEST(Anytime, QualityImprovesWithSteps) {
  const Graph g = make_ba(300, 2, 23);
  EngineConfig cfg;
  cfg.num_ranks = 8;
  cfg.record_step_quality = true;
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  const auto exact = harmonic_exact(g);

  const double err_first = mean_relative_error(exact, r.step_harmonic.front());
  const double err_last = mean_relative_error(exact, r.step_harmonic.back());
  EXPECT_GT(err_first, err_last);
  EXPECT_NEAR(err_last, 0.0, 1e-12);

  const double overlap_last = top_k_overlap(exact, r.step_harmonic.back(), 20);
  EXPECT_DOUBLE_EQ(overlap_last, 1.0);
}

TEST(Anytime, AccountingIsPopulated) {
  const Graph g = make_ba(200, 2, 29);
  EngineConfig cfg;
  cfg.num_ranks = 6;
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  EXPECT_GT(r.stats.total_bytes, 0u);
  EXPECT_GT(r.stats.total_messages, 0u);
  EXPECT_GT(r.stats.rc_steps, 0u);
  EXPECT_GT(r.stats.modeled_network_seconds_serialized, 0.0);
  EXPECT_EQ(r.stats.steps.size(), r.stats.rc_steps);
  EXPECT_GT(r.stats.cut_edges_initial, 0u);
  // Static run: the distribution does not change.
  EXPECT_EQ(r.stats.cut_edges_initial, r.stats.cut_edges_final);
  EXPECT_GT(r.stats.cpu_by_phase.count("ia"), 0u);
  EXPECT_GT(r.stats.cpu_by_phase.count("rc"), 0u);
}

TEST(Anytime, BaselineRestartCostsScaleWithBatches) {
  const Graph g = make_ba(120, 2, 31);
  EngineConfig cfg;
  cfg.num_ranks = 4;

  // Deterministically pick three non-adjacent vertex pairs.
  std::vector<EdgeAddEvent> adds;
  for (VertexId u = 20; adds.size() < 3; ++u) {
    const VertexId v = u + 57;
    ASSERT_LT(v, g.num_vertices());
    if (!g.has_edge(u, v)) adds.push_back(EdgeAddEvent{u, v, 1});
  }
  EventSchedule one;
  one.push_back({1, {adds[0]}});
  EventSchedule three;
  three.push_back({1, {adds[0]}});
  three.push_back({2, {adds[1]}});
  three.push_back({3, {adds[2]}});

  const RunResult r1 = run_baseline_restart(g, one, cfg);
  const RunResult r3 = run_baseline_restart(g, three, cfg);
  // 2 full runs vs 4 full runs: strictly more RC steps and bytes.
  EXPECT_GT(r3.stats.rc_steps, r1.stats.rc_steps);
  EXPECT_GT(r3.stats.total_bytes, r1.stats.total_bytes);
}

TEST(Anytime, BaselineRestartMatchesReferenceAfterChanges) {
  const Graph g = make_ba(100, 2, 37);
  EngineConfig cfg;
  cfg.num_ranks = 4;
  cfg.gather_apsp = true;
  EventSchedule sched;
  sched.push_back({1, {EdgeAddEvent{0, 99, 1}, EdgeAddEvent{5, 50, 2}}});
  const RunResult r = run_baseline_restart(g, sched, cfg);
  Graph truth = g;
  apply_schedule(truth, sched);
  test::expect_apsp_exact(truth, r);
}

TEST(Anytime, BaselineStatsCoverEveryRerun) {
  // run_baseline_restart folds whole reruns through RunStats::accumulate:
  // the step log, the violation count and the per-step work must cover
  // every rerun, not only the first run.
  const Graph g = make_ba(120, 2, 43);
  EngineConfig cfg;
  cfg.num_ranks = 4;
  cfg.validate_each_step = true;
  EventSchedule sched;
  sched.push_back({1, {EdgeAddEvent{0, 119, 1}}});
  sched.push_back({2, {EdgeAddEvent{3, 60, 1}}});
  const auto relaxations = [](const RunStats& s) {
    std::uint64_t n = 0;
    for (const StepStats& step : s.steps) n += step.relaxations;
    return n;
  };
  Graph cur = g;
  std::uint64_t expected = relaxations(AnytimeEngine(cur, cfg).run().stats);
  std::size_t expected_steps = 0;
  for (const EventBatch& batch : sched) {
    for (const Event& e : batch.events) apply_event(cur, e);
    const RunStats rerun = AnytimeEngine(cur, cfg).run().stats;
    expected += relaxations(rerun);
    expected_steps += rerun.rc_steps;
  }
  const RunResult r = run_baseline_restart(g, sched, cfg);
  EXPECT_EQ(r.stats.steps.size(), r.stats.rc_steps);
  EXPECT_GT(r.stats.rc_steps, expected_steps);  // plus the initial run
  EXPECT_EQ(relaxations(r.stats), expected);
  EXPECT_EQ(r.stats.invariant_violations, 0u);
}

TEST(Anytime, AnytimeBeatsBaselineOnWork) {
  // The headline claim (Fig. 4): incremental ingestion does much less work
  // than restart. Compare total relaxation counts + bytes.
  const Graph g = make_ba(300, 2, 41);
  EngineConfig cfg;
  cfg.num_ranks = 8;
  Rng rng(1);
  EventSchedule sched;
  sched.push_back({2, test::grow_vertices(g, 20, 2, rng)});

  AnytimeEngine anytime(g, cfg);
  const RunResult ra = anytime.run(sched);
  const RunResult rb = run_baseline_restart(g, sched, cfg);
  EXPECT_LT(ra.stats.total_bytes, rb.stats.total_bytes);
  EXPECT_LT(ra.stats.total_cpu_seconds, rb.stats.total_cpu_seconds);
}

}  // namespace
}  // namespace aacc
