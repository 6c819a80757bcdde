// tools/bench_diff.hpp: the JSON flattener and the noise-aware regression
// gate. The synthetic-regression case here is the CI contract: an injected
// +25% timing regression must be detected against a 10% threshold, while
// within-noise jitter and non-gated counter drift must not fail the gate.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/bench_diff.hpp"

namespace aacc::tools {
namespace {

using Flat = std::map<std::string, double>;

TEST(FlattenJson, NestedObjectsArraysAndLiterals) {
  Flat out;
  std::string err;
  ASSERT_TRUE(flatten_json(
      R"({"a":1.5,"b":{"c":-2,"d":[10,20,{"e":30}]},"f":true,"g":false,)"
      R"("h":null,"s":"skipped","empty":{},"earr":[]})",
      out, &err))
      << err;
  EXPECT_DOUBLE_EQ(out.at("a"), 1.5);
  EXPECT_DOUBLE_EQ(out.at("b.c"), -2.0);
  EXPECT_DOUBLE_EQ(out.at("b.d[0]"), 10.0);
  EXPECT_DOUBLE_EQ(out.at("b.d[1]"), 20.0);
  EXPECT_DOUBLE_EQ(out.at("b.d[2].e"), 30.0);
  EXPECT_DOUBLE_EQ(out.at("f"), 1.0);
  EXPECT_DOUBLE_EQ(out.at("g"), 0.0);
  // Strings and nulls are not metrics.
  EXPECT_EQ(out.count("h"), 0u);
  EXPECT_EQ(out.count("s"), 0u);
  EXPECT_EQ(out.size(), 7u);
}

TEST(FlattenJson, ScientificNotationAndTopLevelArray) {
  Flat out;
  ASSERT_TRUE(flatten_json(R"([1e-3,2.5E2])", out));
  EXPECT_DOUBLE_EQ(out.at("[0]"), 1e-3);
  EXPECT_DOUBLE_EQ(out.at("[1]"), 250.0);
}

TEST(FlattenJson, RejectsMalformedDocuments) {
  Flat out;
  std::string err;
  EXPECT_FALSE(flatten_json("", out, &err));
  EXPECT_FALSE(flatten_json("{\"a\":}", out, &err));
  EXPECT_FALSE(flatten_json("{\"a\":1", out, &err));
  EXPECT_FALSE(flatten_json("{\"a\":1} extra", out, &err));
  EXPECT_FALSE(flatten_json("{'a':1}", out, &err));
}

// A miniature BENCH_*.json in flattened form.
Flat bench_run(double drain_cpu, double makespan, double rc_steps) {
  return Flat{
      {"cases[0].drain_cpu_seconds", drain_cpu},
      {"cases[0].modeled_makespan_seconds", makespan},
      {"cases[0].rc_steps", rc_steps},
  };
}

TEST(DiffBench, DetectsInjectedSyntheticRegression) {
  // Two history runs with ~4% noise, candidate +25% on both timings.
  const std::vector<Flat> history{bench_run(1.00, 2.00, 7),
                                  bench_run(1.04, 2.08, 7)};
  const Flat candidate = bench_run(1.25, 2.50, 7);
  const DiffReport rep = diff_bench(history, candidate);
  EXPECT_EQ(rep.regressions, 2u);
  for (const auto& d : rep.rows) {
    if (d.path == "cases[0].rc_steps") {
      // Matches no timing token: report-only even if it drifted.
      EXPECT_FALSE(d.gated);
      EXPECT_FALSE(d.regression);
    } else {
      EXPECT_TRUE(d.gated) << d.path;
      EXPECT_TRUE(d.regression) << d.path;
      EXPECT_NEAR(d.delta_pct, 25.0, 0.01) << d.path;
      EXPECT_NEAR(d.noise_pct, 4.0, 0.01) << d.path;
    }
  }
}

TEST(DiffBench, WithinNoiseOrThresholdPasses) {
  // +8% on a 10% threshold: not a regression.
  const std::vector<Flat> history{bench_run(1.00, 2.00, 7)};
  const DiffReport ok = diff_bench(history, bench_run(1.08, 2.16, 7));
  EXPECT_EQ(ok.regressions, 0u);

  // +15% but the history itself is 20% noisy: the noise bar wins.
  const std::vector<Flat> noisy{bench_run(1.00, 2.00, 7),
                                bench_run(1.20, 2.40, 7)};
  const DiffReport noise = diff_bench(noisy, bench_run(1.15, 2.30, 7));
  EXPECT_EQ(noise.regressions, 0u);

  // Same +15% against quiet history fails.
  const std::vector<Flat> quiet{bench_run(1.00, 2.00, 7),
                                bench_run(1.01, 2.02, 7)};
  const DiffReport bad = diff_bench(quiet, bench_run(1.15, 2.30, 7));
  EXPECT_EQ(bad.regressions, 2u);
}

TEST(DiffBench, NonGatedCounterDriftIsReportOnly) {
  const std::vector<Flat> history{{{"cases[0].retransmits", 2.0}}};
  const Flat candidate{{"cases[0].retransmits", 50.0}};
  const DiffReport rep = diff_bench(history, candidate);
  EXPECT_EQ(rep.regressions, 0u);
  ASSERT_EQ(rep.rows.size(), 1u);
  EXPECT_FALSE(rep.rows[0].gated);
  EXPECT_NEAR(rep.rows[0].delta_pct, 2400.0, 0.01);
}

TEST(DiffBench, BaselineIsBestHistoricalSample) {
  // Candidate matches the *fastest* historical run: clean pass, even
  // though it is 20% above the slowest one.
  const std::vector<Flat> history{bench_run(1.20, 2.40, 7),
                                  bench_run(1.00, 2.00, 7)};
  const DiffReport rep = diff_bench(history, bench_run(1.00, 2.00, 7));
  EXPECT_EQ(rep.regressions, 0u);
  for (const auto& d : rep.rows) {
    if (d.gated) {
      EXPECT_NEAR(d.delta_pct, 0.0, 1e-9) << d.path;
    }
  }
}

TEST(DiffBench, ZeroAndNearZeroBaselinesNeverGate) {
  const std::vector<Flat> history{{{"phases.idle_seconds", 0.0}}};
  const Flat candidate{{"phases.idle_seconds", 5.0}};
  const DiffReport rep = diff_bench(history, candidate);
  EXPECT_EQ(rep.regressions, 0u);
}

TEST(DiffBench, NewAndRemovedMetricsAreIgnored) {
  const std::vector<Flat> history{{{"old.wall_seconds", 1.0}}};
  const Flat candidate{{"new.wall_seconds", 9.0}};
  const DiffReport rep = diff_bench(history, candidate);
  EXPECT_TRUE(rep.rows.empty());
  EXPECT_EQ(rep.regressions, 0u);
}

TEST(DiffBench, CustomGateAndThreshold) {
  DiffOptions opts;
  opts.threshold_pct = 2.0;
  opts.gate = "rc_steps";
  const std::vector<Flat> history{bench_run(1.0, 2.0, 10)};
  const DiffReport rep = diff_bench(history, bench_run(1.5, 3.0, 12), opts);
  // Timings are no longer gated; the step count now is (+20% > 2%).
  EXPECT_EQ(rep.regressions, 1u);
  for (const auto& d : rep.rows) {
    EXPECT_EQ(d.regression, d.path == "cases[0].rc_steps") << d.path;
  }
}

TEST(DiffBench, GateMatchesAnyWordIgnoringCase) {
  EXPECT_TRUE(gate_matches("seconds|makespan", "cases[0].Drain_SECONDS"));
  EXPECT_TRUE(gate_matches("seconds|makespan", "modeled_makespan"));
  EXPECT_TRUE(gate_matches("seconds_per_query|p99_query_seconds",
                           "serve.p99_query_seconds"));
  EXPECT_FALSE(gate_matches("seconds|makespan", "modeled_speedup"));
  EXPECT_FALSE(gate_matches("", "anything"));
  EXPECT_FALSE(gate_matches("|", "anything"));
}

TEST(DiffBench, ImprovementsAreCounted) {
  const std::vector<Flat> history{bench_run(1.0, 2.0, 7)};
  const DiffReport rep = diff_bench(history, bench_run(0.8, 1.6, 7));
  EXPECT_EQ(rep.regressions, 0u);
  EXPECT_EQ(rep.improvements, 2u);
}

}  // namespace
}  // namespace aacc::tools
