// Remaining distinct behaviours: sampled Kendall tau, generator guard
// rails, timer monotonicity, large-root broadcasts,
// and config interplay (max_rc_steps + checkpoint).
#include <gtest/gtest.h>

#include "analysis/quality.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "runtime/comm.hpp"
#include "test_util.hpp"

namespace aacc {
namespace {

TEST(Quality, KendallTauSampledBranchAgreesWithExact) {
  // n chosen so n*(n-1)/2 > max_pairs forces the sampling path.
  Rng rng(9);
  std::vector<double> a(3000);
  std::vector<double> b(3000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.next_double();
    b[i] = a[i] + 0.05 * rng.next_double();  // strongly correlated
  }
  const double exact = kendall_tau(a, b, 10'000'000);   // exact path
  const double sampled = kendall_tau(a, b, 200'000);    // sampled path
  EXPECT_NEAR(exact, sampled, 0.02);
  EXPECT_GT(sampled, 0.8);
}

TEST(Quality, KendallTauAllTiesIsOne) {
  const std::vector<double> flat(10, 3.0);
  EXPECT_DOUBLE_EQ(kendall_tau(flat, flat), 1.0);
}

TEST(Generators, BaRejectsTooSmallN) {
  Rng rng(1);
  EXPECT_THROW(barabasi_albert(2, 2, rng), std::logic_error);
}

TEST(Generators, ErRejectsTooManyEdges) {
  Rng rng(2);
  EXPECT_THROW(erdos_renyi(4, 100, rng), std::logic_error);
}

TEST(Generators, RmatRejectsOverfullQuadrants) {
  Rng rng(3);
  // 2^3 = 8 vertices cannot host 100 distinct edges.
  EXPECT_THROW(rmat(3, 100, 0.57, 0.19, 0.19, rng), std::logic_error);
}

TEST(Generators, WeightedBaRespectsRange) {
  Rng rng(4);
  const Graph g = barabasi_albert(200, 2, rng, WeightRange{3, 6});
  for (const auto& [u, v, w] : g.edges()) {
    EXPECT_GE(w, 3u);
    EXPECT_LE(w, 6u);
  }
}

TEST(Timer, MonotoneNonNegative) {
  Timer t;
  const double a = t.seconds();
  double acc = 0;
  for (int i = 0; i < 100000; ++i) acc += i;
  (void)acc;
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LT(t.seconds(), b + 1.0);
}

TEST(Comm, BroadcastLargePayloadNonzeroRoot) {
  rt::World world(5);
  const std::size_t size = 1 << 20;
  std::vector<int> ok(5, 0);
  world.run([&](rt::Comm& comm) {
    std::vector<std::byte> buf;
    if (comm.rank() == 3) buf.assign(size, std::byte{0x5C});
    buf = comm.broadcast(std::move(buf), 3);
    ok[static_cast<std::size_t>(comm.rank())] =
        buf.size() == size && buf[size / 2] == std::byte{0x5C};
  });
  for (const int v : ok) EXPECT_EQ(v, 1);
}

TEST(Comm, AllToAllWithEmptySlots) {
  rt::World world(4);
  std::vector<int> ok(4, 1);
  world.run([&](rt::Comm& comm) {
    std::vector<std::vector<std::byte>> out(4);
    // Only send to rank 0; everything else empty.
    out[0] = std::vector<std::byte>(8, std::byte{1});
    auto in = comm.all_to_all(std::move(out));
    for (Rank q = 0; q < 4; ++q) {
      const std::size_t expect = comm.rank() == 0 ? 8 : 0;
      if (q != comm.rank() && in[static_cast<std::size_t>(q)].size() != expect) {
        ok[static_cast<std::size_t>(comm.rank())] = 0;
      }
    }
  });
  for (const int v : ok) EXPECT_EQ(v, 1);
}

TEST(Engine, CheckpointBeyondMaxStepsNeverFires) {
  const Graph g = test::make_ba(100, 2, 3);
  EngineConfig cfg;
  cfg.num_ranks = 4;
  cfg.max_rc_steps = 2;
  cfg.checkpoint_at_step = 5;  // unreachable under the cap
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  EXPECT_FALSE(r.checkpoint.valid());
  EXPECT_EQ(r.stats.rc_steps, 2u);
}

TEST(Engine, StepQualityLengthTracksRcSteps) {
  const Graph g = test::make_ba(120, 2, 5);
  EngineConfig cfg;
  cfg.num_ranks = 4;
  cfg.record_step_quality = true;
  Rng rng(6);
  EventSchedule sched;
  sched.push_back({2, test::grow_vertices(g, 8, 2, rng)});
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(sched);
  EXPECT_EQ(r.step_harmonic.size(), r.stats.rc_steps);
  // Early snapshots don't know the late vertices; entries default to 0.
  EXPECT_EQ(r.step_harmonic.front().size(), engine.graph().num_vertices());
}

}  // namespace
}  // namespace aacc
