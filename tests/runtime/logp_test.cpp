// LogGP model: analytic costs of the serialized schedule.
#include <gtest/gtest.h>

#include "runtime/logp.hpp"

namespace aacc::rt {
namespace {

LogGPParams params() {
  LogGPParams p;
  p.L = 50e-6;
  p.o = 5e-6;
  p.g = 10e-6;
  p.G = 8e-9;
  return p;
}

TEST(LogGP, MessageCostComposition) {
  const auto p = params();
  // o + bytes*G + L + o
  EXPECT_DOUBLE_EQ(message_cost(p, 0), 2 * p.o + p.L);
  EXPECT_DOUBLE_EQ(message_cost(p, 1000), 2 * p.o + p.L + 1000 * p.G);
}

std::vector<MsgRecord> full_a2a(Rank P, std::uint64_t bytes) {
  std::vector<MsgRecord> log;
  for (Rank s = 0; s < P; ++s) {
    for (Rank d = 0; d < P; ++d) {
      if (s != d) log.push_back({1, OpKind::kAllToAll, s, d, bytes});
    }
  }
  return log;
}

TEST(LogGP, SerializedIsSumOfMessages) {
  const auto p = params();
  const Rank P = 4;
  const auto log = full_a2a(P, 500);
  const double t = modeled_network_seconds(log, p, P);
  const double expect = 12 * (message_cost(p, 500) + p.g);
  EXPECT_NEAR(t, expect, 1e-12);
}

TEST(LogGP, BroadcastScalesLogarithmically) {
  const auto p = params();
  std::vector<MsgRecord> log{{1, OpKind::kBroadcast, 0, 1, 64}};
  const double t2 = modeled_network_seconds(log, p, 2);
  const double t16 = modeled_network_seconds(log, p, 16);
  EXPECT_NEAR(t16, 4 * t2, 1e-12);  // depth 4 vs depth 1
}

TEST(LogGP, DistinctOpsAccumulate) {
  const auto p = params();
  std::vector<MsgRecord> log{{1, OpKind::kPointToPoint, 0, 1, 100},
                             {2, OpKind::kPointToPoint, 1, 0, 100}};
  const double t = modeled_network_seconds(log, p, 2);
  EXPECT_NEAR(t, 2 * message_cost(p, 100), 1e-12);
}

TEST(LogGP, EmptyLogIsFree) {
  EXPECT_DOUBLE_EQ(
      modeled_network_seconds({}, params(), 8), 0.0);
}

}  // namespace
}  // namespace aacc::rt
