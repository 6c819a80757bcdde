// Runtime: mailbox matching, point-to-point ordering, and every collective
// across a sweep of world sizes.
#include <gtest/gtest.h>

#include <numeric>

#include "runtime/comm.hpp"
#include "runtime/serialize.hpp"

namespace aacc::rt {
namespace {

std::vector<std::byte> payload_of(std::uint64_t v) {
  ByteWriter w;
  w.write(v);
  return w.take();
}

std::uint64_t value_of(const Message& m) {
  ByteReader r(m.payload);
  return r.read<std::uint64_t>();
}

TEST(Mailbox, MatchesBySourceAndTag) {
  Mailbox mb;
  mb.put({1, 5, payload_of(100)});
  mb.put({2, 5, payload_of(200)});
  mb.put({1, 6, payload_of(300)});
  EXPECT_EQ(value_of(mb.take(2, 5)), 200u);
  EXPECT_EQ(value_of(mb.take(kAnySource, 6)), 300u);
  EXPECT_EQ(value_of(mb.take(1, 5)), 100u);
  EXPECT_FALSE(mb.has(kAnySource, 5));
}

TEST(Mailbox, FifoPerSender) {
  Mailbox mb;
  mb.put({3, 1, payload_of(1)});
  mb.put({3, 1, payload_of(2)});
  mb.put({3, 1, payload_of(3)});
  EXPECT_EQ(value_of(mb.take(3, 1)), 1u);
  EXPECT_EQ(value_of(mb.take(3, 1)), 2u);
  EXPECT_EQ(value_of(mb.take(3, 1)), 3u);
}

TEST(Comm, PointToPointRing) {
  World world(4);
  std::vector<std::uint64_t> got(4, 0);
  world.run([&](Comm& comm) {
    const Rank next = (comm.rank() + 1) % comm.size();
    const Rank prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.send(next, 7, payload_of(static_cast<std::uint64_t>(comm.rank())));
    got[static_cast<std::size_t>(comm.rank())] = value_of(comm.recv(prev, 7));
  });
  EXPECT_EQ(got, (std::vector<std::uint64_t>{3, 0, 1, 2}));
}

class CollectiveSizes : public ::testing::TestWithParam<Rank> {};

TEST_P(CollectiveSizes, Broadcast) {
  const Rank P = GetParam();
  World world(P);
  std::vector<std::uint64_t> got(static_cast<std::size_t>(P), 0);
  world.run([&](Comm& comm) {
    const Rank root = P / 2;
    std::vector<std::byte> buf;
    if (comm.rank() == root) buf = payload_of(4242);
    buf = comm.broadcast(std::move(buf), root);
    ByteReader r(buf);
    got[static_cast<std::size_t>(comm.rank())] = r.read<std::uint64_t>();
  });
  for (const auto v : got) EXPECT_EQ(v, 4242u);
}

TEST_P(CollectiveSizes, AllToAllDeliversPersonalizedPayloads) {
  const Rank P = GetParam();
  World world(P);
  std::vector<int> failures(static_cast<std::size_t>(P), 0);
  world.run([&](Comm& comm) {
    std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(P));
    for (Rank q = 0; q < P; ++q) {
      out[static_cast<std::size_t>(q)] =
          payload_of(static_cast<std::uint64_t>(comm.rank() * 1000 + q));
    }
    auto in = comm.all_to_all(std::move(out));
    for (Rank q = 0; q < P; ++q) {
      ByteReader r(in[static_cast<std::size_t>(q)]);
      if (r.read<std::uint64_t>() !=
          static_cast<std::uint64_t>(q * 1000 + comm.rank())) {
        ++failures[static_cast<std::size_t>(comm.rank())];
      }
    }
  });
  for (const int f : failures) EXPECT_EQ(f, 0);
}

TEST_P(CollectiveSizes, AllReduceSumMaxOr) {
  const Rank P = GetParam();
  World world(P);
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(P));
  std::vector<std::uint64_t> maxes(static_cast<std::size_t>(P));
  std::vector<int> ors(static_cast<std::size_t>(P));
  world.run([&](Comm& comm) {
    const auto me = static_cast<std::uint64_t>(comm.rank());
    sums[me] = comm.all_reduce_sum(me + 1);
    maxes[me] = comm.all_reduce_max(me * 10);
    ors[me] = comm.all_reduce_or(comm.rank() == P - 1) ? 1 : 0;
  });
  const auto expected_sum =
      static_cast<std::uint64_t>(P) * static_cast<std::uint64_t>(P + 1) / 2;
  for (Rank r = 0; r < P; ++r) {
    EXPECT_EQ(sums[static_cast<std::size_t>(r)], expected_sum);
    EXPECT_EQ(maxes[static_cast<std::size_t>(r)],
              static_cast<std::uint64_t>(P - 1) * 10);
    EXPECT_EQ(ors[static_cast<std::size_t>(r)], 1);
  }
}

TEST_P(CollectiveSizes, BarrierCompletes) {
  const Rank P = GetParam();
  World world(P);
  world.run([&](Comm& comm) {
    for (int i = 0; i < 3; ++i) comm.barrier();
  });
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(Comm, LedgersCountBytes) {
  World world(2);
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 9, std::vector<std::byte>(128));
    } else {
      (void)comm.recv(0, 9);
    }
  });
  EXPECT_EQ(world.ledgers()[0].bytes_sent, 128u);
  EXPECT_EQ(world.ledgers()[1].bytes_received, 128u);
  EXPECT_EQ(world.total_messages(), 1u);
}

TEST(Comm, RankExceptionPropagates) {
  World world(3);
  EXPECT_THROW(world.run([&](Comm& comm) {
    comm.barrier();
    if (comm.rank() == 1) throw std::runtime_error("rank 1 died");
  }),
               std::runtime_error);
}

TEST(World, ResetAccountingClearsLedgers) {
  World world(2);
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 1, std::vector<std::byte>(16));
    if (comm.rank() == 1) (void)comm.recv(0, 1);
  });
  ASSERT_GT(world.total_bytes(), 0u);
  world.reset_accounting();
  EXPECT_EQ(world.total_bytes(), 0u);
  EXPECT_TRUE(world.message_log().empty());
}


TEST_P(CollectiveSizes, GatherCollectsAllContributions) {
  const Rank P = GetParam();
  World world(P);
  std::vector<int> ok(static_cast<std::size_t>(P), 1);
  world.run([&](Comm& comm) {
    const Rank root = P - 1;
    auto all = comm.gather(payload_of(static_cast<std::uint64_t>(comm.rank() * 3)),
                           root);
    if (comm.rank() == root) {
      for (Rank q = 0; q < P; ++q) {
        ByteReader r(all[static_cast<std::size_t>(q)]);
        if (r.read<std::uint64_t>() != static_cast<std::uint64_t>(q * 3)) {
          ok[static_cast<std::size_t>(comm.rank())] = 0;
        }
      }
    } else if (!all.empty()) {
      ok[static_cast<std::size_t>(comm.rank())] = 0;
    }
  });
  for (const int v : ok) EXPECT_EQ(v, 1);
}
}  // namespace
}  // namespace aacc::rt
