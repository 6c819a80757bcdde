// RadixHeap against std::priority_queue: random monotone push/pop
// schedules must pop the same key sequence and the same items.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/radix_heap.hpp"
#include "common/rng.hpp"

namespace aacc {
namespace {

using Entry = std::pair<Dist, VertexId>;

/// Runs `ops` random operations on `heap` (which must be empty and
/// cleared): pushes of last-popped + [0, span) starting from `base`, clamped
/// to kInfDist - 1, interleaved with pops, then drains. Every popped key
/// must equal the reference queue's, and the popped items must be the
/// pushed ones.
void check_schedule(RadixHeap& heap, Rng& rng, Dist base, Dist span, int ops) {
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ref;
  std::vector<Entry> pushed;
  std::vector<Entry> popped;
  Dist last = base;
  VertexId next_id = 0;
  const auto pop_one = [&] {
    const RadixHeap::Item it = heap.pop();
    ASSERT_EQ(it.key, ref.top().first) << "pop " << popped.size();
    ref.pop();
    last = it.key;
    popped.emplace_back(it.key, it.v);
  };
  for (int i = 0; i < ops; ++i) {
    if (!ref.empty() && rng.next_below(3) == 0) {
      pop_one();
      if (testing::Test::HasFatalFailure()) return;
      continue;
    }
    const std::uint64_t key =
        std::min<std::uint64_t>(std::uint64_t{last} + rng.next_below(span),
                                kInfDist - 1);
    heap.push(static_cast<Dist>(key), next_id);
    ref.emplace(static_cast<Dist>(key), next_id);
    pushed.emplace_back(static_cast<Dist>(key), next_id);
    ++next_id;
  }
  while (!ref.empty()) {
    ASSERT_FALSE(heap.empty());
    pop_one();
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(heap.empty());
  std::sort(pushed.begin(), pushed.end());
  std::sort(popped.begin(), popped.end());
  EXPECT_EQ(popped, pushed);
}

TEST(RadixHeap, MatchesPriorityQueueOnRandomMonotoneSchedules) {
  // Span 1 pushes only the last popped key; 4 mimics unit-ish weights;
  // 2^20 and 2^31 move the highest differing bit across the whole word.
  for (const Dist span : {1u, 4u, 1u << 20, 1u << 31}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      SCOPED_TRACE(::testing::Message() << "span=" << span << " seed=" << seed);
      Rng rng(seed);
      RadixHeap heap;
      check_schedule(heap, rng, 0, span, 2000);
    }
  }
}

TEST(RadixHeap, DuplicateKeys) {
  RadixHeap heap;
  for (VertexId v = 0; v < 50; ++v) heap.push(7, v);
  for (VertexId v = 0; v < 50; ++v) heap.push(9, v);
  std::vector<VertexId> sevens;
  for (int i = 0; i < 50; ++i) {
    const RadixHeap::Item it = heap.pop();
    ASSERT_EQ(it.key, 7u);
    sevens.push_back(it.v);
    heap.push(9, 100 + it.v);  // equal to a queued key, above the last pop
  }
  std::sort(sevens.begin(), sevens.end());
  for (VertexId v = 0; v < 50; ++v) EXPECT_EQ(sevens[v], v);
  std::size_t nines = 0;
  while (!heap.empty()) {
    EXPECT_EQ(heap.pop().key, 9u);
    ++nines;
  }
  EXPECT_EQ(nines, 100u);
}

TEST(RadixHeap, KeysNearInfDist) {
  RadixHeap heap;
  heap.push(kInfDist - 1, 1);
  heap.push(0, 2);
  heap.push(kInfDist - 2, 3);
  heap.push(kInfDist - 1, 4);
  EXPECT_EQ(heap.pop().key, 0u);
  EXPECT_EQ(heap.pop().key, kInfDist - 2);
  heap.push(kInfDist - 2, 5);
  EXPECT_EQ(heap.pop().key, kInfDist - 2);
  EXPECT_EQ(heap.pop().key, kInfDist - 1);
  EXPECT_EQ(heap.pop().key, kInfDist - 1);
  EXPECT_TRUE(heap.empty());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Rng rng(seed);
    RadixHeap top;
    check_schedule(top, rng, kInfDist - 300, 8, 1000);
  }
}

TEST(RadixHeap, ReuseAfterDrain) {
  // One heap, many schedules: clear() resets the last popped key, so a
  // schedule may start below where the previous one ended.
  RadixHeap heap;
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE(::testing::Message() << "round=" << round);
    heap.clear();
    const Dist base = round % 2 == 0 ? 1000u << (round % 16) : 0u;
    check_schedule(heap, rng, base, round % 3 == 0 ? 3u : 1u << 12, 500);
    if (testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace aacc
