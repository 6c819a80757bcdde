// DvRow: aggregates, flags, growth, wire reconstruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>

#include "core/dv_matrix.hpp"

namespace aacc {
namespace {

TEST(DvRow, FreshRowKnowsOnlyItself) {
  const DvRow row(2, 5);
  EXPECT_EQ(row.self(), 2u);
  EXPECT_EQ(row.size(), 5u);
  EXPECT_EQ(row.dist(2), 0u);
  for (VertexId t : {0u, 1u, 3u, 4u}) EXPECT_EQ(row.dist(t), kInfDist);
  EXPECT_EQ(row.finite_count(), 0u);
  EXPECT_EQ(row.finite_sum(), 0u);
  EXPECT_EQ(row.closeness(), 0.0);
}

TEST(DvRow, SetMaintainsAggregates) {
  DvRow row(0, 4);
  row.set(1, 5, 1);
  row.set(2, 7, 1);
  EXPECT_EQ(row.finite_sum(), 12u);
  EXPECT_EQ(row.finite_count(), 2u);
  EXPECT_DOUBLE_EQ(row.closeness(), 1.0 / 12.0);
  row.set(1, 3, 2);  // improvement
  EXPECT_EQ(row.finite_sum(), 10u);
  EXPECT_EQ(row.finite_count(), 2u);
  row.set(2, kInfDist, kNoVertex);  // poison
  EXPECT_EQ(row.finite_sum(), 3u);
  EXPECT_EQ(row.finite_count(), 1u);
}

TEST(DvRow, SelfEntryExcludedFromAggregates) {
  DvRow row(1, 3);
  row.set(0, 2, 0);
  EXPECT_EQ(row.finite_sum(), 2u);
  EXPECT_EQ(row.finite_count(), 1u);
}

TEST(DvRow, DirtyFlagCounting) {
  DvRow row(0, 4);
  EXPECT_TRUE(row.mark_dirty(1));
  EXPECT_FALSE(row.mark_dirty(1));  // already dirty
  EXPECT_TRUE(row.mark_dirty(2));
  EXPECT_EQ(row.dirty_count(), 2u);
  EXPECT_TRUE(row.clear_dirty(1));
  EXPECT_FALSE(row.clear_dirty(1));
  EXPECT_EQ(row.dirty_count(), 1u);
}

TEST(DvRow, QueuedFlagIndependentOfDirty) {
  DvRow row(0, 3);
  EXPECT_TRUE(row.mark_queued(1));
  EXPECT_TRUE(row.test_flag(1, DvRow::kQueued));
  EXPECT_FALSE(row.test_flag(1, DvRow::kDirty));
  (void)row.mark_dirty(1);
  std::vector<VertexId> taken;
  row.take_queued(taken);
  EXPECT_EQ(taken, std::vector<VertexId>{1});
  EXPECT_FALSE(row.test_flag(1, DvRow::kQueued));
  EXPECT_TRUE(row.test_flag(1, DvRow::kDirty));
  EXPECT_EQ(row.dirty_count(), 1u);
}

TEST(DvRow, GrowAddsUnreachableColumns) {
  DvRow row(0, 2);
  row.set(1, 4, 1);
  row.grow(3);
  EXPECT_EQ(row.size(), 5u);
  EXPECT_EQ(row.dist(4), kInfDist);
  EXPECT_EQ(row.next_hop(4), kNoVertex);
  EXPECT_EQ(row.finite_sum(), 4u);  // aggregates unchanged
}

TEST(DvRow, WireConstructorRecomputesAggregates) {
  const std::vector<Dist> d{0, 3, kInfDist, 9};
  const std::vector<VertexId> nh{kNoVertex, 1, kNoVertex, 1};
  const DvRow row(0, d, nh);
  EXPECT_EQ(row.finite_sum(), 12u);
  EXPECT_EQ(row.finite_count(), 2u);
  EXPECT_EQ(row.dirty_count(), 0u);
  EXPECT_EQ(row.next_hop(3), 1u);
}

TEST(DvRow, SortedDirtyMatchesFlagScan) {
  DvRow row(0, 8);
  (void)row.mark_dirty(5);
  (void)row.mark_dirty(1);
  (void)row.mark_dirty(7);
  (void)row.clear_dirty(1);
  (void)row.mark_dirty(3);
  std::vector<VertexId> dirty;
  row.sorted_dirty(dirty);
  EXPECT_EQ(dirty, (std::vector<VertexId>{3, 5, 7}));
  EXPECT_EQ(row.dirty_count(), 3u);
}

TEST(DvRow, ClearAllDirtyReturnsCount) {
  DvRow row(0, 6);
  (void)row.mark_dirty(2);
  (void)row.mark_dirty(4);
  (void)row.clear_dirty(2);
  EXPECT_EQ(row.clear_all_dirty(), 1u);
  EXPECT_EQ(row.dirty_count(), 0u);
  std::vector<VertexId> dirty;
  row.sorted_dirty(dirty);
  EXPECT_TRUE(dirty.empty());
  // Re-marking after a bulk clear starts a fresh list.
  EXPECT_TRUE(row.mark_dirty(4));
  EXPECT_EQ(row.dirty_count(), 1u);
}

TEST(DvRow, SortedFiniteVisitsReachableColumns) {
  DvRow row(1, 6);
  row.set(0, 4, 0);
  row.set(3, 2, 3);
  row.set(5, 9, 3);
  row.set(5, kInfDist, kNoVertex);  // poisoned after being reached
  std::vector<VertexId> seen;
  row.sorted_finite(seen);
  EXPECT_EQ(seen, (std::vector<VertexId>{0, 3}));
}

// Brute-force views straight off the dense arrays.
std::vector<VertexId> brute_dirty(const DvRow& row) {
  std::vector<VertexId> out;
  for (VertexId c = 0; c < row.size(); ++c) {
    if (row.test_flag(c, DvRow::kDirty)) out.push_back(c);
  }
  return out;
}
std::vector<VertexId> brute_finite(const DvRow& row) {
  std::vector<VertexId> out;
  for (VertexId c = 0; c < row.size(); ++c) {
    if (c != row.self() && row.dist(c) != kInfDist) out.push_back(c);
  }
  return out;
}

/// Tracks when a row's dirty list must have overflowed: every successful
/// mark appends one id, the cap is the row width / kScanDensityInverse at
/// the time of the append, and only a bulk clear or reset starts over.
struct DirtyListModel {
  std::size_t ids = 0;
  bool overflowed = false;
  void on_mark(VertexId width) {
    if (overflowed) return;
    if (ids >= width / DvRow::kScanDensityInverse) {
      overflowed = true;
    } else {
      ++ids;
    }
  }
  void on_bulk_clear() { *this = {}; }
};

// Checks every view of a row's dirty and finite sets against brute force.
void expect_views_match(const DvRow& row, const DirtyListModel& model) {
  const std::vector<VertexId> want_dirty = brute_dirty(row);
  ASSERT_EQ(row.dirty_count(), want_dirty.size());
  ASSERT_EQ(row.dirty_list_overflowed(), model.overflowed);
  std::vector<VertexId> got;
  row.sorted_dirty(got);
  ASSERT_EQ(got, want_dirty);
  row.scan_dirty(got);
  ASSERT_EQ(got, want_dirty);
  if (!row.dirty_list_overflowed()) {
    row.sort_dirty_list(got);
    ASSERT_EQ(got, want_dirty);
  }
  row.sorted_finite(got);
  ASSERT_EQ(got, brute_finite(row));  // ascending, no duplicate visit
}

// Fuzz: the bounded dirty and reach lists, and the scans that replace them
// past the cap, must agree with brute force after any interleaving of set,
// mark, clear, grow, bulk clear, reset and shrink. Columns are drawn from a
// pool of 3, 12 or all columns, so the lists collect duplicate and stale
// ids (a column marked, cleared and marked again; poisoned and re-reached)
// and cross their caps inside one epoch at different rates.
TEST(DvRow, FuzzSparseTrackingMatchesBruteForce) {
  std::mt19937 rng(20260806);
  for (int round = 0; round < 30; ++round) {
    VertexId n = round % 2 == 0 ? 200 : 700;
    const VertexId pool = round % 3 == 0 ? 3 : round % 3 == 1 ? 12 : n;
    DvRow row(3, n);
    DirtyListModel model;
    for (int step = 0; step < 400; ++step) {
      const auto op = rng() % 100;
      const auto t = static_cast<VertexId>(rng() % std::min(pool, n));
      if (op < 35) {
        if (row.mark_dirty(t)) model.on_mark(n);
      } else if (op < 60) {
        (void)row.clear_dirty(t);
      } else if (op < 85) {
        if (t != row.self()) {
          const Dist d = (rng() % 8 == 0) ? kInfDist : rng() % 1000;
          row.set(t, d, d == kInfDist ? kNoVertex : t);
        }
      } else if (op < 90) {
        const auto added = static_cast<VertexId>(1 + rng() % 100);
        row.grow(added);  // moves the cap, also while overflowed
        n += added;
      } else if (op < 95) {
        (void)row.clear_all_dirty();
        model.on_bulk_clear();
      } else if (op < 97) {
        row.reset_flags();
        model.on_bulk_clear();
      } else {
        row.shrink_to_fit();
      }
      expect_views_match(row, model);
      if (HasFatalFailure()) return;
    }
    // The wire constructor rebuilds the reach list from the values alone.
    const DvRow wire(row.self(), row.dists(), row.next_hops());
    expect_views_match(wire, DirtyListModel{});
    ASSERT_EQ(wire.finite_count(), row.finite_count());
    ASSERT_EQ(wire.finite_sum(), row.finite_sum());
    if (HasFatalFailure()) return;
  }
}

// Fuzz: sorted_dirty() reads the dirty list until it passes its cap and
// scans the flag bytes after; at densities on either side of the cap, with
// stale and duplicate ids from single clears, both must give the flag
// scan's result, and bulk clears must clear every bit either way.
TEST(DvRow, FuzzHybridDirtyMatchesSparseAcrossDensities) {
  std::mt19937 rng(20261017);
  const VertexId n = 1000 + 13;  // not a multiple of the 8-column word
  const std::size_t cap = n / DvRow::kScanDensityInverse;
  for (const std::size_t target :
       {std::size_t{1}, cap / 2, cap - 1, cap, cap + 1, 4 * cap,
        std::size_t{n} / 2, std::size_t{n}}) {
    for (int round = 0; round < 4; ++round) {
      DvRow row(static_cast<VertexId>(rng() % n), n);
      DirtyListModel model;
      for (int step = 0; step < 300; ++step) {
        const auto op = rng() % 100;
        if (op < 70) {
          // Drift toward the target density: mark below it, clear above.
          const auto t = static_cast<VertexId>(rng() % n);
          if (row.dirty_count() < target) {
            if (row.mark_dirty(t)) model.on_mark(n);
          } else {
            (void)row.clear_dirty(t);
          }
        } else if (op < 90) {
          (void)row.clear_dirty(static_cast<VertexId>(rng() % n));
        } else if (op < 95) {
          row.shrink_to_fit();
        } else if (op < 97) {
          row.reset_flags();
          model.on_bulk_clear();
        } else {
          (void)row.clear_all_dirty();
          model.on_bulk_clear();
          ASSERT_TRUE(brute_dirty(row).empty()) << "target " << target;
        }
        expect_views_match(row, model);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(DvRow, DirtyListOverflowsPastCapUntilBulkClear) {
  DvRow row(0, 128);  // cap: 2 ids
  EXPECT_TRUE(row.mark_dirty(5));
  EXPECT_TRUE(row.clear_dirty(5));
  EXPECT_TRUE(row.mark_dirty(5));  // second id for column 5
  EXPECT_FALSE(row.dirty_list_overflowed());
  EXPECT_TRUE(row.mark_dirty(9));  // third append crosses the cap
  EXPECT_TRUE(row.dirty_list_overflowed());
  std::vector<VertexId> dirty;
  row.sorted_dirty(dirty);
  EXPECT_EQ(dirty, (std::vector<VertexId>{5, 9}));

  row.grow(128);  // cap 4 from now on; the overflow stands until a clear
  EXPECT_TRUE(row.dirty_list_overflowed());
  EXPECT_EQ(row.clear_all_dirty(), 2u);
  EXPECT_FALSE(row.dirty_list_overflowed());
  for (const VertexId t : {1u, 2u, 3u, 200u}) EXPECT_TRUE(row.mark_dirty(t));
  EXPECT_FALSE(row.dirty_list_overflowed());
  EXPECT_TRUE(row.mark_dirty(4));
  EXPECT_TRUE(row.dirty_list_overflowed());
  row.reset_flags();
  EXPECT_FALSE(row.dirty_list_overflowed());
  EXPECT_EQ(row.dirty_count(), 0u);
}

TEST(DvRow, ReachListFreedPastCap) {
  DvRow row(0, 640);  // cap: 10 ids
  for (VertexId t = 1; t <= 10; ++t) row.set(t, t, t);
  const std::size_t with_list = row.footprint_bytes();
  row.set(11, 11, 11);  // the eleventh append frees the list
  EXPECT_LT(row.footprint_bytes(), with_list);
  std::vector<VertexId> finite;
  row.sorted_finite(finite);
  EXPECT_EQ(finite.size(), 11u);
  EXPECT_EQ(finite.front(), 1u);
  EXPECT_EQ(finite.back(), 11u);
}

TEST(DvRow, DenseRowFootprintAtMostTenBytesPerEntry) {
  const VertexId n = 6000;
  DvRow row(0, n);
  for (VertexId t = 1; t < n; ++t) {
    row.set(t, t, t);
    (void)row.mark_dirty(t);
  }
  (void)row.mark_dirty(0);
  EXPECT_EQ(row.dirty_count(), n);
  EXPECT_LE(row.footprint_bytes(), 10 * std::size_t{n} + sizeof(DvRow));
}

TEST(DvRow, ScanDirtyCoversWordEdges) {
  // Columns at every position of the first and last 8-byte words, plus the
  // tail past the last whole word.
  for (const VertexId n : {1u, 7u, 8u, 9u, 16u, 23u}) {
    DvRow row(0, n);
    std::vector<VertexId> want;
    for (VertexId t = 0; t < n; t += 2) {
      (void)row.mark_dirty(t);
      want.push_back(t);
    }
    std::vector<VertexId> got;
    row.scan_dirty(got);
    EXPECT_EQ(got, want) << n;
  }
}

TEST(DvRow, ResetFlagsClearsEverything) {
  DvRow row(0, 4);
  (void)row.mark_dirty(1);
  (void)row.mark_dirty(2);
  (void)row.mark_queued(3);
  row.reset_flags();
  EXPECT_EQ(row.dirty_count(), 0u);
  EXPECT_EQ(row.queued_count(), 0u);
  EXPECT_FALSE(row.test_flag(1, DvRow::kDirty));
  EXPECT_FALSE(row.test_flag(3, DvRow::kQueued));
}

/// Brute-force model of a row's relaxation queue: the queued set, and the
/// queue list — queueing order until an append finds it at its cap (the row
/// width / kScanDensityInverse at the time), overflowed after that until a
/// take or reset.
struct QueueModel {
  std::vector<bool> queued;
  std::vector<VertexId> order;
  bool overflowed = false;

  explicit QueueModel(VertexId n) : queued(n, false) {}
  bool mark(VertexId t) {
    if (queued[t]) return false;
    queued[t] = true;
    if (!overflowed) {
      if (order.size() >= queued.size() / DvRow::kScanDensityInverse) {
        overflowed = true;
        order.clear();
      } else {
        order.push_back(t);
      }
    }
    return true;
  }
  /// What take_queued must return: queueing order while the list holds
  /// every column, else ascending.
  std::vector<VertexId> take() {
    std::vector<VertexId> want = order;
    if (overflowed) {
      for (VertexId t = 0; t < queued.size(); ++t) {
        if (queued[t]) want.push_back(t);
      }
    }
    reset();
    return want;
  }
  void reset() {
    std::fill(queued.begin(), queued.end(), false);
    order.clear();
    overflowed = false;
  }
  void grow(VertexId count) { queued.insert(queued.end(), count, false); }
  [[nodiscard]] std::size_t count() const {
    return static_cast<std::size_t>(
        std::count(queued.begin(), queued.end(), true));
  }
};

void expect_queue_matches(const DvRow& row, const QueueModel& model) {
  ASSERT_EQ(row.queued_count(), model.count());
  for (VertexId t = 0; t < row.size(); ++t) {
    ASSERT_EQ(row.test_flag(t, DvRow::kQueued), bool{model.queued[t]}) << t;
  }
}

// Fuzz: mark_queued/take_queued against the model, below the list cap and
// across it, with re-marks after a take, resets while columns are queued,
// and grows that move the cap (also while the list is overflowed). Column
// pools of 3 and 20 keep the queue under the cap; the full width crosses
// it.
TEST(DvRow, FuzzRowQueueMatchesBruteForce) {
  std::mt19937 rng(20261019);
  std::vector<VertexId> taken;
  for (int round = 0; round < 30; ++round) {
    VertexId n = round % 2 == 0 ? 300 : 1000 + 13;
    const VertexId pool = round % 3 == 0 ? 3 : round % 3 == 1 ? 20 : n;
    DvRow row(5, n);
    QueueModel model(n);
    for (int step = 0; step < 600; ++step) {
      const auto op = rng() % 100;
      const auto t = static_cast<VertexId>(rng() % std::min(pool, n));
      if (op < 80) {
        ASSERT_EQ(row.mark_queued(t), model.mark(t)) << t;
      } else if (op < 93) {
        row.take_queued(taken);
        ASSERT_EQ(taken, model.take());
      } else if (op < 96) {
        row.reset_flags();
        model.reset();
      } else {
        const auto added = static_cast<VertexId>(1 + rng() % 200);
        row.grow(added);
        model.grow(added);
        n += added;
      }
      expect_queue_matches(row, model);
      if (HasFatalFailure()) return;
    }
  }
}

// Checks that `row` is in exactly the state DvRow(self, row.size()) builds:
// every column's distance, next hop and flags, the counts, aggregates and
// harmonic value, the footprint, and — through one identical follow-up
// sequence on both — the overflow state of the three column lists.
void expect_same_as_fresh(DvRow& row, VertexId self) {
  DvRow fresh(self, row.size());
  ASSERT_EQ(row.self(), self);
  ASSERT_EQ(row.dists(), fresh.dists());
  ASSERT_EQ(row.next_hops(), fresh.next_hops());
  for (VertexId t = 0; t < row.size(); ++t) {
    ASSERT_FALSE(row.test_flag(t, DvRow::kDirty)) << t;
    ASSERT_FALSE(row.test_flag(t, DvRow::kQueued)) << t;
  }
  ASSERT_EQ(row.finite_count(), 0u);
  ASSERT_EQ(row.finite_sum(), 0u);
  ASSERT_EQ(row.dirty_count(), 0u);
  ASSERT_EQ(row.queued_count(), 0u);
  ASSERT_EQ(row.harmonic(), fresh.harmonic());
  ASSERT_EQ(row.dirty_list_overflowed(), fresh.dirty_list_overflowed());
  ASSERT_EQ(row.footprint_bytes(), fresh.footprint_bytes());
  // A non-overflowed queue hands columns back in queueing order, an
  // overflowed one ascending; a non-overflowed reach list takes capacity
  // when a column turns finite, an overflowed one none.
  const VertexId a = self == 0 ? 1 : 0;
  const VertexId b = row.size() - 1 == self ? row.size() - 2 : row.size() - 1;
  std::vector<VertexId> got;
  std::vector<VertexId> want;
  for (DvRow* r : {&row, &fresh}) {
    r->mark_queued(b);
    r->mark_queued(a);
    r->set(a, 3, a);
    r->mark_dirty(a);
  }
  row.take_queued(got);
  fresh.take_queued(want);
  ASSERT_EQ(got, want);
  ASSERT_EQ(row.footprint_bytes(), fresh.footprint_bytes());
  ASSERT_EQ(row.harmonic(), fresh.harmonic());
}

// Fuzz: reset(s') must return any row to DvRow(s', n), whatever ran on it
// before — sets (finite, and kInfDist with or without a next hop), dirty
// and queued marks, takes, bulk clears, grows and wire construction — on
// both sides of every list's n/64 cap. Short sequences keep the lists
// under the cap and reset() on its list path; long ones with the full
// column pool, above all those without takes or bulk clears, overflow
// them. A grow leaves capacity slack, which reset() rebuilds;
// shrink_to_fit() removes it again so grown rows also reach the list path.
TEST(DvRow, ResetMatchesFreshRow) {
  std::mt19937 rng(20261028);
  std::vector<VertexId> taken;
  for (int round = 0; round < 120; ++round) {
    VertexId n = round % 2 == 0 ? 256 : 700;
    const VertexId pool = round % 3 == 0 ? 4 : round % 3 == 1 ? 16 : n;
    const int steps = round % 4 == 0 ? 8 : round % 4 == 1 ? 40 : 400;
    const bool grows = round % 5 == 0;
    const bool clears = (round / 4) % 3 != 0;  // else the lists only grow
    const auto self = static_cast<VertexId>(rng() % n);
    DvRow row(self, n);
    if (round % 5 == 1) {
      // Dense wire rows overflow the reach list at once; sparse ones keep
      // it, and reset() on its list path.
      const unsigned every = (round / 5) % 2 == 0 ? 4 : 128;
      std::vector<Dist> d(n, kInfDist);
      std::vector<VertexId> nh(n, kNoVertex);
      for (VertexId t = 0; t < n; ++t) {
        if (t != self && rng() % every == 0) {
          d[t] = rng() % 3 == 0 ? kInfDist : 1 + rng() % 50;
          nh[t] = static_cast<VertexId>(rng() % n);
        }
      }
      d[self] = 0;
      row = DvRow(self, std::move(d), std::move(nh));
    }
    for (int step = 0; step < steps; ++step) {
      const auto op = rng() % 100;
      const auto t = static_cast<VertexId>(rng() % std::min(pool, n));
      if (op < 35) {
        if (t != row.self()) {
          // An infinite entry gets a next hop now and then too: reset()
          // must clear it although the column never turned finite.
          const bool inf = rng() % 6 == 0;
          const bool hop = !inf || rng() % 2 == 0;
          row.set(t, inf ? kInfDist : 1 + rng() % 1000,
                  hop ? static_cast<VertexId>(rng() % n) : kNoVertex);
        }
      } else if (op < 55) {
        row.mark_dirty(t);
      } else if (op < 60) {
        (void)row.clear_dirty(t);
      } else if (op < 80) {
        row.mark_queued(t);
      } else if (op < 86) {
        clears ? row.take_queued(taken) : (void)row.mark_queued(t);
      } else if (op < 91) {
        clears ? (void)row.clear_all_dirty() : (void)row.mark_dirty(t);
      } else if (op < 94) {
        if (clears) row.reset_flags();
      } else if (grows && op < 97) {
        const auto added = static_cast<VertexId>(1 + rng() % 64);
        row.grow(added);
        n += added;
      } else if (grows) {
        row.shrink_to_fit();
      }
    }
    (void)row.harmonic();  // a valid cache must not survive the reset
    const auto next = static_cast<VertexId>(rng() % n);
    row.reset(next);
    expect_same_as_fresh(row, next);
    if (HasFatalFailure()) return;
  }
}

TEST(DvRow, RowQueueTakesInOrderUnderCapAscendingPastIt) {
  DvRow row(0, 128);  // cap: 2 ids
  std::vector<VertexId> taken;
  EXPECT_TRUE(row.mark_queued(9));
  EXPECT_TRUE(row.mark_queued(4));
  EXPECT_FALSE(row.mark_queued(9));  // already queued: no second id
  EXPECT_EQ(row.queued_count(), 2u);
  row.take_queued(taken);
  EXPECT_EQ(taken, (std::vector<VertexId>{9, 4}));  // queueing order
  EXPECT_EQ(row.queued_count(), 0u);
  row.take_queued(taken);
  EXPECT_TRUE(taken.empty());

  // Re-marking after a take queues the column again.
  EXPECT_TRUE(row.mark_queued(9));
  EXPECT_TRUE(row.mark_queued(4));
  EXPECT_TRUE(row.mark_queued(1));  // third append crosses the cap
  row.take_queued(taken);
  EXPECT_EQ(taken, (std::vector<VertexId>{1, 4, 9}));  // flag scan
  for (const VertexId t : {1u, 4u, 9u}) {
    EXPECT_FALSE(row.test_flag(t, DvRow::kQueued));
  }

  // A reset drops queued columns and the overflow.
  for (const VertexId t : {7u, 3u, 5u}) EXPECT_TRUE(row.mark_queued(t));
  row.reset_flags();
  EXPECT_EQ(row.queued_count(), 0u);
  EXPECT_TRUE(row.mark_queued(3));
  row.take_queued(taken);
  EXPECT_EQ(taken, std::vector<VertexId>{3});

  // Growing the row raises the cap to 4.
  row.grow(128);
  for (const VertexId t : {200u, 6u, 2u, 100u}) EXPECT_TRUE(row.mark_queued(t));
  row.take_queued(taken);
  EXPECT_EQ(taken, (std::vector<VertexId>{200, 6, 2, 100}));
}


// select_improving against a brute-force filter: it picks exactly the
// entries whose base + w is below the row's entry, in entry order, and
// writes each pick's sum. Sums at and past kInfDist (huge bases or
// weights) never improve; an undelivered poison marker (kInfDist) is
// picked like any infinite entry.
TEST(DvRow, SelectImprovingPicksStrictImprovementsInOrder) {
  std::mt19937 rng(20261021);
  std::vector<std::pair<VertexId, Dist>> picks;
  for (int round = 0; round < 200; ++round) {
    const VertexId n = 50 + static_cast<VertexId>(rng() % 200);
    DvRow row(0, n);
    for (VertexId t = 1; t < n; ++t) {
      if (rng() % 4 != 0) row.set(t, 1 + static_cast<Dist>(rng() % 40), 0);
    }
    std::vector<VertexId> cols(n);
    for (VertexId t = 0; t < n; ++t) cols[t] = t;
    std::shuffle(cols.begin(), cols.end(), rng);
    cols.resize(rng() % n);
    const Weight w = rng() % 8 == 0 ? kInfDist - 1 - static_cast<Weight>(rng() % 3)
                                    : 1 + static_cast<Weight>(rng() % 5);
    std::vector<std::pair<VertexId, Dist>> entries;
    std::vector<std::pair<VertexId, Dist>> want;
    for (const VertexId t : cols) {
      const Dist base = rng() % 16 == 0 ? kInfDist - 1 - static_cast<Dist>(rng() % 3)
                                        : static_cast<Dist>(rng() % 40);
      entries.emplace_back(t, base);
      const Dist nd = dist_add(base, w);
      if (nd < row.dist(t)) want.emplace_back(t, nd);
    }
    const std::size_t k = row.select_improving(entries, w, picks);
    ASSERT_EQ(k, want.size());
    ASSERT_GE(picks.size(), entries.size());
    for (std::size_t i = 0; i < k; ++i) ASSERT_EQ(picks[i], want[i]) << i;
  }
}

// Fuzz: relax_batch must leave a row exactly as the per-entry sequence
// set → mark_dirty → mark_queued leaves it, with an undelivered poison
// marker (kInfDist, kDirty set) untouched and handed to the callback
// instead, and return that sequence's counts. Before the batch each of the
// dirty, queue and reach lists holds a random number of ids below, at or
// past its n/64 cap, so batches run on both paths, and a batch may carry a
// list across its cap. Batch columns may be already dirty, already queued,
// infinite (a reach push) or markers; batches may be empty.
TEST(DvRow, RelaxBatchMatchesPerEntry) {
  std::mt19937 rng(20261020);
  const auto below = [&](std::size_t bound) {
    return bound == 0 ? std::size_t{0} : rng() % bound;
  };
  std::vector<VertexId> got_cols;
  std::vector<VertexId> want_cols;
  int fast = 0;
  for (int round = 0; round < 900; ++round) {
    const VertexId n = std::array<VertexId, 3>{64, 320, 1000}[round % 3];
    const std::size_t cap = n / DvRow::kScanDensityInverse;
    const auto self = static_cast<VertexId>(below(n));
    DvRow got(self, n);
    DvRow want(self, n);
    const auto both = [&](auto&& op) {
      op(got);
      op(want);
    };
    std::vector<VertexId> cols;
    for (VertexId t = 0; t < n; ++t) {
      if (t != self) cols.push_back(t);
    }
    const auto pick = [&] { return cols[below(cols.size())]; };

    // Prior state: finite columns (reach pushes), some of them turned into
    // markers, then dirty and queued marks, each count in [0, 2 cap + 2].
    std::shuffle(cols.begin(), cols.end(), rng);
    const std::size_t reach = below(2 * cap + 3);
    for (std::size_t i = 0; i < reach; ++i) {
      const VertexId t = cols[i];
      const auto d = static_cast<Dist>(1 + below(60));
      const auto hop = static_cast<VertexId>(below(n));
      both([&](DvRow& r) { r.set(t, d, hop); });
      if (below(6) == 0) {
        both([&](DvRow& r) {
          r.set(t, kInfDist, kNoVertex);
          r.mark_dirty(t);
        });
      }
    }
    const std::size_t dirty = below(2 * cap + 3);
    for (std::size_t i = 0; i < dirty; ++i) {
      const VertexId t = pick();
      both([&](DvRow& r) { r.mark_dirty(t); });
    }
    const std::size_t queued = below(2 * cap + 3);
    for (std::size_t i = 0; i < queued; ++i) {
      const VertexId t = pick();
      both([&](DvRow& r) { r.mark_queued(t); });
    }
    ASSERT_EQ(got.harmonic(), want.harmonic());  // both caches fresh

    // The batch: distinct columns in random order, each improving.
    std::shuffle(cols.begin(), cols.end(), rng);
    const std::size_t sizes[] = {0, 1 + below(cap), cap + below(2 * cap + 2),
                                 below(cols.size())};
    const std::size_t m = sizes[below(4)];
    std::vector<std::pair<VertexId, Dist>> cands;
    for (std::size_t i = 0; i < m; ++i) {
      const VertexId t = cols[i];
      const Dist cur = want.dist(t);
      if (cur == kInfDist) {
        cands.emplace_back(t, static_cast<Dist>(1 + below(100)));
      } else if (cur > 1) {
        cands.emplace_back(t, static_cast<Dist>(1 + below(cur - 1)));
      }
    }
    const auto nh = static_cast<VertexId>(below(n));

    DvRow::BatchCounts want_counts;
    std::vector<VertexId> want_markers;
    for (const auto& [t, nd] : cands) {
      if (want.dist(t) == kInfDist && want.test_flag(t, DvRow::kDirty)) {
        want_markers.push_back(t);
        continue;
      }
      want.set(t, nd, nh);
      want_counts.dirtied += want.mark_dirty(t) ? 1 : 0;
      want_counts.queued += want.mark_queued(t) ? 1 : 0;
      ++want_counts.relaxed;
    }
    std::vector<VertexId> got_markers;
    const DvRow::BatchCounts got_counts = got.relax_batch(
        cands, nh, [&](VertexId t) { got_markers.push_back(t); });

    SCOPED_TRACE(::testing::Message()
                 << "round " << round << " n " << n << " reach " << reach
                 << " dirty " << dirty << " queued " << queued << " batch "
                 << cands.size());
    ASSERT_EQ(got_counts.relaxed, want_counts.relaxed);
    ASSERT_EQ(got_counts.dirtied, want_counts.dirtied);
    ASSERT_EQ(got_counts.queued, want_counts.queued);
    ASSERT_EQ(got_markers, want_markers);
    ASSERT_EQ(got.dists(), want.dists());
    ASSERT_EQ(got.next_hops(), want.next_hops());
    for (VertexId t = 0; t < n; ++t) {
      ASSERT_EQ(got.test_flag(t, DvRow::kDirty), want.test_flag(t, DvRow::kDirty))
          << t;
      ASSERT_EQ(got.test_flag(t, DvRow::kQueued),
                want.test_flag(t, DvRow::kQueued))
          << t;
    }
    ASSERT_EQ(got.finite_sum(), want.finite_sum());
    ASSERT_EQ(got.finite_count(), want.finite_count());
    ASSERT_EQ(got.harmonic(), want.harmonic());
    ASSERT_EQ(got.dirty_count(), want.dirty_count());
    ASSERT_EQ(got.queued_count(), want.queued_count());
    ASSERT_EQ(got.dirty_list_overflowed(), want.dirty_list_overflowed());
    ASSERT_EQ(got.footprint_bytes(), want.footprint_bytes());
    got.sorted_dirty(got_cols);
    want.sorted_dirty(want_cols);
    ASSERT_EQ(got_cols, want_cols);
    got.sorted_finite(got_cols);
    want.sorted_finite(want_cols);
    ASSERT_EQ(got_cols, want_cols);
    got.take_queued(got_cols);
    want.take_queued(want_cols);
    ASSERT_EQ(got_cols, want_cols);
    if (reach > cap && dirty > cap && queued > cap) ++fast;
  }
  EXPECT_GT(fast, 50);  // rounds whose prior marks pass every list cap
}

}  // namespace
}  // namespace aacc
