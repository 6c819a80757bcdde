// Tiered DV row store (DESIGN.md §"Tiered DV storage"): the cold codec
// must round-trip every observable bit of a row, the LRU admission policy
// must respect the byte budget and the boundary/recency ordering, and —
// the load-bearing contract — a tiered run must be bit-identical to the
// resident oracle across every dynamic scenario and budget, including the
// checkpoint blobs it writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>

#include "common/parallel.hpp"
#include "core/dv_store.hpp"
#include "test_util.hpp"

namespace aacc {
namespace {

using test::grow_vertices;
using test::make_ba;
using test::make_er;

// ------------------------------------------------------------ codec fuzz

/// Random row with holes, a random dirty subset, and a few poison markers
/// (dirty columns whose distance is back to kInfDist).
DvRow random_row(VertexId n, Rng& rng) {
  const auto self = static_cast<VertexId>(rng.next_below(n));
  DvRow row(self, n);
  for (VertexId t = 0; t < n; ++t) {
    if (t == self || rng.next_bool(0.4)) continue;
    row.set(t, static_cast<Dist>(1 + rng.next_below(1000)),
            static_cast<VertexId>(rng.next_below(n)));
    if (rng.next_bool(0.3)) row.mark_dirty(t);
  }
  for (int k = 0; k < 3; ++k) {
    const auto t = static_cast<VertexId>(rng.next_below(n));
    if (t != self && row.dist(t) == kInfDist) row.mark_dirty(t);
  }
  return row;
}

void expect_rows_equal(const DvRow& a, const DvRow& b) {
  ASSERT_EQ(a.self(), b.self());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.dists(), b.dists());
  EXPECT_EQ(a.next_hops(), b.next_hops());
  EXPECT_EQ(a.finite_count(), b.finite_count());
  EXPECT_EQ(a.finite_sum(), b.finite_sum());
  EXPECT_EQ(a.dirty_count(), b.dirty_count());
  std::vector<VertexId> da;
  std::vector<VertexId> db;
  a.sorted_dirty(da);
  b.sorted_dirty(db);
  EXPECT_EQ(da, db);
}

TEST(ColdCodec, RoundTripFuzz) {
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    const auto n = static_cast<VertexId>(2 + rng.next_below(120));
    const DvRow row = random_row(n, rng);
    const ColdDvRow cold = encode_cold_row(row);
    EXPECT_EQ(cold.self, row.self());
    EXPECT_EQ(cold.columns, row.size());
    EXPECT_EQ(cold.finite, row.finite_count());
    EXPECT_EQ(cold.sum, row.finite_sum());
    expect_rows_equal(decode_cold_row(cold), row);
  }
}

TEST(ColdCodec, ArrayOverloadMatchesDenseEncode) {
  // The checkpoint-restore fast path encodes straight from the packed value
  // arrays; it must produce the same blob + aggregates as the dense path.
  Rng rng(8);
  for (int iter = 0; iter < 50; ++iter) {
    const auto n = static_cast<VertexId>(2 + rng.next_below(90));
    const DvRow row = random_row(n, rng);
    const ColdDvRow a = encode_cold_row(row);
    std::vector<VertexId> dirty;
    row.sorted_dirty(dirty);
    const ColdDvRow b = encode_cold_row(row.self(), row.dists(),
                                        row.next_hops(), std::move(dirty));
    EXPECT_EQ(a.blob, b.blob);
    EXPECT_EQ(a.dirty, b.dirty);
    EXPECT_EQ(a.finite, b.finite);
    EXPECT_EQ(a.sum, b.sum);
  }
}

TEST(ColdCodec, SerializeRowIsResidencyOblivious) {
  // The checkpoint layout of a row must be byte-identical whether the slot
  // is hot or cold (cold rows transcode without a dense round-trip).
  Rng rng(9);
  for (int iter = 0; iter < 50; ++iter) {
    const auto n = static_cast<VertexId>(2 + rng.next_below(90));
    DvRow row = random_row(n, rng);

    TieredDvStore store(kMinDvBudgetBytes);
    store.grow_columns(n);
    store.append(DvRow(row.self(), n));
    rt::ByteWriter hot_w;
    store.put(0, DvRow(row));  // hot
    store.serialize_row(0, hot_w);

    std::vector<VertexId> dirty;
    row.sorted_dirty(dirty);
    store.put_restored(0, row.self(), row.dists(), row.next_hops(),
                       std::move(dirty));
    ASSERT_FALSE(store.is_hot(0));
    rt::ByteWriter cold_w;
    store.serialize_row(0, cold_w);
    EXPECT_EQ(hot_w.take(), cold_w.take());
  }
}

// --------------------------------------------------- residency invariants

TEST(TieredLru, MaintainDemotesDownToBudget) {
  const VertexId n = 64;
  Rng rng(11);
  TieredDvStore store(3 * 4096);
  store.grow_columns(n);
  for (VertexId v = 0; v < n; ++v) store.append_fresh(v);
  EXPECT_EQ(store.size(), static_cast<std::size_t>(n));
  // Fresh rows are born cold: no dense state materialized.
  for (std::size_t r = 0; r < store.size(); ++r) EXPECT_FALSE(store.is_hot(r));

  // Touch every row (promotes all), then maintain: residency must fall
  // back under the budget and the gauges must account for every slot.
  for (std::size_t r = 0; r < store.size(); ++r) (void)store.row(r);
  const std::vector<std::uint8_t> interior(n, 0);
  store.maintain(interior);
  EXPECT_LE(store.resident_bytes(), store.budget_bytes());
  EXPECT_GT(store.demotions(), 0u);
  std::size_t hot = 0;
  for (std::size_t r = 0; r < store.size(); ++r) hot += store.is_hot(r) ? 1 : 0;
  EXPECT_GT(hot, 0u);  // budget holds at least a couple of fresh rows
  EXPECT_LT(hot, store.size());
}

TEST(TieredLru, RecentlyTouchedAndBoundaryRowsSurvive) {
  const VertexId n = 48;
  TieredDvStore store(6 * 4096);
  store.grow_columns(n);
  for (VertexId v = 0; v < n; ++v) store.append_fresh(v);
  std::vector<std::uint8_t> boundary(n, 0);
  boundary[5] = 1;
  // Epoch 1: promote everything, settle residency.
  for (std::size_t r = 0; r < store.size(); ++r) (void)store.row(r);
  store.maintain(boundary);
  // Epoch 2: touch only rows 7 and 9.
  (void)store.row(7);
  (void)store.row(9);
  store.maintain(boundary);
  // The budget is comfortably bigger than three fresh rows, so the two
  // recently-touched rows and the boundary row must all still be hot.
  EXPECT_TRUE(store.is_hot(7));
  EXPECT_TRUE(store.is_hot(9));
  EXPECT_TRUE(store.is_hot(5));
}

TEST(TieredLru, ColdRowsAnswerMetadataWithoutPromotion) {
  Rng rng(13);
  const VertexId n = 40;
  TieredDvStore store(kMinDvBudgetBytes);
  store.grow_columns(n);
  std::vector<DvRow> reference;
  for (VertexId v = 0; v < n; ++v) {
    DvRow row = random_row(n, rng);
    reference.push_back(DvRow(row));
    store.append(std::move(row));
  }
  store.maintain(std::vector<std::uint8_t>(n, 0));
  bool saw_cold = false;
  for (std::size_t r = 0; r < store.size(); ++r) {
    const DvRow& ref = reference[r];
    saw_cold |= !store.is_hot(r);
    EXPECT_EQ(store.self(r), ref.self());
    EXPECT_EQ(store.finite_count(r), ref.finite_count());
    EXPECT_EQ(store.finite_sum(r), ref.finite_sum());
    EXPECT_EQ(store.dirty_count(r), ref.dirty_count());
    for (VertexId t = 0; t < n; ++t) {
      ASSERT_EQ(store.probe_dist(r, t), ref.dist(t)) << r << ":" << t;
      ASSERT_EQ(store.probe_next_hop(r, t), ref.next_hop(t)) << r << ":" << t;
    }
    // None of the metadata reads may have promoted the row.
    EXPECT_EQ(store.is_hot(r), store.is_hot(r));
  }
  EXPECT_TRUE(saw_cold);
  EXPECT_EQ(store.promotions(), 0u);
}

TEST(TieredLru, DirtyOpsWorkInPlaceOnColdRows) {
  Rng rng(17);
  // One row bigger than the whole budget, so maintain() must demote it.
  const VertexId n = 600;
  TieredDvStore store(kMinDvBudgetBytes);
  store.grow_columns(n);
  DvRow row = random_row(n, rng);
  const DvRow ref(row);
  store.append(std::move(row));
  store.maintain(std::vector<std::uint8_t>(1, 0));
  ASSERT_FALSE(store.is_hot(0));

  std::vector<VertexId> cols;
  std::vector<std::pair<VertexId, Dist>> entries;
  store.collect_dirty_entries(0, cols, entries);
  std::vector<VertexId> want_dirty;
  ref.sorted_dirty(want_dirty);
  ASSERT_EQ(entries.size(), want_dirty.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].first, want_dirty[i]);
    EXPECT_EQ(entries[i].second, ref.dist(want_dirty[i]));
  }

  EXPECT_EQ(store.retire_dirty(0), ref.dirty_count());
  EXPECT_EQ(store.dirty_count(0), 0u);
  EXPECT_EQ(store.mark_finite_dirty(0), ref.finite_count());
  VertexId finite = 0;
  while (finite == ref.self() || ref.dist(finite) == kInfDist) ++finite;
  EXPECT_TRUE(store.retire_dirty_one(0, finite));
  EXPECT_FALSE(store.retire_dirty_one(0, finite));
  EXPECT_EQ(store.dirty_count(0), ref.finite_count() - 1);
  ASSERT_FALSE(store.is_hot(0));  // everything stayed in compressed form

  // Promotion after in-place mutation must still reconstruct the values.
  const DvRow& dense = store.row(0);
  EXPECT_EQ(dense.dists(), ref.dists());
  EXPECT_EQ(dense.next_hops(), ref.next_hops());
  EXPECT_EQ(store.promotions(), 1u);
}

TEST(TieredLru, DenseDirtyCollectMatchesResident) {
  // Dirty densities on both sides of the hot row's sort/scan crossover:
  // the cold merge-join and the resident collect must emit the same
  // entries, poison markers (dirty, kInfDist) included.
  Rng rng(29);
  const VertexId n = 700;
  for (const double density : {0.005, 0.02, 0.5, 1.0}) {
    DvRow row(3, n);
    for (VertexId t = 0; t < n; ++t) {
      if (t == 3) continue;
      if (rng.next_bool(0.8)) {
        row.set(t, static_cast<Dist>(1 + rng.next_below(50)), 3);
      }
      if (rng.next_bool(density)) (void)row.mark_dirty(t);
    }
    ResidentDvStore resident;
    TieredDvStore tiered(kMinDvBudgetBytes);
    resident.grow_columns(n);
    tiered.grow_columns(n);
    resident.append(DvRow(row));
    tiered.append(DvRow(row));
    tiered.maintain(std::vector<std::uint8_t>(1, 0));
    ASSERT_FALSE(tiered.is_hot(0));

    std::vector<VertexId> cols;
    std::vector<std::pair<VertexId, Dist>> want;
    std::vector<std::pair<VertexId, Dist>> got;
    resident.collect_dirty_entries(0, cols, want);
    tiered.collect_dirty_entries(0, cols, got);
    EXPECT_EQ(got, want) << density;
    EXPECT_EQ(want.size(), row.dirty_count()) << density;
  }
}

// ------------------------------------------------------------ spare list

/// Footprint of a fresh (or reset) dense row: what one spare holds.
std::size_t spare_bytes_per_row(VertexId n) {
  return DvRow(0, n).footprint_bytes();
}

/// A row with a few finite and dirty columns: its reach and dirty lists
/// stay under the cap, so they hold storage a fresh row does not.
DvRow sparse_row(VertexId n, Rng& rng) {
  const auto self = static_cast<VertexId>(rng.next_below(n));
  DvRow row(self, n);
  for (int k = 0; k < 5; ++k) {
    const auto t = static_cast<VertexId>(rng.next_below(n));
    if (t == self) continue;
    row.set(t, static_cast<Dist>(1 + rng.next_below(50)),
            static_cast<VertexId>(rng.next_below(n)));
    if (k % 2 == 0) row.mark_dirty(t);
  }
  return row;
}

/// Appends hot rows as wide as the store (random_row, or sparse_row when
/// `sparse`); `reference` keeps copies.
void fill_hot(TieredDvStore& store, std::size_t rows, Rng& rng,
              std::vector<DvRow>& reference, bool sparse = false) {
  const VertexId n = store.global_columns();
  for (std::size_t r = 0; r < rows; ++r) {
    DvRow row = sparse ? sparse_row(n, rng) : random_row(n, rng);
    reference.push_back(DvRow(row));
    store.append(std::move(row));
  }
}

TEST(TieredSpares, PromotionReusesDemotedBufferAndDecodesLikeFresh) {
  const VertexId n = 512;
  Rng rng(71);
  TieredDvStore store(2 * spare_bytes_per_row(n));
  std::vector<DvRow> reference;
  store.grow_columns(n);
  fill_hot(store, 3, rng, reference);
  fill_hot(store, 3, rng, reference, /*sparse=*/true);
  std::set<const Dist*> buffers;
  for (std::size_t r = 0; r < store.size(); ++r) {
    buffers.insert(store.row(r).dists().data());
  }
  store.maintain(std::vector<std::uint8_t>(store.size(), 0));
  ASSERT_GT(store.demotions(), 0u);
  // Every demoted row fits under the high-water mark (the six hot rows),
  // and a spare is as big as a fresh row: its column lists were freed.
  EXPECT_EQ(store.spare_bytes(), store.demotions() * spare_bytes_per_row(n));

  for (std::size_t r = 0; r < store.size(); ++r) {
    if (store.is_hot(r)) continue;
    const std::uint64_t spare_before = store.spare_bytes();
    const DvRow& row = store.row(r);
    EXPECT_EQ(store.spare_bytes(), spare_before - spare_bytes_per_row(n));
    EXPECT_EQ(buffers.count(row.dists().data()), 1u) << "row " << r;
    // Bit-identical to a fresh decode of the same cold form, down to the
    // column lists' footprint, the budget's currency.
    const DvRow fresh = decode_cold_row(encode_cold_row(reference[r]));
    expect_rows_equal(row, fresh);
    EXPECT_EQ(row.footprint_bytes(), fresh.footprint_bytes());
    EXPECT_EQ(row.harmonic(), fresh.harmonic());
    EXPECT_EQ(row.queued_count(), 0u);
  }
  EXPECT_EQ(store.spare_bytes(), 0u);
}

TEST(TieredSpares, HotPlusSpareStaysUnderHighWaterMark) {
  // Random promotions and edits between maintain() calls: after each one,
  // hot plus spare bytes must not exceed the largest hot total the store
  // has reached, and promotions must actually draw on the spares. Rows
  // appended hot while spares wait (as a migration would) raise hot bytes
  // without taking a spare, so the bound has to drop spares then.
  const VertexId n = 256;
  Rng rng(73);
  TieredDvStore store(3 * spare_bytes_per_row(n));
  std::vector<DvRow> reference;
  store.grow_columns(n);
  fill_hot(store, 16, rng, reference);
  std::uint64_t high_water = 0;
  std::size_t reused = 0;
  std::size_t appended_over_spares = 0;
  for (int round = 0; round < 40; ++round) {
    if (round % 4 == 3) {
      appended_over_spares += store.spare_bytes() > 0 ? 1 : 0;
      store.append(random_row(n, rng));
    }
    const std::size_t touches = 1 + rng.next_below(round % 5 == 0 ? 16 : 6);
    for (std::size_t k = 0; k < touches; ++k) {
      const auto r = static_cast<std::size_t>(rng.next_below(store.size()));
      const bool was_cold = !store.is_hot(r);
      const std::uint64_t spare_before = store.spare_bytes();
      DvRow& row = store.row(r);
      reused += was_cold && store.spare_bytes() < spare_before ? 1 : 0;
      const auto t = static_cast<VertexId>(rng.next_below(n));
      if (t != row.self() && row.dist(t) == kInfDist) {
        row.set(t, static_cast<Dist>(1 + rng.next_below(100)), t);
        row.mark_dirty(t);
      }
    }
    std::uint64_t hot = 0;
    for (std::size_t r = 0; r < store.size(); ++r) {
      if (store.is_hot(r)) hot += store.row(r).footprint_bytes();
    }
    high_water = std::max(high_water, hot);
    store.maintain(std::vector<std::uint8_t>(store.size(), 0));
    EXPECT_LE(store.resident_bytes() + store.spare_bytes(), high_water)
        << "round " << round;
  }
  EXPECT_GT(reused, 0u);
  EXPECT_GT(appended_over_spares, 0u);
}

TEST(TieredSpares, DroppedOnColumnGrowthClearAndRestore) {
  const VertexId n = 300;
  Rng rng(79);
  const std::vector<std::uint8_t> interior(8, 0);
  TieredDvStore store(kMinDvBudgetBytes);
  std::vector<DvRow> reference;
  store.grow_columns(n);
  fill_hot(store, 8, rng, reference);
  store.maintain(interior);
  ASSERT_GT(store.spare_bytes(), 0u);

  // A vertex addition widens every row: the spares are the old width.
  store.grow_columns(1);
  EXPECT_EQ(store.spare_bytes(), 0u);
  for (std::size_t r = 0; r < store.size(); ++r) {
    EXPECT_EQ(store.row(r).size(), n + 1);
  }
  store.maintain(interior);
  ASSERT_GT(store.spare_bytes(), 0u);
  store.release_spares();
  EXPECT_EQ(store.spare_bytes(), 0u);

  // Restore rebuilds the rows as RankEngine::restore does: clear, widen,
  // put the checkpointed rows.
  for (std::size_t r = 0; r < store.size(); ++r) (void)store.row(r);
  store.maintain(interior);
  ASSERT_GT(store.spare_bytes(), 0u);
  store.clear();
  EXPECT_EQ(store.spare_bytes(), 0u);
  store.grow_columns(n);
  for (const DvRow& ref : reference) {
    store.append_fresh(ref.self());
    std::vector<VertexId> dirty;
    ref.sorted_dirty(dirty);
    store.put_restored(store.size() - 1, ref.self(), ref.dists(),
                       ref.next_hops(), std::move(dirty));
  }
  EXPECT_EQ(store.spare_bytes(), 0u);
  for (std::size_t r = 0; r < store.size(); ++r) {
    expect_rows_equal(store.row(r), reference[r]);
  }
}

TEST(TieredSpares, ConcurrentPromotionsShareTheSpares) {
  // IA workers promote through row() concurrently; the spare list is taken
  // under the promotion mutex. Three workers promote disjoint cold rows
  // while spares exist (CI runs this suite under TSan).
  const VertexId n = 400;
  Rng rng(83);
  TieredDvStore store(kMinDvBudgetBytes);
  std::vector<DvRow> reference;
  store.grow_columns(n);
  fill_hot(store, 24, rng, reference);
  store.maintain(std::vector<std::uint8_t>(store.size(), 0));
  std::size_t cold = 0;
  for (std::size_t r = 0; r < store.size(); ++r) cold += store.is_hot(r) ? 0 : 1;
  const std::uint64_t spares = store.spare_bytes() / spare_bytes_per_row(n);
  ASSERT_GT(spares, 0u);
  ASSERT_GT(cold, 3u);

  std::atomic<std::size_t> cursor{0};
  run_workers(3, [&](std::size_t) {
    for (;;) {
      const std::size_t r = cursor.fetch_add(1, std::memory_order_relaxed);
      if (r >= store.size()) break;
      (void)store.row(r);
    }
  });
  EXPECT_EQ(store.promotions(), cold);
  EXPECT_EQ(store.spare_bytes(),
            (spares - std::min<std::uint64_t>(spares, cold)) *
                spare_bytes_per_row(n));
  for (std::size_t r = 0; r < store.size(); ++r) {
    const DvRow fresh = decode_cold_row(encode_cold_row(reference[r]));
    expect_rows_equal(store.row(r), fresh);
    EXPECT_EQ(store.row(r).footprint_bytes(), fresh.footprint_bytes());
  }
}

// ------------------------------------------- resident vs tiered equivalence

EngineConfig matrix_cfg(std::uint64_t budget) {
  EngineConfig cfg;
  cfg.num_ranks = 4;
  cfg.dv_budget_bytes = budget;
  cfg.transport.retry_backoff = std::chrono::microseconds(1);
  cfg.transport.recv_timeout = std::chrono::seconds(60);
  return cfg;
}

/// Budgets spanning the residency spectrum on the small matrix graphs:
/// 0 = resident oracle, 8 MB keeps everything hot (0% cold), 64 KB mixes
/// (~50% cold), and the floor forces ~95% cold.
const std::uint64_t kBudgets[] = {8u << 20, 64u << 10, kMinDvBudgetBytes};

/// Residency changes *where* rows live, never what the engine computes:
/// the converged values and the full cost ledger (wire bytes,
/// relaxation/poison counts) must match bit for bit.
void expect_identical(const RunResult& want, const RunResult& got,
                      const std::string& label) {
  ASSERT_EQ(want.closeness.size(), got.closeness.size()) << label;
  for (VertexId v = 0; v < want.closeness.size(); ++v) {
    ASSERT_EQ(want.closeness[v], got.closeness[v]) << label << " vertex " << v;
    ASSERT_EQ(want.harmonic[v], got.harmonic[v]) << label << " vertex " << v;
  }
  EXPECT_EQ(want.stats.rc_steps, got.stats.rc_steps) << label;
  EXPECT_EQ(want.stats.total_bytes, got.stats.total_bytes) << label;
  EXPECT_EQ(want.stats.total_messages, got.stats.total_messages) << label;
  std::uint64_t want_relax = 0;
  std::uint64_t got_relax = 0;
  std::uint64_t want_poison = 0;
  std::uint64_t got_poison = 0;
  for (const StepStats& s : want.stats.steps) {
    want_relax += s.relaxations;
    want_poison += s.poisons;
  }
  for (const StepStats& s : got.stats.steps) {
    got_relax += s.relaxations;
    got_poison += s.poisons;
  }
  EXPECT_EQ(want_relax, got_relax) << label;
  EXPECT_EQ(want_poison, got_poison) << label;
}

EventSchedule dynamic_schedule(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  EventSchedule sched;
  EventBatch b1;
  b1.at_step = 1;
  const auto edges = g.edges();
  for (int i = 0; i < 4; ++i) {
    const auto& [u, v, w] = edges[rng.next_below(edges.size())];
    (void)w;
    b1.events.emplace_back(EdgeDeleteEvent{u, v});
  }
  sched.push_back(std::move(b1));
  EventBatch b2;
  b2.at_step = 3;
  Graph after = g;
  for (const Event& e : sched[0].events) apply_event(after, e);
  b2.events = grow_vertices(after, 8, 2, rng);
  sched.push_back(std::move(b2));
  return sched;
}

TEST(TieredEquivalence, StaticAndDynamicAcrossBudgets) {
  const Graph g = make_er(110, 330, 31, WeightRange{1, 5});
  const EventSchedule sched = dynamic_schedule(g, 41);
  RunResult oracle;
  {
    AnytimeEngine engine(g, matrix_cfg(0));
    oracle = engine.run(sched);
  }
  EXPECT_EQ(oracle.stats.dv_spare_bytes, 0u);  // the resident store never demotes
  for (const std::uint64_t budget : kBudgets) {
    AnytimeEngine engine(g, matrix_cfg(budget));
    const RunResult tiered = engine.run(sched);
    expect_identical(oracle, tiered, "budget=" + std::to_string(budget));
    if (budget == kMinDvBudgetBytes) {
      EXPECT_GT(tiered.stats.dv_demotions, 0u) << "floor budget stayed hot";
      EXPECT_GT(tiered.stats.dv_cold_bytes, 0u);
      EXPECT_GT(tiered.stats.dv_spare_bytes, 0u) << "no demoted buffer kept";
    }
  }
}

TEST(TieredEquivalence, RepartitionMigratesResidency) {
  // A rebalance-triggering run migrates rows between ranks; cold rows must
  // migrate correctly (take() promotes, put() re-admits).
  const Graph g = make_ba(130, 2, 37);
  Rng rng(43);
  EventSchedule sched;
  EventBatch b;
  b.at_step = 1;
  b.events = grow_vertices(g, 20, 2, rng);  // skews load, triggers rebalance
  sched.push_back(std::move(b));

  for (const std::uint64_t budget : {std::uint64_t{0}, kMinDvBudgetBytes}) {
    EngineConfig cfg = matrix_cfg(budget);
    cfg.rebalance_threshold = 1.2;
    AnytimeEngine engine(g, cfg);
    const RunResult r = engine.run(sched);
    static RunResult oracle;
    if (budget == 0) {
      oracle = r;
    } else {
      expect_identical(oracle, r, "repartition budget=" + std::to_string(budget));
    }
  }
}

TEST(TieredEquivalence, CheckpointBlobsAreResidencyOblivious) {
  // The mid-run checkpoint written by a tiered run must be byte-identical
  // to the resident one (serialize_row transcodes cold rows), and resuming
  // from it — under either store — must land on the same answer.
  const Graph g = make_er(100, 300, 47, WeightRange{1, 4});
  const EventSchedule sched = dynamic_schedule(g, 53);

  EngineConfig cfg = matrix_cfg(0);
  cfg.checkpoint_at_step = 2;
  RunResult resident_cp;
  {
    AnytimeEngine engine(g, cfg);
    resident_cp = engine.run(sched);
  }
  ASSERT_TRUE(resident_cp.checkpoint.valid());

  cfg.dv_budget_bytes = kMinDvBudgetBytes;
  RunResult tiered_cp;
  {
    AnytimeEngine engine(g, cfg);
    tiered_cp = engine.run(sched);
  }
  ASSERT_TRUE(tiered_cp.checkpoint.valid());
  ASSERT_EQ(resident_cp.checkpoint.rank_blobs.size(),
            tiered_cp.checkpoint.rank_blobs.size());
  for (std::size_t r = 0; r < resident_cp.checkpoint.rank_blobs.size(); ++r) {
    EXPECT_EQ(resident_cp.checkpoint.rank_blobs[r],
              tiered_cp.checkpoint.rank_blobs[r])
        << "rank " << r << " checkpoint blob differs";
  }

  // Cross-resume: tiered checkpoint into a resident engine and vice versa.
  EngineConfig resume_resident = matrix_cfg(0);
  EngineConfig resume_tiered =
      matrix_cfg(kMinDvBudgetBytes);
  AnytimeEngine a(g, tiered_cp.checkpoint, resume_resident);
  const RunResult ra = a.run(sched);
  AnytimeEngine b(g, resident_cp.checkpoint, resume_tiered);
  const RunResult rb = b.run(sched);
  expect_identical(ra, rb, "cross-resume");
}

TEST(TieredEquivalence, ChaosRecovery) {
  // Crash a rank mid-run under the rollback rung: every rank deserializes
  // its snapshot blob and replays. Tiered stores must restore into cold
  // form budgets and still converge to the oracle's bits.
  const Graph g = make_er(100, 300, 59, WeightRange{1, 4});
  const EventSchedule sched = dynamic_schedule(g, 61);

  EngineConfig cfg = matrix_cfg(0);
  cfg.checkpoint_every = 1;
  cfg.recovery_policy = {{RecoveryPolicy::kRollback, 0}};
  cfg.faults.crashes.push_back({1, 2});
  cfg.transport.retry_backoff = std::chrono::microseconds(1);

  RunResult oracle;
  {
    AnytimeEngine engine(g, cfg);
    oracle = engine.run(sched);
  }
  EXPECT_GE(oracle.stats.recoveries, 1u);

  for (const std::uint64_t budget : {std::uint64_t{64} << 10,
                                     std::uint64_t{kMinDvBudgetBytes}}) {
    EngineConfig tcfg = cfg;
    tcfg.dv_budget_bytes = budget;
    AnytimeEngine engine(g, tcfg);
    const RunResult r = engine.run(sched);
    EXPECT_EQ(r.stats.recoveries, oracle.stats.recoveries);
    expect_identical(oracle, r, "chaos budget=" + std::to_string(budget));
  }
}

}  // namespace
}  // namespace aacc
