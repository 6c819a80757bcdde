// The per-row harmonic cache (DvRow / ColdDvRow) under churn: every edge
// and vertex event kind plus repartition, resident and at the smallest
// tiered budget. At every RC step the cached values must equal a fresh
// ascending sum bit for bit (the validate_each_step invariant check), and
// E3's per-step harmonic estimates must equal harmonic_from_row over that
// step's distance rows.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/closeness.hpp"
#include "core/dv_store.hpp"
#include "serve/session.hpp"
#include "test_util.hpp"

namespace aacc {
namespace {

using test::grow_vertices;
using test::make_er;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ------------------------------------------------------- store level

/// Every row's cached value equals both a fresh ascending sum over the
/// store's entries and the resident oracle's, bit for bit.
void expect_cache_fresh(const DvStore& store, const DvStore& oracle,
                        const char* after) {
  ASSERT_EQ(store.size(), oracle.size()) << after;
  for (std::size_t i = 0; i < store.size(); ++i) {
    const double cached = store.harmonic(i);
    EXPECT_TRUE(same_bits(cached, store.harmonic_uncached(i)))
        << after << " row " << i << (store.is_hot(i) ? " (hot)" : " (cold)");
    EXPECT_TRUE(same_bits(cached, oracle.harmonic(i)))
        << after << " row " << i << " vs the resident store";
  }
}

TEST(HarmonicCache, EveryStoreWritePathKeepsTheValueFresh) {
  // The same operation sequence on a resident store and a tiered store at
  // the smallest budget, so the tiered rows cross every cold write path:
  // append_fresh, install_ia's fresh-cold encode, demotion, tombstone,
  // column growth, the restore encode and writes through promoted rows.
  Rng rng(41);
  const VertexId n = 60;
  ResidentDvStore resident;
  TieredDvStore tiered(kMinDvBudgetBytes);
  DvStore* stores[] = {&resident, &tiered};
  for (DvStore* s : stores) {
    s->grow_columns(n);
    for (VertexId v = 0; v < n; ++v) s->append_fresh(v);
  }
  expect_cache_fresh(tiered, resident, "append_fresh");

  std::vector<Dist> dist(n);
  std::vector<VertexId> hop(n);
  for (VertexId src = 0; src < n; ++src) {
    std::vector<VertexId> touched;
    for (VertexId t = 0; t < n; ++t) {
      if (t != src && rng.next_bool(0.3)) continue;
      touched.push_back(t);
      dist[t] = t == src ? 0 : static_cast<Dist>(1 + rng.next_below(9));
      hop[t] = static_cast<VertexId>(rng.next_below(n));
    }
    for (std::size_t k = touched.size(); k > 1; --k) {  // a settle order
      std::swap(touched[k - 1], touched[rng.next_below(k)]);
    }
    for (DvStore* s : stores) s->install_ia(src, src, touched, dist, hop);
  }
  ASSERT_FALSE(tiered.is_hot(0));
  expect_cache_fresh(tiered, resident, "install_ia");

  const auto write_some = [&](const char* after) {
    for (int k = 0; k < 40; ++k) {
      const auto i = static_cast<std::size_t>(rng.next_below(n));
      const auto t = static_cast<VertexId>(rng.next_below(n));
      if (t == resident.self(i)) continue;
      const Dist d = rng.next_bool(0.2)
                         ? kInfDist
                         : static_cast<Dist>(1 + rng.next_below(9));
      for (DvStore* s : stores) s->row(i).set(t, d, 0);
    }
    expect_cache_fresh(tiered, resident, after);
    for (DvStore* s : stores) {
      s->maintain(std::vector<std::uint8_t>(s->size(), 0));
    }
    expect_cache_fresh(tiered, resident, "maintain");
  };
  write_some("set");
  ASSERT_GT(tiered.demotions(), 0u);

  for (const VertexId v : {VertexId{3}, VertexId{17}, VertexId{42}}) {
    for (DvStore* s : stores) {
      for (std::size_t i = 0; i < s->size(); ++i) {
        if (s->self(i) != v) (void)s->tombstone_column(i, v);
      }
    }
  }
  expect_cache_fresh(tiered, resident, "tombstone_column");

  for (DvStore* s : stores) s->grow_columns(7);
  expect_cache_fresh(tiered, resident, "grow_columns");

  for (std::size_t i = 0; i < n; i += 5) {
    const DvRow src = resident.row(i);  // put_restored replaces the original
    for (DvStore* s : stores) {
      s->put_restored(i, src.self(), src.dists(), src.next_hops(), {});
    }
  }
  expect_cache_fresh(tiered, resident, "put_restored");
  write_some("set after restore");
}

// ------------------------------------------------------- engine level

/// Five batches at steps 1..5 covering every event kind; `truth` ends as
/// the graph after the whole schedule.
EventSchedule churn_schedule(const Graph& g, std::uint64_t seed, Graph* truth) {
  Rng rng(seed);
  *truth = g;
  EventSchedule sched;
  const auto pick_edge = [&] {
    const auto edges = truth->edges();
    return edges[rng.next_below(edges.size())];
  };
  const auto pick_alive = [&] {
    VertexId v;
    do {
      v = static_cast<VertexId>(rng.next_below(truth->num_vertices()));
    } while (!truth->is_alive(v));
    return v;
  };
  for (std::size_t step = 1; step <= 5; ++step) {
    EventBatch batch;
    batch.at_step = step;
    if (step % 2 == 1) {
      for (const Event& e : grow_vertices(*truth, 4, 2, rng)) {
        apply_event(*truth, e);
        batch.events.push_back(e);
      }
    }
    for (int i = 0; i < 3; ++i) {
      const auto [u, v, w] = pick_edge();
      (void)w;
      truth->remove_edge(u, v);
      batch.events.emplace_back(EdgeDeleteEvent{u, v});
    }
    for (int i = 0; i < 2; ++i) {
      const VertexId u = pick_alive();
      const VertexId v = pick_alive();
      if (u == v || truth->has_edge(u, v)) continue;
      const auto w = static_cast<Weight>(1 + rng.next_below(5));
      truth->add_edge(u, v, w);
      batch.events.emplace_back(EdgeAddEvent{u, v, w});
    }
    for (int i = 0; i < 2; ++i) {
      const auto [u, v, w] = pick_edge();
      const auto nw = static_cast<Weight>(w % 5 + 1);
      truth->set_weight(u, v, nw);
      batch.events.emplace_back(WeightChangeEvent{u, v, nw});
    }
    if (step % 2 == 0) {
      const VertexId v = pick_alive();
      truth->remove_vertex(v);
      batch.events.emplace_back(VertexDeleteEvent{v});
    }
    sched.push_back(std::move(batch));
  }
  return sched;
}

/// Fully resident and the smallest tiered budget.
constexpr std::uint64_t kBudgets[] = {0, kMinDvBudgetBytes};

EngineConfig base_cfg(std::uint64_t budget) {
  EngineConfig cfg;
  cfg.num_ranks = 3;
  cfg.ia_threads = 1;
  cfg.dv_budget_bytes = budget;
  cfg.assign = AssignStrategy::kRepartition;  // vertex adds migrate rows
  cfg.validate_each_step = true;  // cached == fresh sum, every row and step
  cfg.record_step_quality = true;
  cfg.gather_apsp = true;
  return cfg;
}

/// The reference per-row recompute: harmonic_from_row over every gathered
/// distance row (all-infinite, hence 0, for deleted vertices).
std::vector<double> recompute(const RunResult& r) {
  std::vector<double> h(r.apsp.size(), 0.0);
  for (VertexId v = 0; v < r.apsp.size(); ++v) {
    h[v] = harmonic_from_row(r.apsp[v], v);
  }
  return h;
}

void expect_bit_identical(const std::vector<double>& got,
                          const std::vector<double>& want,
                          const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (VertexId v = 0; v < want.size(); ++v) {
    EXPECT_TRUE(same_bits(got[v], want[v]))
        << where << " vertex " << v << ": " << got[v] << " vs " << want[v];
  }
}

TEST(HarmonicCache, BatchRunMatchesPerRowRecomputeAtEveryStep) {
  const Graph g = make_er(70, 200, 31, WeightRange{1, 5});
  Graph truth;
  const EventSchedule sched = churn_schedule(g, 7, &truth);
  for (const std::uint64_t budget : kBudgets) {
    const std::string where = "budget=" + std::to_string(budget);
    const RunResult full = AnytimeEngine(g, base_cfg(budget)).run(sched);
    EXPECT_EQ(full.stats.invariant_violations, 0u) << where;
    test::expect_apsp_exact(truth, full);
    expect_bit_identical(full.harmonic, recompute(full), where + " final");
    const std::size_t steps = full.step_harmonic.size();
    ASSERT_GT(steps, 5u) << where;  // the churn spans several RC steps
    for (std::size_t s = 0; s < steps; ++s) {
      // Stopping at step s gathers that step's rows: the values E3
      // recorded at step s must be their fresh per-row sums.
      EngineConfig cfg = base_cfg(budget);
      cfg.checkpoint_at_step = full.stats.steps[s].step;
      const RunResult cut = AnytimeEngine(g, cfg).run(sched);
      const std::string at = where + " step " + std::to_string(s);
      ASSERT_EQ(cut.step_harmonic.size(), s + 1) << at;
      EXPECT_EQ(cut.stats.invariant_violations, 0u) << at;
      const std::vector<double> want = recompute(cut);
      expect_bit_identical(cut.step_harmonic.back(), want, at);
      // The full run's rows span the final id space; the ids it adds after
      // step s are not in the cut run, and read 0 in the full one.
      std::vector<double> full_at(full.step_harmonic[s].begin(),
                                  full.step_harmonic[s].begin() +
                                      static_cast<std::ptrdiff_t>(want.size()));
      expect_bit_identical(full_at, want, at + " (full run)");
    }
  }
}

TEST(HarmonicCache, LiveSessionPublishesFreshSums) {
  const Graph g = make_er(70, 200, 32, WeightRange{1, 5});
  Graph truth;
  const EventSchedule sched = churn_schedule(g, 8, &truth);
  for (const std::uint64_t budget : kBudgets) {
    const std::string where = "budget=" + std::to_string(budget);
    serve::EngineSession session(g, base_cfg(budget));
    for (const EventBatch& b : sched) session.ingest(b.events);
    const serve::QueryView view = session.view();
    const RunResult r = session.close();
    EXPECT_EQ(r.stats.invariant_violations, 0u) << where;
    test::expect_apsp_exact(truth, r);
    const std::vector<double> want = recompute(r);
    expect_bit_identical(r.harmonic, want, where + " final");
    ASSERT_FALSE(r.step_harmonic.empty()) << where;
    expect_bit_identical(r.step_harmonic.back(), want, where + " last step");
    // The terminal snapshots carry the same cached values.
    for (VertexId v = 0; v < want.size(); ++v) {
      const serve::PointResponse p = view.point(v);
      if (!truth.is_alive(v)) {
        EXPECT_FALSE(p.found) << where << " vertex " << v;
        continue;
      }
      ASSERT_TRUE(p.found) << where << " vertex " << v;
      EXPECT_TRUE(same_bits(p.harmonic, want[v])) << where << " vertex " << v;
    }
  }
}

}  // namespace
}  // namespace aacc
