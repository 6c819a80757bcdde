// Integration: dynamic updates ingested mid-analysis must converge to
// exactly the same APSP/closeness as recomputing from scratch on the
// mutated graph — for additions, deletions, weight changes, vertex
// additions under every assignment strategy, and vertex deletions.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace aacc {
namespace {

using test::expect_apsp_exact;
using test::expect_paths_realize_distances;
using test::grow_vertices;
using test::make_ba;
using test::make_er;

EngineConfig base_cfg(Rank P) {
  EngineConfig cfg;
  cfg.num_ranks = P;
  cfg.gather_apsp = true;
  return cfg;
}

Graph truth_after(const Graph& g, const EventSchedule& schedule) {
  Graph t = g;
  apply_schedule(t, schedule);
  return t;
}

TEST(EngineDynamic, EdgeAdditionsSeeded) {
  const Graph g = make_ba(200, 2, 11);
  Rng rng(99);
  EventSchedule sched;
  EventBatch batch;
  batch.at_step = 1;
  for (int i = 0; i < 30; ++i) {
    VertexId u;
    VertexId v;
    do {
      u = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      v = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    } while (u == v || g.has_edge(u, v));
    bool dup = false;
    for (const Event& e : batch.events) {
      const auto& ea = std::get<EdgeAddEvent>(e);
      dup |= (ea.u == u && ea.v == v) || (ea.u == v && ea.v == u);
    }
    if (dup) continue;
    batch.events.emplace_back(EdgeAddEvent{u, v, 1});
  }
  sched.push_back(batch);

  AnytimeEngine engine(g, base_cfg(6));
  const RunResult r = engine.run(sched);
  expect_apsp_exact(truth_after(g, sched), r);
}

TEST(EngineDynamic, EdgeAdditionsEagerMatchesSeeded) {
  const Graph g = make_er(150, 400, 21, WeightRange{1, 5});
  EventSchedule sched;
  EventBatch batch;
  batch.at_step = 2;
  batch.events.emplace_back(EdgeAddEvent{3, 77, 1});
  batch.events.emplace_back(EdgeAddEvent{10, 140, 2});
  batch.events.emplace_back(EdgeAddEvent{55, 91, 1});
  sched.push_back(batch);

  for (const EdgeAddMode mode : {EdgeAddMode::kSeeded, EdgeAddMode::kEager}) {
    EngineConfig cfg = base_cfg(4);
    cfg.add_mode = mode;
    Graph g2 = g;
    // Ensure the scheduled edges don't already exist in the fixture.
    for (const Event& e : sched[0].events) {
      const auto& ea = std::get<EdgeAddEvent>(e);
      ASSERT_FALSE(g2.has_edge(ea.u, ea.v));
    }
    AnytimeEngine engine(g2, cfg);
    const RunResult r = engine.run(sched);
    expect_apsp_exact(truth_after(g, sched), r);
  }
}

TEST(EngineDynamic, EdgeDeletions) {
  const Graph g = make_er(150, 500, 33);
  Rng rng(5);
  EventSchedule sched;
  EventBatch batch;
  batch.at_step = 1;
  Graph probe = g;  // tracks deletions so we never delete twice
  for (int i = 0; i < 25; ++i) {
    const auto edges = probe.edges();
    const auto& [u, v, w] = edges[rng.next_below(edges.size())];
    (void)w;
    probe.remove_edge(u, v);
    batch.events.emplace_back(EdgeDeleteEvent{u, v});
  }
  sched.push_back(batch);

  AnytimeEngine engine(g, base_cfg(6));
  const RunResult r = engine.run(sched);
  expect_apsp_exact(truth_after(g, sched), r);
}

TEST(EngineDynamic, EdgeDeletionLateStep) {
  const Graph g = make_ba(180, 3, 8);
  Rng rng(17);
  EventSchedule sched;
  EventBatch batch;
  batch.at_step = 9;  // after static convergence
  Graph probe = g;
  for (int i = 0; i < 15; ++i) {
    const auto edges = probe.edges();
    const auto& [u, v, w] = edges[rng.next_below(edges.size())];
    (void)w;
    probe.remove_edge(u, v);
    batch.events.emplace_back(EdgeDeleteEvent{u, v});
  }
  sched.push_back(batch);

  AnytimeEngine engine(g, base_cfg(5));
  const RunResult r = engine.run(sched);
  expect_apsp_exact(truth_after(g, sched), r);
}

TEST(EngineDynamic, WeightIncreaseAndDecrease) {
  const Graph g = make_er(120, 360, 44, WeightRange{2, 6});
  EventSchedule sched;
  EventBatch batch;
  batch.at_step = 1;
  const auto edges = g.edges();
  // Increase some weights, decrease others.
  for (std::size_t i = 0; i < 20 && i < edges.size(); ++i) {
    const auto& [u, v, w] = edges[i * 7 % edges.size()];
    bool dup = false;
    for (const Event& e : batch.events) {
      const auto& wc = std::get<WeightChangeEvent>(e);
      dup |= (wc.u == u && wc.v == v);
    }
    if (dup) continue;
    const Weight nw = (i % 2 == 0) ? w + 5 : 1;
    batch.events.emplace_back(WeightChangeEvent{u, v, nw});
  }
  sched.push_back(batch);

  AnytimeEngine engine(g, base_cfg(4));
  const RunResult r = engine.run(sched);
  expect_apsp_exact(truth_after(g, sched), r);
}

TEST(EngineDynamic, VertexAdditionsRoundRobin) {
  const Graph g = make_ba(150, 2, 55);
  Rng rng(2);
  EventSchedule sched;
  sched.push_back({1, grow_vertices(g, 40, 3, rng)});

  EngineConfig cfg = base_cfg(6);
  cfg.assign = AssignStrategy::kRoundRobin;
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(sched);
  expect_apsp_exact(truth_after(g, sched), r);
}

TEST(EngineDynamic, VertexAdditionsCutEdge) {
  const Graph g = make_ba(150, 2, 56);
  Rng rng(3);
  EventSchedule sched;
  sched.push_back({2, grow_vertices(g, 40, 3, rng)});

  EngineConfig cfg = base_cfg(6);
  cfg.assign = AssignStrategy::kCutEdge;
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(sched);
  expect_apsp_exact(truth_after(g, sched), r);
}

TEST(EngineDynamic, VertexAdditionsRepartition) {
  const Graph g = make_ba(150, 2, 57);
  Rng rng(4);
  EventSchedule sched;
  sched.push_back({1, grow_vertices(g, 40, 3, rng)});

  EngineConfig cfg = base_cfg(6);
  cfg.assign = AssignStrategy::kRepartition;
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(sched);
  expect_apsp_exact(truth_after(g, sched), r);
}

TEST(EngineDynamic, VertexDeletions) {
  const Graph g = make_er(140, 500, 66);
  EventSchedule sched;
  EventBatch batch;
  batch.at_step = 1;
  batch.events.emplace_back(VertexDeleteEvent{7});
  batch.events.emplace_back(VertexDeleteEvent{23});
  batch.events.emplace_back(VertexDeleteEvent{108});
  sched.push_back(batch);

  AnytimeEngine engine(g, base_cfg(5));
  const RunResult r = engine.run(sched);
  expect_apsp_exact(truth_after(g, sched), r);
}

TEST(EngineDynamic, IncrementalBatchesAcrossSteps) {
  const Graph g = make_ba(160, 2, 77);
  Rng rng(8);
  EventSchedule sched;
  Graph cursor = g;
  for (std::size_t s = 0; s < 4; ++s) {
    EventBatch batch;
    batch.at_step = 1 + 2 * s;
    auto events = grow_vertices(cursor, 10, 2, rng);
    for (const Event& e : events) apply_event(cursor, e);
    batch.events = std::move(events);
    sched.push_back(std::move(batch));
  }
  AnytimeEngine engine(g, base_cfg(6));
  const RunResult r = engine.run(sched);
  expect_apsp_exact(cursor, r);
}

TEST(EngineDynamic, RandomizedMixedScheduleFuzz) {
  // Seeded fuzz over one mixed batch on a weighted graph: growth, edge
  // additions, edge deletions, weight changes and vertex deletions, run
  // across the configuration lattice: 2-4 ranks, both DV stores, seeded and
  // eager edge additions, round-robin and Repartition-S assignment. Every
  // case must end exact, audit clean after every step, and route every
  // pair over a shortest path.
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    Rng rng(seed);
    const Graph g = make_er(170, 510, 1000 + seed, WeightRange{1, 5});
    Graph truth = g;
    EventSchedule sched;
    EventBatch b;
    b.at_step = 1;
    for (const Event& e :
         grow_vertices(truth, 4 + rng.next_below(6), 2, rng)) {
      apply_event(truth, e);
      b.events.push_back(e);
    }
    const std::size_t dels = 2 + rng.next_below(5);
    for (std::size_t i = 0; i < dels; ++i) {
      const auto edges = truth.edges();
      const auto& [u, v, w] = edges[rng.next_below(edges.size())];
      (void)w;
      truth.remove_edge(u, v);
      b.events.emplace_back(EdgeDeleteEvent{u, v});
    }
    const std::size_t changes = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < changes; ++i) {
      const auto edges = truth.edges();
      const auto& [u, v, w] = edges[rng.next_below(edges.size())];
      const Weight nw = 1 + static_cast<Weight>(rng.next_below(9));
      if (nw == w) continue;
      truth.set_weight(u, v, nw);
      b.events.emplace_back(WeightChangeEvent{u, v, nw});
    }
    const auto pick = [&] {
      return static_cast<VertexId>(rng.next_below(truth.num_vertices()));
    };
    for (int i = 0; i < 3; ++i) {
      const VertexId u = pick();
      const VertexId v = pick();
      if (u == v || !truth.is_alive(u) || !truth.is_alive(v) ||
          truth.has_edge(u, v)) {
        continue;
      }
      const auto w = static_cast<Weight>(1 + rng.next_below(5));
      truth.add_edge(u, v, w);
      b.events.emplace_back(EdgeAddEvent{u, v, w});
    }
    for (int i = 0; i < 2; ++i) {
      const VertexId v = pick();
      if (!truth.is_alive(v)) continue;
      truth.remove_vertex(v);
      b.events.emplace_back(VertexDeleteEvent{v});
    }
    sched.push_back(std::move(b));

    std::size_t lattice_case = 0;
    for (const std::uint64_t budget : {std::uint64_t{0}, kMinDvBudgetBytes}) {
      for (const EdgeAddMode mode :
           {EdgeAddMode::kSeeded, EdgeAddMode::kEager}) {
        for (const AssignStrategy assign :
             {AssignStrategy::kRoundRobin, AssignStrategy::kRepartition}) {
          const auto P = static_cast<Rank>(2 + (seed + lattice_case++) % 3);
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " P=" << P << " budget=" << budget
                       << " eager=" << (mode == EdgeAddMode::kEager)
                       << " repartition="
                       << (assign == AssignStrategy::kRepartition));
          EngineConfig cfg = base_cfg(P);
          cfg.dv_budget_bytes = budget;
          cfg.add_mode = mode;
          cfg.assign = assign;
          cfg.validate_each_step = true;  // DVR invariant audited every step
          AnytimeEngine engine(g, cfg);
          const RunResult r = engine.run(sched);
          EXPECT_EQ(r.stats.invariant_violations, 0u);
          expect_apsp_exact(truth, r);
          expect_paths_realize_distances(truth, r, 1);
        }
      }
    }
  }
}

// Property sweep: random interleavings of every event type at random steps
// must still converge to the reference. Seeds parameterize the chaos.
class DynamicChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicChaos, ConvergesToReference) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  Graph g = make_er(100, 280, seed ^ 0xabcdef);

  Graph cursor = g;
  EventSchedule sched;
  std::size_t step = 1;
  for (int b = 0; b < 3; ++b) {
    EventBatch batch;
    batch.at_step = step;
    step += rng.next_below(3);
    for (int i = 0; i < 12; ++i) {
      const auto kind = rng.next_below(5);
      if (kind == 0) {  // edge add
        VertexId u;
        VertexId v;
        int tries = 0;
        do {
          u = static_cast<VertexId>(rng.next_below(cursor.num_vertices()));
          v = static_cast<VertexId>(rng.next_below(cursor.num_vertices()));
        } while ((u == v || !cursor.is_alive(u) || !cursor.is_alive(v) ||
                  cursor.has_edge(u, v)) &&
                 ++tries < 50);
        if (tries >= 50) continue;
        const auto w = static_cast<Weight>(1 + rng.next_below(4));
        cursor.add_edge(u, v, w);
        batch.events.emplace_back(EdgeAddEvent{u, v, w});
      } else if (kind == 1) {  // edge delete
        const auto edges = cursor.edges();
        if (edges.empty()) continue;
        const auto& [u, v, w] = edges[rng.next_below(edges.size())];
        (void)w;
        cursor.remove_edge(u, v);
        batch.events.emplace_back(EdgeDeleteEvent{u, v});
      } else if (kind == 2) {  // weight change
        const auto edges = cursor.edges();
        if (edges.empty()) continue;
        const auto& [u, v, w] = edges[rng.next_below(edges.size())];
        (void)w;
        const auto nw = static_cast<Weight>(1 + rng.next_below(8));
        cursor.set_weight(u, v, nw);
        batch.events.emplace_back(WeightChangeEvent{u, v, nw});
      } else if (kind == 3) {  // vertex add
        auto events = grow_vertices(cursor, 2, 2, rng);
        for (const Event& e : events) {
          apply_event(cursor, e);
          batch.events.push_back(e);
        }
      } else {  // vertex delete
        VertexId v;
        int tries = 0;
        do {
          v = static_cast<VertexId>(rng.next_below(cursor.num_vertices()));
        } while (!cursor.is_alive(v) && ++tries < 50);
        if (tries >= 50 || cursor.num_alive() < 20) continue;
        cursor.remove_vertex(v);
        batch.events.emplace_back(VertexDeleteEvent{v});
      }
    }
    sched.push_back(std::move(batch));
  }

  EngineConfig cfg;
  cfg.num_ranks = 4 + static_cast<Rank>(seed % 5);
  cfg.gather_apsp = true;
  cfg.assign = static_cast<AssignStrategy>(seed % 3);
  cfg.validate_each_step = true;  // DVR invariant audited after every step
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(sched);
  EXPECT_EQ(r.stats.invariant_violations, 0u);
  expect_apsp_exact(cursor, r);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicChaos,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

// Cross-rank invalidations reach a rank as poison markers for a portal, and
// the cascade they start must poison exactly the entries routed through that
// portal, in the same order, however the candidate rows are found. Round-robin
// DD puts vertex v on rank v % P, so edges with u % P != v % P are cut edges
// and every marker crosses ranks.
EventSchedule cut_heavy_schedule(const Graph& g, Rank P) {
  const auto is_cut = [P](VertexId u, VertexId v) {
    return u % static_cast<VertexId>(P) != v % static_cast<VertexId>(P);
  };
  Rng rng(23);
  Graph cursor = g;
  const auto pick_cut_edge = [&]() {
    std::vector<std::tuple<VertexId, VertexId, Weight>> cut;
    for (const auto& [u, v, w] : cursor.edges()) {
      if (is_cut(u, v)) cut.emplace_back(u, v, w);
    }
    return cut[rng.next_below(cut.size())];
  };
  EventSchedule sched;
  EventBatch early;
  early.at_step = 1;
  for (int i = 0; i < 6; ++i) {
    const auto [u, v, w] = pick_cut_edge();
    (void)w;
    cursor.remove_edge(u, v);
    early.events.emplace_back(EdgeDeleteEvent{u, v});
  }
  for (int i = 0; i < 4; ++i) {
    const auto [u, v, w] = pick_cut_edge();
    cursor.set_weight(u, v, w + 3);
    early.events.emplace_back(WeightChangeEvent{u, v, w + 3});
  }
  sched.push_back(std::move(early));

  // After static convergence: more cut deletions, then the highest-degree
  // vertex goes — a hub is a portal on every other rank.
  EventBatch late;
  late.at_step = 8;
  for (int i = 0; i < 4; ++i) {
    const auto [u, v, w] = pick_cut_edge();
    (void)w;
    cursor.remove_edge(u, v);
    late.events.emplace_back(EdgeDeleteEvent{u, v});
  }
  VertexId hub = 0;
  for (VertexId v = 0; v < cursor.num_vertices(); ++v) {
    if (cursor.degree(v) > cursor.degree(hub)) hub = v;
  }
  late.events.emplace_back(VertexDeleteEvent{hub});
  sched.push_back(std::move(late));
  return sched;
}

TEST(PoisonCascade, CrossRankSequenceIsPinned) {
  struct Ledger {
    Rank P;
    std::uint64_t poisons;
    std::uint64_t repairs;
    std::uint64_t relaxations;
    std::uint64_t messages;
    std::uint64_t bytes;
  };
  // Recorded when IA began keeping the largest first hop among equal-cost
  // local paths (the poison sequence is the whole-store sweep's over the
  // row-batched drain); residency must not move them.
  const Ledger pinned[] = {
      {2, 8520, 8520, 39815, 124, 125203},
      {3, 8217, 8217, 56081, 308, 208026},
      {4, 8029, 8029, 56978, 528, 280452},
  };
  const Graph g = make_ba(160, 3, 29, WeightRange{1, 4});
  for (const Ledger& want : pinned) {
    const EventSchedule sched = cut_heavy_schedule(g, want.P);
    const Graph truth = truth_after(g, sched);
    for (const std::uint64_t budget : {std::uint64_t{0}, kMinDvBudgetBytes}) {
      SCOPED_TRACE(::testing::Message() << "P=" << want.P << " budget=" << budget);
      EngineConfig cfg = base_cfg(want.P);
      cfg.dd_partitioner = PartitionerKind::kRoundRobin;
      cfg.dv_budget_bytes = budget;
      cfg.validate_each_step = true;
      AnytimeEngine engine(g, cfg);
      const RunResult r = engine.run(sched);
      EXPECT_EQ(r.stats.invariant_violations, 0u);
      expect_apsp_exact(truth, r);
      std::uint64_t poisons = 0;
      std::uint64_t repairs = 0;
      std::uint64_t relaxations = 0;
      for (const StepStats& s : r.stats.steps) {
        poisons += s.poisons;
        repairs += s.repairs;
        relaxations += s.relaxations;
      }
      EXPECT_EQ(poisons, want.poisons);
      EXPECT_EQ(repairs, want.repairs);
      EXPECT_EQ(relaxations, want.relaxations);
      EXPECT_EQ(r.stats.total_messages, want.messages);
      EXPECT_EQ(r.stats.total_bytes, want.bytes);
    }
  }
}

// Every path that rebuilds a rank's rows under a new owner map or from a
// blob must keep its answer and its work: Repartition-S, a rebalance, the
// rollback/degrade restarts after a step-top or mid-exchange death,
// and a checkpoint resume, each under both DV stores. The counters were
// recorded when IA began keeping the largest first hop among equal-cost
// local paths.
struct RunLedger {
  std::uint64_t relaxations = 0;
  std::uint64_t poisons = 0;
  std::uint64_t repairs = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  RunLedger& operator+=(const RunResult& r) {
    for (const StepStats& s : r.stats.steps) {
      relaxations += s.relaxations;
      poisons += s.poisons;
      repairs += s.repairs;
    }
    messages += r.stats.total_messages;
    bytes += r.stats.total_bytes;
    return *this;
  }
  bool operator==(const RunLedger&) const = default;
};

std::ostream& operator<<(std::ostream& os, const RunLedger& l) {
  return os << '{' << l.relaxations << ", " << l.poisons << ", " << l.repairs
            << ", " << l.messages << ", " << l.bytes << '}';
}

/// Two batches, each deleting edges and then growing the graph.
EventSchedule growth_with_deletions(const Graph& g, Graph& truth) {
  Rng rng(31);
  truth = g;
  EventSchedule sched;
  for (const std::size_t step : {std::size_t{1}, std::size_t{3}}) {
    EventBatch b;
    b.at_step = step;
    Graph probe = truth;  // tracks deletions so no edge goes twice
    for (int i = 0; i < 4; ++i) {
      const auto edges = probe.edges();
      const auto [u, v, w] = edges[rng.next_below(edges.size())];
      (void)w;
      probe.remove_edge(u, v);
      b.events.emplace_back(EdgeDeleteEvent{u, v});
    }
    for (Event& ev : grow_vertices(probe, 6, 2, rng)) {
      b.events.push_back(std::move(ev));
    }
    apply_schedule(truth, {b});
    sched.push_back(std::move(b));
  }
  return sched;
}

TEST(RebuildPaths, LedgersArePinned) {
  const Graph g = make_er(100, 300, 7, WeightRange{1, 3});
  Graph truth;
  const EventSchedule sched = growth_with_deletions(g, truth);
  // Deleting a slab of low ids empties block-partitioned rank 0.
  EventSchedule slab(1);
  slab[0].at_step = 1;
  for (VertexId v = 0; v < 36; ++v) {
    slab[0].events.emplace_back(VertexDeleteEvent{v});
  }
  Graph slab_truth = g;
  apply_schedule(slab_truth, slab);

  // Rank 1 dies. A mid-exchange death on the second batch's step leaves
  // that batch torn on the survivors. A step-top death falls between the
  // batches.
  struct Crash {
    const char* name;
    RecoveryPolicy policy;
    rt::CrashPhase phase;
    std::size_t step;
    RunLedger want;
  };
  const Crash crashes[] = {
      {"rollback step-start", RecoveryPolicy::kRollback,
       rt::CrashPhase::kStepStart, 2,
       {5759, 240, 240, 401, 106069}},
      {"rollback mid-exchange", RecoveryPolicy::kRollback,
       rt::CrashPhase::kMidExchange, 3,
       {3823, 240, 240, 412, 105186}},
      {"degrade step-start", RecoveryPolicy::kDegrade,
       rt::CrashPhase::kStepStart, 2,
       {6378, 2634, 2711, 455, 111922}},
      {"degrade mid-exchange", RecoveryPolicy::kDegrade,
       rt::CrashPhase::kMidExchange, 3,
       {4397, 2469, 2588, 385, 112481}},
  };

  for (const std::uint64_t budget : {std::uint64_t{0}, kMinDvBudgetBytes}) {
    EngineConfig cfg = base_cfg(4);
    cfg.dv_budget_bytes = budget;
    cfg.transport.retry_backoff = std::chrono::microseconds(1);
    // `exact` is null where the run loses vertices (degrade).
    const auto check = [&](const std::string& name, const RunLedger& want,
                           const RunLedger& got, const RunResult& r,
                           const Graph* exact) {
      SCOPED_TRACE(::testing::Message() << name << " budget=" << budget);
      if (exact != nullptr) expect_apsp_exact(*exact, r);
      EXPECT_EQ(got, want);
    };

    {
      EngineConfig ccfg = cfg;
      ccfg.assign = AssignStrategy::kRepartition;
      AnytimeEngine engine(g, ccfg);
      const RunResult r = engine.run(sched);
      check("repartition", {19785, 648, 648, 438, 327360}, RunLedger{} += r,
            r, &truth);
    }
    {
      EngineConfig ccfg = cfg;
      ccfg.dd_partitioner = PartitionerKind::kBlock;
      ccfg.rebalance_threshold = 1.3;
      AnytimeEngine engine(g, ccfg);
      const RunResult r = engine.run(slab);
      check("rebalance", {18693, 3339, 3339, 306, 124599}, RunLedger{} += r,
            r, &slab_truth);
    }
    for (const Crash& c : crashes) {
      EngineConfig ccfg = cfg;
      ccfg.recovery_policy = {{c.policy, 0}};
      if (c.policy != RecoveryPolicy::kDegrade) ccfg.checkpoint_every = 1;
      ccfg.faults.crashes.push_back({1, c.step, c.phase});
      AnytimeEngine engine(g, ccfg);
      const RunResult r = engine.run(sched);
      EXPECT_EQ(r.stats.recoveries, 1u) << c.name;
      check(c.name, c.want, RunLedger{} += r, r,
            c.policy == RecoveryPolicy::kDegrade ? nullptr : &truth);
    }
    {
      EngineConfig ccfg = cfg;
      ccfg.checkpoint_at_step = 2;
      AnytimeEngine first(g, ccfg);
      const RunResult interim = first.run(sched);
      ASSERT_TRUE(interim.checkpoint.valid());
      AnytimeEngine resumed(g, interim.checkpoint, ccfg);
      const RunResult r = resumed.run(sched);
      check("checkpoint resume", {19700, 671, 671, 390, 95124},
            (RunLedger{} += interim) += r, r, &truth);
    }
  }
}

}  // namespace
}  // namespace aacc
