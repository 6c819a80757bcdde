// EngineSession / QueryView: lifecycle contract, batch-run equivalence,
// snapshot consistency under concurrent readers (the TSan target), the
// staleness contract, and serving across a supervised recovery.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "serve/session.hpp"
#include "test_util.hpp"

namespace aacc {
namespace {

using serve::EngineSession;
using serve::QueryView;
using serve::ServeContext;
using serve::SessionState;
using serve::SnapshotData;
using test::grow_vertices;
using test::make_ba;
using test::make_er;

// Splits a schedule's batches into per-batch event vectors (the session
// ingests events; step pinning happens at consumption time).
std::vector<std::vector<Event>> batches_of(const EventSchedule& sched) {
  std::vector<std::vector<Event>> out;
  for (const EventBatch& b : sched) out.push_back(b.events);
  return out;
}

EventSchedule mixed_schedule(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  Graph truth = g;
  EventSchedule sched;
  EventBatch grow;
  grow.at_step = 1;
  for (const Event& e : grow_vertices(truth, 10, 2, rng)) {
    apply_event(truth, e);
    grow.events.push_back(e);
  }
  sched.push_back(grow);
  EventBatch del;
  del.at_step = 2;
  for (int i = 0; i < 5; ++i) {
    const auto edges = truth.edges();
    const auto& [u, v, w] = edges[rng.next_below(edges.size())];
    (void)w;
    truth.remove_edge(u, v);
    del.events.emplace_back(EdgeDeleteEvent{u, v});
  }
  sched.push_back(del);
  return sched;
}

// ---------------------------------------------------------------- lifecycle

TEST(ServeLifecycle, CloseIsOneShotAndIngestAfterCloseThrows) {
  const Graph g = make_ba(60, 2, 7);
  EngineConfig cfg;
  cfg.num_ranks = 2;
  EngineSession session(g, cfg);
  EXPECT_EQ(session.state(), SessionState::kOpen);
  session.ingest({EdgeAddEvent{0, 30, 1}});
  const RunResult r = session.close();
  EXPECT_EQ(session.state(), SessionState::kClosed);
  EXPECT_GT(r.stats.rc_steps, 0u);
  EXPECT_THROW((void)session.close(), EngineStateError);
  EXPECT_THROW(session.ingest({EdgeAddEvent{0, 31, 1}}), EngineStateError);
}

TEST(ServeLifecycle, EmptyIngestIsDroppedAndDestructorJoinsQuietly) {
  const Graph g = make_ba(40, 2, 9);
  EngineConfig cfg;
  cfg.num_ranks = 2;
  EngineSession session(g, cfg);
  session.ingest({});  // no-op, not an error
  // No close(): the destructor must close the feed and join on its own.
}

TEST(ServeLifecycle, EmptySessionMatchesStaticRun) {
  const Graph g = make_er(90, 260, 11, WeightRange{1, 4});
  EngineConfig cfg;
  cfg.num_ranks = 3;
  const RunResult batch = AnytimeEngine(g, cfg).run();
  EngineSession session(g, cfg);
  const RunResult live = session.close();
  ASSERT_EQ(batch.closeness.size(), live.closeness.size());
  for (VertexId v = 0; v < batch.closeness.size(); ++v) {
    EXPECT_EQ(batch.closeness[v], live.closeness[v]) << "vertex " << v;
    EXPECT_EQ(batch.harmonic[v], live.harmonic[v]) << "vertex " << v;
  }
}

// ------------------------------------------------- batch-run equivalence
// The session pins batches to whatever step consumes them, so step counts
// may differ from the caller-pinned schedule — but the final graph is the
// same, and the converged centralities over a fixed graph are exact, so
// the values must match the batch run double for double.

TEST(ServeEquivalence, SessionMatchesBatchRunOnFinalValues) {
  const Graph g = make_er(110, 320, 23, WeightRange{1, 5});
  const EventSchedule sched = mixed_schedule(g, 5);
  EngineConfig cfg;
  cfg.num_ranks = 3;
  const RunResult batch = AnytimeEngine(g, cfg).run(sched);
  EngineSession session(g, cfg);
  for (auto& events : batches_of(sched)) session.ingest(std::move(events));
  const RunResult live = session.close();
  ASSERT_EQ(batch.closeness.size(), live.closeness.size());
  for (VertexId v = 0; v < batch.closeness.size(); ++v) {
    EXPECT_EQ(batch.closeness[v], live.closeness[v]) << "vertex " << v;
    EXPECT_EQ(batch.harmonic[v], live.harmonic[v]) << "vertex " << v;
  }
  // The merged registry carries the serve-side counters.
  EXPECT_GT(live.metrics.counter_value("serve/publishes"), 0u);
}

// --------------------------------------------- post-close query exactness

TEST(ServeQueries, PostCloseAnswersAreTheExactFinalState) {
  const Graph g = make_ba(120, 3, 31);
  EngineConfig cfg;
  cfg.num_ranks = 4;
  EngineSession session(g, cfg);
  session.ingest({EdgeAddEvent{1, 60, 1}, EdgeAddEvent{2, 90, 1}});
  const QueryView view = session.view();  // outlives close()
  const RunResult r = session.close();

  // top_k == the result's ranking under (closeness desc, id asc), exactly.
  const auto top = view.top_k(10);
  const auto expect = r.top_closeness(10);
  ASSERT_EQ(top.entries.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(top.entries[i].v, expect[i]);
    EXPECT_EQ(top.entries[i].closeness, r.closeness_of(expect[i]));
  }
  EXPECT_EQ(top.meta.age_steps, 0u);
  EXPECT_FALSE(top.meta.stale);
  EXPECT_FALSE(top.meta.degraded);

  // Point and rank-of agree with the result too.
  const auto p = view.point(expect[0]);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.closeness, r.closeness_of(expect[0]));
  EXPECT_EQ(p.harmonic, r.harmonic_of(expect[0]));
  const auto rk = view.rank_of(expect[0]);
  ASSERT_TRUE(rk.found);
  EXPECT_EQ(rk.rank, 1u);
  // Unknown vertex: found=false, still a well-formed contract.
  EXPECT_FALSE(view.point(100000).found);
  EXPECT_FALSE(view.rank_of(100000).found);
  EXPECT_GE(session.queries_answered(), 5u);
}

// ------------------------------------- snapshot consistency (TSan target)
// Readers hammer the view while a feeder streams mutations. Every response
// must be internally consistent: top-k strictly ordered with no duplicate
// ids, finite values, and per-thread monotone step/engine_step (snapshots
// only move forward in a fault-free run).

TEST(ServeConcurrency, ReadersSeeOnlyCompleteOrderedSnapshots) {
  const Graph g = make_ba(150, 3, 41);
  EngineConfig cfg;
  cfg.num_ranks = 3;
  EngineSession session(g, cfg);
  const QueryView view = session.view();

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&view, &done, t] {
      std::size_t last_engine_step = 0;
      const VertexId probe = static_cast<VertexId>(10 + t);
      while (!done.load(std::memory_order_acquire)) {
        const auto top = view.top_k(8);
        for (std::size_t i = 0; i < top.entries.size(); ++i) {
          ASSERT_TRUE(std::isfinite(top.entries[i].closeness));
          if (i > 0) {
            const auto& a = top.entries[i - 1];
            const auto& b = top.entries[i];
            ASSERT_TRUE(a.closeness > b.closeness ||
                        (a.closeness == b.closeness && a.v < b.v))
                << "top-k not strictly ordered at " << i;
          }
        }
        ASSERT_GE(top.meta.engine_step, top.meta.step);
        ASSERT_GE(top.meta.engine_step, last_engine_step);
        last_engine_step = top.meta.engine_step;
        const auto p = view.point(probe);
        if (p.found) {
          ASSERT_TRUE(std::isfinite(p.closeness));
          ASSERT_GE(p.closeness, 0.0);
          ASSERT_GE(p.harmonic, 0.0);
        }
        const auto rk = view.rank_of(probe);
        if (rk.found) {
          ASSERT_GE(rk.rank, 1u);
        }
      }
    });
  }

  Rng rng(77);
  std::set<std::pair<VertexId, VertexId>> present;
  for (const auto& [u, v, w] : g.edges()) {
    (void)w;
    present.emplace(std::min(u, v), std::max(u, v));
  }
  for (int batch = 0; batch < 24; ++batch) {
    std::vector<Event> events;
    for (int i = 0; i < 4; ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(150));
      const auto v = static_cast<VertexId>(rng.next_below(150));
      if (u == v) continue;
      if (!present.emplace(std::min(u, v), std::max(u, v)).second) continue;
      events.emplace_back(EdgeAddEvent{u, v, 1});
    }
    session.ingest(std::move(events));
    std::this_thread::yield();
  }
  const RunResult r = session.close();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(r.stats.rc_steps, 0u);
  EXPECT_GT(session.queries_answered(), 0u);
}

// Publication mechanics in isolation: one writer swapping fresh snapshots
// into a cell, many readers asserting complete epochs (no tearing between
// the epoch counter and the payload).
TEST(ServeConcurrency, SnapshotCellEpochsAreAtomic) {
  ServeContext ctx(1, 1, 0);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = ctx.snapshots[0].read();
        if (snap == nullptr) continue;
        ASSERT_GE(snap->epoch, last_epoch);
        last_epoch = snap->epoch;
        // The payload must be exactly the epoch's fill pattern.
        ASSERT_EQ(snap->ids.size(), 64u);
        for (std::size_t i = 0; i < snap->ids.size(); ++i) {
          ASSERT_EQ(snap->closeness[i], static_cast<double>(snap->epoch));
        }
      }
    });
  }
  std::shared_ptr<const SnapshotData> prev;
  for (std::uint64_t e = 1; e <= 2000; ++e) {
    auto snap = std::make_shared<SnapshotData>();
    snap->epoch = e;
    snap->step = e;
    snap->ids.resize(64);
    for (std::size_t i = 0; i < 64; ++i) {
      snap->ids[i] = static_cast<VertexId>(i);
    }
    snap->closeness.assign(64, static_cast<double>(e));
    snap->harmonic.assign(64, 0.0);
    ctx.snapshots[0].publish(std::move(snap));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
}

// ------------------------------------------------------ staleness contract

TEST(ServeStaleness, AgeAndStaleFlagFollowTheConfiguredLag) {
  auto ctx = std::make_shared<ServeContext>(1, 1, /*max_snapshot_lag=*/3);
  auto snap = std::make_shared<SnapshotData>();
  snap->step = 2;
  snap->epoch = 1;
  snap->ids = {0, 1, 2};
  snap->closeness = {0.5, 0.4, 0.3};
  snap->harmonic = {1.5, 1.4, 1.3};
  snap->by_closeness = {0, 1, 2};
  ctx->snapshots[0].publish(std::move(snap));
  const QueryView view(ctx);

  ctx->engine_step.store(4, std::memory_order_release);
  auto p = view.point(1);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.meta.step, 2u);
  EXPECT_EQ(p.meta.engine_step, 4u);
  EXPECT_EQ(p.meta.age_steps, 2u);
  EXPECT_FALSE(p.meta.stale);  // age 2 <= lag 3

  ctx->engine_step.store(9, std::memory_order_release);
  p = view.point(1);
  EXPECT_EQ(p.meta.age_steps, 7u);
  EXPECT_TRUE(p.meta.stale);  // age 7 > lag 3
  EXPECT_EQ(ctx->stale_responses.load(), 1u);
  EXPECT_EQ(ctx->queries.load(), 2u);

  // Degraded provenance flows through from the snapshot.
  auto flagged = std::make_shared<SnapshotData>();
  flagged->step = 9;
  flagged->epoch = 2;
  flagged->ids = {0};
  flagged->closeness = {0.1};
  flagged->harmonic = {0.2};
  flagged->by_closeness = {0};
  flagged->degraded = true;
  ctx->snapshots[0].publish(std::move(flagged));
  p = view.point(0);
  EXPECT_TRUE(p.meta.degraded);
  EXPECT_EQ(p.meta.age_steps, 0u);
}

// -------------------------------------------- serving across a recovery

TEST(ServeRecovery, RollbackRecoveryMatchesFaultFreeFinalValues) {
  const Graph g = make_er(100, 300, 63, WeightRange{1, 3});
  const EventSchedule sched = mixed_schedule(g, 8);
  EngineConfig cfg;
  cfg.num_ranks = 4;
  const RunResult clean = AnytimeEngine(g, cfg).run(sched);

  EngineConfig chaos_cfg = cfg;
  chaos_cfg.checkpoint_every = 2;
  chaos_cfg.faults.crashes.push_back({1, 3});
  EngineSession session(g, chaos_cfg);
  for (auto& events : batches_of(sched)) session.ingest(std::move(events));
  const RunResult live = session.close();
  EXPECT_EQ(live.stats.recoveries, 1u);
  EXPECT_FALSE(live.degraded);
  ASSERT_EQ(clean.closeness.size(), live.closeness.size());
  for (VertexId v = 0; v < clean.closeness.size(); ++v) {
    EXPECT_EQ(clean.closeness[v], live.closeness[v]) << "vertex " << v;
  }
  // Post-rollback snapshots shed the degraded provenance.
  const auto p = session.view().point(0);
  EXPECT_FALSE(p.meta.degraded);
}

// --------------------------------------------------------- serve-side SLOs

TEST(ServeSlo, HistogramsCountEveryQueryKindSeparately) {
  const Graph g = make_ba(60, 2, 7);
  EngineConfig cfg;
  cfg.num_ranks = 2;
  serve::EngineSession session(g, cfg);
  const serve::QueryView view = session.view();
  const RunResult r0 = session.close();
  (void)r0;

  // Post-close queries are deterministic (exact final state, age 0) and
  // serial, so the counts and the 1-in-64 sample set are exact.
  for (int i = 0; i < 100; ++i) (void)view.point(static_cast<VertexId>(i % 60));
  for (int i = 0; i < 30; ++i) (void)view.top_k(5);
  for (int i = 0; i < 70; ++i) (void)view.rank_of(static_cast<VertexId>(i % 60));

  const serve::SloSnapshot slo = session.slo();
  EXPECT_EQ(slo.point.count, 100u);
  EXPECT_EQ(slo.top_k.count, 30u);
  EXPECT_EQ(slo.rank_of.count, 70u);
  EXPECT_GT(obs::histogram_quantile(slo.point, 0.99), 0.0);
  EXPECT_LE(obs::histogram_quantile(slo.point, 0.50),
            obs::histogram_quantile(slo.point, 0.99));

  // Sampling is index % 64 == 0 over the global query index: queries 0, 64
  // (points), 128 (top-k) and 192 (rank-of) are captured, in order.
  const std::vector<serve::QuerySample> samples = session.query_samples();
  ASSERT_EQ(samples.size(), 4u);  // 200 queries, one in 64
  const char expected_kinds[] = {'p', 'p', 't', 'r'};
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].index, 64 * i) << "sample " << i;
    EXPECT_EQ(samples[i].kind, expected_kinds[i]) << "sample " << i;
    EXPECT_GT(samples[i].ns, 0u);
  }
  // A found point query ties itself to the publish that served it.
  EXPECT_GE(samples[0].snapshot_epoch, 1u);
}

TEST(ServeSlo, PreCloseQueriesLandInTheRunStatsSummary) {
  const Graph g = make_ba(50, 2, 9);
  EngineConfig cfg;
  cfg.num_ranks = 2;
  serve::EngineSession session(g, cfg);
  const serve::QueryView view = session.view();
  for (int i = 0; i < 7; ++i) (void)view.point(0);
  const RunResult r = session.close();

  const auto it = r.stats.histogram_summary.find("serve/query_ns/point");
  ASSERT_NE(it, r.stats.histogram_summary.end());
  EXPECT_EQ(it->second.count, 7u);
  EXPECT_GT(it->second.p99, 0.0);
  EXPECT_LE(it->second.p50, it->second.p99);
  // And the JSON surface carries the summaries.
  const std::string json = r.stats.to_json();
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"serve/query_ns/point\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

}  // namespace
}  // namespace aacc
