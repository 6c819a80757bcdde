// Cross-rank causal tracing (docs/OBSERVABILITY.md §Causal flows): flow-id
// packing, flow-edge stitching on real engine traces, critical-path
// attribution invariants, attempt isolation across rollback, re-homing
// under shard adoption, wire-format neutrality of the stamping switch,
// histogram percentiles, and the serve-side latency SLOs.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/faults.hpp"
#include "serve/session.hpp"
#include "test_util.hpp"

namespace aacc {
namespace {

using test::make_ba;
using test::make_er;

// --------------------------------------------------------------- flow ids

TEST(FlowId, PackUnpackRoundtrips) {
  const struct {
    std::int32_t src;
    std::uint32_t attempt, step, seq;
  } cases[] = {
      {0, 0, 0, 1},
      {3, 1, 17, 42},
      {4095, 255, (1u << 20) - 1, (1u << 24) - 1},  // field maxima
      {7, 0, 1, 1},
  };
  for (const auto& c : cases) {
    const std::uint64_t id = obs::pack_flow_id(c.src, c.attempt, c.step, c.seq);
    EXPECT_NE(id, 0u);  // 0 is reserved for "unstamped"
    const obs::FlowParts p = obs::unpack_flow_id(id);
    EXPECT_EQ(p.src, c.src);
    EXPECT_EQ(p.attempt, c.attempt);
    EXPECT_EQ(p.step, c.step);
    EXPECT_EQ(p.seq, c.seq);
  }
}

TEST(FlowId, DistinctMessagesGetDistinctIds) {
  // seq is per-sender monotone and attempt/src/step live in disjoint bits,
  // so no two (src, attempt, step, seq) tuples may collide.
  EXPECT_NE(obs::pack_flow_id(1, 0, 5, 9), obs::pack_flow_id(2, 0, 5, 9));
  EXPECT_NE(obs::pack_flow_id(1, 0, 5, 9), obs::pack_flow_id(1, 1, 5, 9));
  EXPECT_NE(obs::pack_flow_id(1, 0, 5, 9), obs::pack_flow_id(1, 0, 6, 9));
  EXPECT_NE(obs::pack_flow_id(1, 0, 5, 9), obs::pack_flow_id(1, 0, 5, 10));
}

// ----------------------------------------------------- engine-trace edges

EngineConfig traced_cfg(Rank P) {
  EngineConfig cfg;
  cfg.num_ranks = P;
  cfg.trace.enabled = true;
  cfg.trace.flow_stamping = true;
  return cfg;
}

TEST(CausalStitch, EveryFlowOnACleanRunMatches) {
  const Graph g = make_ba(120, 2, 5);
  AnytimeEngine engine(g, traced_cfg(4));
  const RunResult r = engine.run();

  const obs::CausalAnalysis a = obs::analyze_causal(r.trace);
  EXPECT_GT(a.flow_sends, 0u);
  EXPECT_EQ(a.flow_recvs, a.flow_sends);
  EXPECT_EQ(a.matched_edges, a.flow_sends);
  EXPECT_EQ(a.rehomed_sends, 0u);
  EXPECT_EQ(a.dangling_sends, 0u);
  EXPECT_EQ(a.unmatched_recvs, 0u);
  // The attempt counter bumps at every contained-run start; a clean run
  // uses exactly one attempt for every edge.
  const std::uint32_t attempt0 = a.edges.empty() ? 0 : a.edges[0].attempt;
  for (const obs::FlowEdge& e : a.edges) {
    EXPECT_NE(e.src_rank, e.dst_rank);  // self-sends are applied locally
    EXPECT_GE(e.seq, 1u);               // seq 0 never minted
    EXPECT_EQ(e.attempt, attempt0);     // no recovery: one attempt only
    EXPECT_LE(e.send_ts_us, e.recv_ts_us + 1e-6);
  }
}

TEST(CausalStitch, ChromeTraceRoundtripPreservesTheEdges) {
  // Export the trace as Chrome JSON (with the Perfetto flow lines) and
  // parse it back: the offline `aacc analyze --critical-path` path must
  // see exactly the edges the in-memory analysis sees.
  const Graph g = make_ba(100, 2, 7);
  AnytimeEngine engine(g, traced_cfg(3));
  const RunResult r = engine.run();
  const obs::CausalAnalysis direct = obs::analyze_causal(r.trace);

  std::ostringstream os;
  obs::write_chrome_trace(os, r.trace);
  std::istringstream is(os.str());
  std::vector<obs::CausalEvent> events;
  ASSERT_TRUE(obs::load_chrome_trace(is, events));
  const obs::CausalAnalysis parsed = obs::analyze_causal(events);

  EXPECT_EQ(parsed.flow_sends, direct.flow_sends);
  EXPECT_EQ(parsed.flow_recvs, direct.flow_recvs);
  EXPECT_EQ(parsed.matched_edges, direct.matched_edges);
  EXPECT_EQ(parsed.steps.size(), direct.steps.size());
}

// ------------------------------------------------- critical-path coverage

TEST(CriticalPath, CoversEachStepsMakespan) {
  // Acceptance bound (ISSUE 10): per-step critical-path time >= the step
  // makespan minus merge overhead. The walk partitions the makespan window
  // exactly, so the two agree to FP rounding.
  const Graph g = make_er(140, 420, 11, WeightRange{1, 4});
  AnytimeEngine engine(g, traced_cfg(4));
  const RunResult r = engine.run();

  const obs::CausalAnalysis a = obs::analyze_causal(r.trace);
  ASSERT_TRUE(a.wall_clock);
  ASSERT_FALSE(a.steps.empty());
  for (const obs::StepAttribution& s : a.steps) {
    EXPECT_GE(s.makespan_seconds, 0.0);
    EXPECT_GE(s.critical_path_seconds,
              0.999 * s.makespan_seconds - 1e-9)
        << "step " << s.step;
    EXPECT_GE(s.straggler, 0);
    EXPECT_LT(s.straggler, 4);
    // The chain is the partition; its segments sum to the critical path.
    double chain_sum = 0.0;
    for (const obs::PhaseCost& c : s.chain) {
      EXPECT_GE(c.seconds, -1e-12);
      EXPECT_GE(c.rank, 0);
      chain_sum += c.seconds;
    }
    EXPECT_NEAR(chain_sum, s.critical_path_seconds,
                1e-9 + 1e-6 * s.critical_path_seconds);
    // blocked_on is the same time aggregated by (rank, phase), largest
    // first.
    double blocked_sum = 0.0;
    for (std::size_t i = 0; i < s.blocked_on.size(); ++i) {
      if (i > 0) {
        EXPECT_LE(s.blocked_on[i].seconds, s.blocked_on[i - 1].seconds);
      }
      blocked_sum += s.blocked_on[i].seconds;
    }
    EXPECT_NEAR(blocked_sum, s.critical_path_seconds,
                1e-9 + 1e-6 * s.critical_path_seconds);
  }
}

// ----------------------------------------------- deterministic flow trace

TEST(CausalStitch, LogicalClockFlowTraceIsByteIdentical) {
  // Acceptance criterion: with trace.logical_clock the flow-stamped Chrome
  // trace is byte-identical across reruns of the same config.
  const Graph g = make_ba(90, 2, 13);
  EngineConfig cfg = traced_cfg(3);
  cfg.trace.logical_clock = true;

  const auto traced_json = [&] {
    AnytimeEngine engine(g, cfg);
    const RunResult r = engine.run();
    std::ostringstream os;
    obs::write_chrome_trace(os, r.trace);
    return os.str();
  };
  const std::string first = traced_json();
  const std::string second = traced_json();
  EXPECT_EQ(first, second);

  // Logical ticks are per-track: flow edges still stitch exactly, but the
  // cross-rank attribution is skipped rather than fabricated.
  AnytimeEngine engine(g, cfg);
  const obs::CausalAnalysis a =
      obs::analyze_causal(engine.run().trace, /*wall_clock=*/false);
  EXPECT_FALSE(a.wall_clock);
  EXPECT_GT(a.matched_edges, 0u);
  EXPECT_TRUE(a.steps.empty());
}

// ------------------------------------------- wire-format neutrality gates

TEST(FlowStamping, ResultsAreBitIdenticalOnOrOff) {
  const Graph g = make_er(110, 330, 17, WeightRange{1, 3});
  EngineConfig base;
  base.num_ranks = 4;
  // Reliable transport so stamping exercises the framed wire path.
  base.transport.reliable = true;

  AnytimeEngine plain_engine(g, base);
  const RunResult plain = plain_engine.run();

  EngineConfig off = base;
  off.trace.enabled = true;  // tracing on, stamping off
  AnytimeEngine off_engine(g, off);
  const RunResult without = off_engine.run();

  EngineConfig on = off;
  on.trace.flow_stamping = true;
  AnytimeEngine on_engine(g, on);
  const RunResult with = on_engine.run();

  ASSERT_EQ(plain.closeness.size(), with.closeness.size());
  for (VertexId v = 0; v < plain.closeness.size(); ++v) {
    ASSERT_EQ(plain.closeness[v], without.closeness[v]) << "vertex " << v;
    ASSERT_EQ(plain.closeness[v], with.closeness[v]) << "vertex " << v;
    ASSERT_EQ(plain.harmonic[v], with.harmonic[v]) << "vertex " << v;
  }
  // Stamping off: the wire is bit-identical to the unstamped format —
  // same payload bytes, same per-frame overhead.
  EXPECT_EQ(without.stats.total_bytes, plain.stats.total_bytes);
  EXPECT_EQ(without.stats.frame_overhead_bytes,
            plain.stats.frame_overhead_bytes);
  // Stamping on: the 8-byte flow id is honestly accounted as overhead.
  EXPECT_GT(with.stats.frame_overhead_bytes,
            without.stats.frame_overhead_bytes);
}

// ----------------------------------------------------- recovery semantics

EventSchedule small_schedule(const Graph& g) {
  EventSchedule sched;
  EventBatch b;
  b.at_step = 1;
  VertexId fresh = g.num_vertices() / 2;
  while (fresh == 0 || g.has_edge(0, fresh)) ++fresh;
  b.events.push_back(EdgeAddEvent{0, fresh, 1});
  sched.push_back(std::move(b));
  return sched;
}

TEST(CausalRecovery, RollbackReplayNeverMatchesPreRollbackSends) {
  // Attempt isolation is structural: the attempt field is part of the flow
  // id, and every contained relaunch bumps it, so a replayed recv can
  // never pair with a pre-rollback send. The pre-crash attempt's in-flight
  // sends become unmatched — and classified as re-homed, not dangling,
  // because the trace carries the recovery instants.
  const Graph g = make_er(130, 390, 19, WeightRange{1, 3});
  EngineConfig cfg = traced_cfg(4);
  cfg.checkpoint_every = 2;
  cfg.recovery_policy = {{RecoveryPolicy::kRollback, 0}};
  cfg.transport.retry_backoff = std::chrono::microseconds(1);
  cfg.faults.crashes.push_back({1, 3});
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(small_schedule(g));
  ASSERT_EQ(r.stats.recoveries, 1u);

  const obs::CausalAnalysis a = obs::analyze_causal(r.trace);
  EXPECT_GT(a.matched_edges, 0u);
  EXPECT_EQ(a.dangling_sends, 0u);
  // Both attempts left matched edges in the trace, and no edge mixes them
  // (matching is by the full id, attempt included).
  std::uint32_t min_attempt = ~0u, max_attempt = 0;
  for (const obs::FlowEdge& e : a.edges) {
    min_attempt = std::min(min_attempt, e.attempt);
    max_attempt = std::max(max_attempt, e.attempt);
  }
  EXPECT_GT(max_attempt, min_attempt);
}

TEST(CausalRecovery, AdoptionRehomesTheDeadRanksFlows) {
  // Shard adoption keeps the survivors' attempt alive: the dead rank's
  // unmatched flow:send instants must be classified re-homed (the adopter
  // answers for its shards), leaving nothing dangling.
  const Graph g = make_er(130, 390, 23, WeightRange{1, 3});
  EngineConfig cfg = traced_cfg(4);
  cfg.checkpoint_every = 2;  // adoption splits shards out of these snapshots
  cfg.recovery_policy = {{RecoveryPolicy::kAdopt, 0}};
  cfg.transport.retry_backoff = std::chrono::microseconds(1);
  cfg.faults.crashes.push_back({2, 2});
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(small_schedule(g));
  ASSERT_EQ(r.stats.recoveries, 1u);
  EXPECT_FALSE(r.degraded);

  const obs::CausalAnalysis a = obs::analyze_causal(r.trace);
  EXPECT_GT(a.matched_edges, 0u);
  EXPECT_EQ(a.dangling_sends, 0u);
}

// ------------------------------------------------- histogram percentiles

TEST(HistogramQuantile, EmptySingleAndClampedCases) {
  obs::Histogram h;
  EXPECT_EQ(obs::histogram_quantile(h, 0.5), 0.0);

  h.record(1000);
  EXPECT_EQ(obs::histogram_quantile(h, 0.0), 1000.0);
  EXPECT_EQ(obs::histogram_quantile(h, 0.5), 1000.0);
  EXPECT_EQ(obs::histogram_quantile(h, 1.0), 1000.0);

  obs::Histogram u;
  for (std::uint64_t v = 1; v <= 1024; ++v) u.record(v);
  // Power-of-two buckets: the estimate is exact to within one bucket
  // width (a factor of two), and always clamped to [min, max].
  const double p50 = obs::histogram_quantile(u, 0.50);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
  const double p99 = obs::histogram_quantile(u, 0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1024.0);
  EXPECT_LE(obs::histogram_quantile(u, 0.5), obs::histogram_quantile(u, 0.95));
  EXPECT_LE(obs::histogram_quantile(u, 0.95), obs::histogram_quantile(u, 0.99));
  EXPECT_EQ(obs::histogram_quantile(u, 1.0), 1024.0);
  EXPECT_EQ(obs::histogram_quantile(u, 0.0), 1.0);
}

TEST(HistogramQuantile, RegistryJsonCarriesThePercentiles) {
  obs::MetricsRegistry reg;
  for (std::uint64_t v = 1; v <= 64; ++v) reg.histogram("lat").record(v * 10);
  std::ostringstream os;
  reg.to_json(os);
  const std::string json = os.str();
  const std::size_t at = json.find("\"lat\"");
  ASSERT_NE(at, std::string::npos);
  // Stable key order: count, sum, min, max, p50, p95, p99, buckets.
  const char* keys[] = {"\"count\":", "\"sum\":",  "\"min\":", "\"max\":",
                        "\"p50\":",   "\"p95\":", "\"p99\":", "\"buckets\":"};
  std::size_t pos = at;
  for (const char* k : keys) {
    pos = json.find(k, pos);
    ASSERT_NE(pos, std::string::npos) << "missing " << k;
  }
}

// --------------------------------------------------------- serve-side SLOs

TEST(ServeSlo, HistogramsCountEveryQueryKindSeparately) {
  const Graph g = make_ba(60, 2, 7);
  EngineConfig cfg;
  cfg.num_ranks = 2;
  cfg.serve_sample_every = 2;
  cfg.serve_sample_seed = 1;
  serve::EngineSession session(g, cfg);
  const serve::QueryView view = session.view();
  const RunResult r0 = session.close();
  (void)r0;

  // Post-close queries are deterministic (exact final state, age 0) and
  // serial, so the counts and the 1-in-N sample set are exact.
  for (int i = 0; i < 10; ++i) (void)view.point(static_cast<VertexId>(i));
  for (int i = 0; i < 3; ++i) (void)view.top_k(5);
  for (int i = 0; i < 5; ++i) (void)view.rank_of(static_cast<VertexId>(i));

  const serve::SloSnapshot slo = session.slo();
  EXPECT_EQ(slo.point.count, 10u);
  EXPECT_EQ(slo.top_k.count, 3u);
  EXPECT_EQ(slo.rank_of.count, 5u);
  EXPECT_GT(obs::histogram_quantile(slo.point, 0.99), 0.0);
  EXPECT_LE(obs::histogram_quantile(slo.point, 0.50),
            obs::histogram_quantile(slo.point, 0.99));

  // Sampling is (index + seed) % every == 0 over the global query index:
  // with every=2, seed=1 the odd indices are captured, in order.
  const std::vector<serve::QuerySample> samples = session.query_samples();
  ASSERT_EQ(samples.size(), 9u);  // 18 queries, every other one
  const char expected_kinds[] = {'p', 'p', 'p', 'p', 'p', 't', 'r', 'r', 'r'};
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].index, 2 * i + 1) << "sample " << i;
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

TEST(ServeSlo, SamplingDisabledWhenEveryIsZero) {
  const Graph g = make_ba(40, 2, 11);
  EngineConfig cfg;
  cfg.num_ranks = 2;
  cfg.serve_sample_every = 0;
  serve::EngineSession session(g, cfg);
  const serve::QueryView view = session.view();
  (void)session.close();
  for (int i = 0; i < 8; ++i) (void)view.point(0);
  EXPECT_EQ(session.slo().point.count, 8u);
  EXPECT_TRUE(session.query_samples().empty());
}

// ------------------------------------------- silence names the stuck flow

TEST(HealthFlow, DeathMessageNamesTheAwaitedFlow) {
  // Satellite: PeerFailedError from a health declaration under the
  // reliable transport names the exact message the observer was stuck on
  // (RC step + next expected frame seqno from that peer).
  rt::TransportConfig tc;
  tc.reliable = true;
  tc.recv_timeout = std::chrono::milliseconds(30000);
  tc.retry_backoff = std::chrono::microseconds(1);
  rt::World world(2, {}, tc);
  rt::HealthConfig hc;
  hc.enabled = true;
  hc.straggler_after = std::chrono::milliseconds(10);
  hc.suspect_after = std::chrono::milliseconds(20);
  hc.dead_after = std::chrono::milliseconds(60);
  world.install_health(hc);
  const auto report = world.run_contained([&](rt::Comm& comm) {
    if (comm.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      return;
    }
    (void)comm.recv(1, 5);
  });
  ASSERT_FALSE(report.ok());
  bool saw_flow = false;
  for (const Rank r : report.failed) {
    try {
      std::rethrow_exception(report.errors[static_cast<std::size_t>(r)]);
    } catch (const rt::PeerFailedError& e) {
      EXPECT_EQ(e.peer(), 1);
      const std::string what = e.what();
      EXPECT_NE(what.find("stuck awaiting flow (step="), std::string::npos)
          << what;
      saw_flow = true;
    } catch (...) {
    }
  }
  EXPECT_TRUE(saw_flow);
}

}  // namespace
}  // namespace aacc
