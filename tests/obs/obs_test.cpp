// Observability subsystem: metrics registry semantics, the span tracer's
// Chrome trace-event export (golden file), and the engine-level guarantees
// — structurally valid deterministic traces, and bit-identical results and
// deterministic stats whether tracing is on or off.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/metric_catalog.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/session.hpp"

namespace aacc {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, CountersAndGauges) {
  obs::MetricsRegistry reg;
  reg.counter("a").add(2);
  reg.counter("a").add(3);
  reg.gauge("g").add(0.5);
  reg.gauge("g").add(0.25);
  EXPECT_EQ(reg.counter_value("a"), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("g"), 0.75);
  EXPECT_EQ(reg.counter_value("missing"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("missing"), 0.0);
  reg.gauge("g").set(9.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("g"), 9.0);
}

TEST(Metrics, HistogramBuckets) {
  obs::Histogram h;
  h.record(0);  // bucket 0
  h.record(1);  // bucket 0
  h.record(2);  // bucket 2: [2, 4)
  h.record(3);  // bucket 2
  h.record(1024);  // bucket 11: [1024, 2048)
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 1030u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1024u);
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[11], 1u);
}

TEST(Metrics, MergeAddsAndCombines) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("c").add(1);
  b.counter("c").add(2);
  b.counter("only_b").add(7);
  a.gauge("g").add(1.5);
  b.gauge("g").add(2.5);
  a.histogram("h").record(4);
  b.histogram("h").record(100);
  a.merge(b);
  EXPECT_EQ(a.counter_value("c"), 3u);
  EXPECT_EQ(a.counter_value("only_b"), 7u);
  EXPECT_DOUBLE_EQ(a.gauge_value("g"), 4.0);
  const obs::Histogram* h = a.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->min, 4u);
  EXPECT_EQ(h->max, 100u);
}

TEST(Metrics, ToJsonIsDeterministic) {
  obs::MetricsRegistry reg;
  reg.counter("z").add(1);
  reg.counter("a").add(2);
  reg.gauge("mid").set(0.5);
  reg.histogram("h").record(3);
  std::ostringstream s1;
  std::ostringstream s2;
  reg.to_json(s1);
  reg.to_json(s2);
  EXPECT_EQ(s1.str(), s2.str());
  // Keys serialize in name order regardless of insertion order.
  const std::string j = s1.str();
  EXPECT_LT(j.find("\"a\""), j.find("\"z\""));
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
}

// ----------------------------------------------------------------- tracer

obs::TraceConfig logical_cfg() {
  obs::TraceConfig cfg;
  cfg.enabled = true;
  cfg.logical_clock = true;
  cfg.track_capacity = 1024;
  return cfg;
}

TEST(Tracer, GoldenChromeTrace) {
  obs::Tracer tracer(2, 1, logical_cfg());
  tracer.track(0).begin("ia", "rows", 3);
  tracer.track(0).end("ia");
  tracer.subtrack(0, 0).begin("ia_shard");
  tracer.subtrack(0, 0).end("ia_shard");
  tracer.track(1).instant("repairs", "count", 7);
  tracer.driver().begin("dd");
  tracer.driver().end("dd");

  std::ostringstream os;
  obs::write_chrome_trace(os, tracer.merge());
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,"
      "\"args\":{\"name\":\"rank 0\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,"
      "\"args\":{\"name\":\"main\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"ts\":0,"
      "\"args\":{\"name\":\"shard 0\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,"
      "\"args\":{\"name\":\"rank 1\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,"
      "\"args\":{\"name\":\"main\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2147483647,\"tid\":0,"
      "\"ts\":0,\"args\":{\"name\":\"driver\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2147483647,\"tid\":0,"
      "\"ts\":0,\"args\":{\"name\":\"driver\"}},\n"
      "{\"name\":\"ia\",\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":1.000,"
      "\"args\":{\"rows\":3}},\n"
      "{\"name\":\"ia\",\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":2.000},\n"
      "{\"name\":\"ia_shard\",\"ph\":\"B\",\"pid\":0,\"tid\":1,"
      "\"ts\":1.000},\n"
      "{\"name\":\"ia_shard\",\"ph\":\"E\",\"pid\":0,\"tid\":1,"
      "\"ts\":2.000},\n"
      "{\"name\":\"repairs\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":1.000,"
      "\"s\":\"t\",\"args\":{\"count\":7}},\n"
      "{\"name\":\"dd\",\"ph\":\"B\",\"pid\":2147483647,\"tid\":0,"
      "\"ts\":1.000},\n"
      "{\"name\":\"dd\",\"ph\":\"E\",\"pid\":2147483647,\"tid\":0,"
      "\"ts\":2.000}\n"
      "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":0}}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(Tracer, ClosesSpansLeftOpen) {
  obs::Tracer tracer(1, 0, logical_cfg());
  tracer.track(0).begin("rc_step");
  tracer.track(0).begin("drain");
  tracer.track(0).instant("mark");
  // No end events: the rank "crashed". The exporter must balance both.
  std::ostringstream os;
  obs::write_chrome_trace(os, tracer.merge());
  const std::string j = os.str();
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (std::size_t p = 0; (p = j.find("\"ph\":\"B\"", p)) != std::string::npos;
       ++p) {
    ++begins;
  }
  for (std::size_t p = 0; (p = j.find("\"ph\":\"E\"", p)) != std::string::npos;
       ++p) {
    ++ends;
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
  // Synthesized ends carry the track's final timestamp (the instant's).
  EXPECT_NE(j.find("{\"name\":\"drain\",\"ph\":\"E\",\"pid\":0,\"tid\":0,"
                   "\"ts\":3.000}"),
            std::string::npos);
}

TEST(Tracer, DropsNewestOnOverflowAndCounts) {
  obs::TraceConfig cfg = logical_cfg();
  cfg.track_capacity = 4;
  obs::Tracer tracer(1, 0, cfg);
  for (int i = 0; i < 10; ++i) tracer.track(0).instant("e");
  EXPECT_EQ(tracer.track(0).size(), 4u);
  EXPECT_EQ(tracer.track(0).dropped(), 6u);
  const obs::Trace t = tracer.merge();
  EXPECT_EQ(t.events.size(), 4u);
  EXPECT_EQ(t.dropped, 6u);
}

TEST(ScopedSpan, NullTrackIsNoOp) {
  const obs::ScopedSpan span(nullptr, "nothing");
  // Destruction must also be a no-op; reaching here is the test.
  SUCCEED();
}

// ----------------------------------------------------------- engine-level

EngineConfig traced_cfg(Rank ranks) {
  EngineConfig cfg;
  cfg.num_ranks = ranks;
  cfg.trace.enabled = true;
  cfg.trace.logical_clock = true;
  return cfg;
}

EventSchedule small_schedule(const Graph& g) {
  EventSchedule schedule;
  VertexAddEvent ev;
  ev.id = g.num_vertices();
  ev.edges = {{0, 1}, {1, 1}};
  schedule.push_back({2, {ev}});
  return schedule;
}

TEST(EngineTrace, StructurallyValidAndComplete) {
  Rng rng(5);
  const Graph g = barabasi_albert(300, 2, rng);
  EngineConfig cfg = traced_cfg(4);
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(small_schedule(g));

  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.dropped, 0u);

  // Per-track: timestamps monotone nondecreasing, begin/end balanced.
  std::map<std::pair<int, int>, std::uint64_t> last_ts;
  std::map<std::pair<int, int>, int> depth;
  std::map<std::string, int> names;
  for (const obs::Trace::Entry& e : r.trace.events) {
    const std::pair<int, int> track{e.pid, e.tid};
    const auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ev.ts_ns, it->second);
    }
    last_ts[track] = e.ev.ts_ns;
    if (e.ev.kind == obs::EventKind::kBegin) {
      ++depth[track];
      ++names[e.ev.name];
    } else if (e.ev.kind == obs::EventKind::kEnd) {
      --depth[track];
      EXPECT_GE(depth[track], 0);
    }
  }
  for (const auto& [track, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on pid " << track.first << " tid "
                    << track.second;
  }

  // Every phase of the run shows up as a span.
  for (const char* expected :
       {"dd", "attempt", "ia", "rc_step", "exchange", "send_assembly",
        "apply_incoming", "drain", "poison_sync", "ingest",
        "result_assembly"}) {
    EXPECT_GT(names[expected], 0) << "missing span " << expected;
  }
}

TEST(EngineTrace, LiveSessionTracesPublishAndProgress) {
  // Live steps publish a snapshot and run the progress fold; both are
  // spans of their own instead of unattributed RC-step time.
  Rng rng(6);
  const Graph g = barabasi_albert(200, 2, rng);
  serve::EngineSession session(g, traced_cfg(2));
  session.ingest(small_schedule(g).front().events);
  const RunResult r = session.close();
  std::map<std::pair<int, std::string>, int> open;
  std::map<std::string, int> closed;
  for (const obs::Trace::Entry& e : r.trace.events) {
    if (e.ev.kind == obs::EventKind::kBegin) {
      ++open[{e.pid, e.ev.name}];
    } else if (e.ev.kind == obs::EventKind::kEnd) {
      --open[{e.pid, e.ev.name}];
      ++closed[e.ev.name];
    }
  }
  for (const auto& [key, depth] : open) {
    EXPECT_EQ(depth, 0) << "unbalanced " << key.second << " on " << key.first;
  }
  // At least the post-IA and the terminal publish on each of two ranks.
  EXPECT_GE(closed["publish"], 4);
  EXPECT_GE(closed["progress"], 2 * static_cast<int>(r.stats.rc_steps));
}

TEST(EngineTrace, LogicalClockTraceIsReproducible) {
  Rng rng(5);
  const Graph g = barabasi_albert(200, 2, rng);
  std::string exported[2];
  for (int i = 0; i < 2; ++i) {
    EngineConfig cfg = traced_cfg(3);
    AnytimeEngine engine(g, cfg);
    const RunResult r = engine.run(small_schedule(g));
    std::ostringstream os;
    obs::write_chrome_trace(os, r.trace);
    exported[i] = os.str();
  }
  EXPECT_EQ(exported[0], exported[1]);
}

TEST(EngineTrace, ResultsIdenticalWithTracingOnOrOff) {
  Rng rng(9);
  const Graph g = barabasi_albert(250, 2, rng);
  RunResult results[2];
  for (int i = 0; i < 2; ++i) {
    EngineConfig cfg;
    cfg.num_ranks = 4;
    cfg.trace.enabled = i == 1;
    AnytimeEngine engine(g, cfg);
    results[i] = engine.run(small_schedule(g));
  }
  const RunStats& off = results[0].stats;
  const RunStats& on = results[1].stats;
  // Bit-identical algorithm outputs and deterministic ledger fields; CPU
  // seconds and wall time legitimately differ run to run.
  EXPECT_EQ(results[0].closeness, results[1].closeness);
  EXPECT_EQ(results[0].harmonic, results[1].harmonic);
  EXPECT_EQ(off.total_bytes, on.total_bytes);
  EXPECT_EQ(off.total_messages, on.total_messages);
  EXPECT_EQ(off.rc_steps, on.rc_steps);
  EXPECT_EQ(off.cut_edges_initial, on.cut_edges_initial);
  EXPECT_EQ(off.cut_edges_final, on.cut_edges_final);
  ASSERT_EQ(off.steps.size(), on.steps.size());
  for (std::size_t s = 0; s < off.steps.size(); ++s) {
    EXPECT_EQ(off.steps[s].relaxations, on.steps[s].relaxations);
    EXPECT_EQ(off.steps[s].poisons, on.steps[s].poisons);
    EXPECT_EQ(off.steps[s].repairs, on.steps[s].repairs);
    EXPECT_EQ(off.steps[s].bytes, on.steps[s].bytes);
  }
  EXPECT_TRUE(results[0].trace.empty());
  EXPECT_FALSE(results[1].trace.empty());
}

TEST(EngineMetrics, RegistryAgreesWithStats) {
  Rng rng(3);
  const Graph g = barabasi_albert(300, 2, rng);
  EngineConfig cfg;
  cfg.num_ranks = 4;
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(small_schedule(g));

  // Walk the catalog: every registered metric sits in the registry under
  // its declared kind, and agrees with its RunStats / StepStats view.
  // Per-step metrics are totalled in step order (rank order within a
  // step), the registry sums rank by rank, so doubles get a tolerance.
  std::set<std::string> declared;
  for (const metrics::Metric& m : metrics::kCatalog) {
    if (m.name == nullptr) continue;
    declared.insert(m.name);
    SCOPED_TRACE(m.name);
    if (m.kind != metrics::Kind::kCounter) {
      EXPECT_EQ(r.metrics.counters().count(m.name), 0u);
    }
    if (m.kind != metrics::Kind::kGauge) {
      EXPECT_EQ(r.metrics.gauges().count(m.name), 0u);
    }
    if (m.kind != metrics::Kind::kHistogram) {
      EXPECT_EQ(r.metrics.histograms().count(m.name), 0u);
    }
    const double value = m.kind == metrics::Kind::kCounter
                             ? static_cast<double>(
                                   r.metrics.counter_value(m.name))
                             : r.metrics.gauge_value(m.name);
    if (m.step.key != nullptr) {
      double total = 0.0;
      metrics::each(m.step.member, [&](auto p) {
        for (const StepStats& s : r.stats.steps) {
          total += static_cast<double>(s.*p);
        }
      });
      if (m.reduce == metrics::Reduce::kSum) {
        EXPECT_NEAR(value, total, 1e-9 * (1.0 + total));
      } else {
        EXPECT_GE(value, total * (1.0 - 1e-9));  // Σ ranks ≥ max rank
      }
    } else {
      metrics::each(m.run.member, [&](auto p) {
        EXPECT_EQ(value, static_cast<double>(r.stats.*p));
      });
    }
  }
  // ...and nothing is registered outside the catalog but the per-phase
  // CPU gauges.
  for (const auto& [name, c] : r.metrics.counters()) {
    EXPECT_TRUE(declared.count(name) != 0) << name;
  }
  for (const auto& [name, h] : r.metrics.histograms()) {
    EXPECT_TRUE(declared.count(name) != 0) << name;
  }
  for (const auto& [name, gauge] : r.metrics.gauges()) {
    EXPECT_TRUE(declared.count(name) != 0 || name.rfind("cpu/phase/", 0) == 0)
        << name;
  }
  EXPECT_GT(r.metrics.counter_value("rc/relaxations"), 0u);
  EXPECT_EQ(r.metrics.counter_value("rc/steps"),
            static_cast<std::uint64_t>(cfg.num_ranks) * r.stats.steps.size());
  const obs::Histogram* depth =
      r.metrics.find_histogram("rc/drain_queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(depth->count, 0u);
}

// docs/OBSERVABILITY.md §Metrics catalog renders the catalog: one table
// row per registry name, with its kind and unit.
TEST(MetricCatalog, EveryRegistryNameIsDocumented) {
  std::ifstream in(std::string(AACC_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(in);
  std::map<std::string, std::vector<std::string>> rows;  // name -> cells
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) in_section = line == "## Metrics catalog";
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    std::vector<std::string> cells;
    std::stringstream row(line.substr(1));
    for (std::string cell; std::getline(row, cell, '|');) {
      cells.push_back(cell.substr(1, cell.size() - 2));  // drop the padding
    }
    ASSERT_GE(cells.size(), 3u) << line;
    rows[cells[0].substr(1, cells[0].size() - 2)] = cells;  // drop backticks
  }
  static constexpr const char* kKinds[] = {"counter", "gauge", "histogram"};
  std::set<std::string> declared;
  for (const metrics::Metric& m : metrics::kCatalog) {
    if (m.name == nullptr) continue;
    declared.insert(m.name);
    const auto it = rows.find(m.name);
    ASSERT_NE(it, rows.end()) << m.name << " missing from the table";
    EXPECT_EQ(it->second[1], kKinds[static_cast<int>(m.kind)]) << m.name;
    EXPECT_EQ(it->second[2], m.unit) << m.name;
  }
  for (const auto& [name, cells] : rows) {
    EXPECT_TRUE(declared.count(name) != 0 || name == "cpu/phase/<phase>")
        << name << " is documented but not in the catalog";
  }
}

TEST(RunStatsJson, SchemaAndDeterminism) {
  Rng rng(2);
  const Graph g = barabasi_albert(120, 2, rng);
  EngineConfig cfg;
  cfg.num_ranks = 2;
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  const std::string with_steps = r.stats.to_json();
  const std::string without = r.stats.to_json(/*include_steps=*/false);
  EXPECT_EQ(with_steps, r.stats.to_json());
  for (const char* key :
       {"\"wall_seconds\"", "\"total_cpu_seconds\"", "\"cpu_by_phase\"",
        "\"total_bytes\"", "\"modeled_network_seconds\"", "\"rc_steps\"",
        "\"recoveries\"", "\"imbalance_final\""}) {
    EXPECT_NE(with_steps.find(key), std::string::npos) << key;
    EXPECT_NE(without.find(key), std::string::npos) << key;
  }
  EXPECT_NE(with_steps.find("\"steps\""), std::string::npos);
  EXPECT_EQ(without.find("\"steps\""), std::string::npos);
  EXPECT_FALSE(r.stats.summary().empty());
}


// Every scalar field distinct, plus each irregular field: per-phase CPU,
// blocked-on ranks, a histogram summary, a recovery record and two steps.
RunStats golden_stats() {
  RunStats s;
  s.wall_seconds = 1.25;
  s.dd_seconds = 0.1;
  s.total_cpu_seconds = 2.0 / 3.0;
  s.max_rank_cpu_seconds = 0.5;
  s.modeled_makespan_seconds = 3.75;
  s.cpu_by_phase["ia"] = 0.25;
  s.cpu_by_phase["rc"] = 1e-7;
  s.total_bytes = 123456789;
  s.total_messages = 4321;
  s.frame_overhead_bytes = 96;
  s.retransmits = 2;
  s.modeled_network_seconds_serialized = 0.3;
  s.rc_steps = 2;
  s.rc_drain_cpu_seconds = 0.7;
  s.rc_exchange_wait_seconds = 0.015625;
  s.rc_blocked_on_seconds = 0.01;
  s.rc_blocked_on_by_rank[1] = 0.004;
  s.rc_blocked_on_by_rank[3] = 0.006;
  s.recoveries = 1;
  s.recovery_log.push_back({"adopt", 4, 0.0625});
  s.invariant_violations = 0;
  s.cut_edges_initial = 40;
  s.cut_edges_final = 44;
  s.imbalance_final = 1.0 / 7.0;
  s.dv_resident_bytes = 65536;
  s.dv_cold_bytes = 2048;
  s.dv_spare_bytes = 4096;
  s.dv_promotions = 17;
  s.dv_demotions = 19;
  s.dv_decode_seconds = 0.001;
  RunStats::HistogramSummary h;
  h.count = 5;
  h.sum = 40;
  h.p50 = 6.5;
  h.p95 = 15.2;
  h.p99 = 15.84;
  s.histogram_summary["rc/drain_queue_depth"] = h;
  StepStats a;
  a.step = 1;
  a.bytes = 1000;
  a.max_cpu_seconds = 0.2;
  a.sum_cpu_seconds = 0.5;
  a.relaxations = 300;
  a.poisons = 0;
  a.repairs = 0;
  a.sum_drain_cpu_seconds = 0.4;
  a.sum_exchange_wait_seconds = 0.01;
  a.max_blocked_seconds = 0.004;
  a.blocked_on_rank = 1;
  StepStats b;
  b.step = 2;
  b.bytes = 24;
  b.max_cpu_seconds = 0.05;
  b.sum_cpu_seconds = 0.125;
  b.relaxations = 7;
  b.poisons = 3;
  b.repairs = 5;
  b.sum_drain_cpu_seconds = 0.3;
  b.sum_exchange_wait_seconds = 0.005625;
  s.steps = {a, b};
  return s;
}

// Byte-exact RunStats::to_json: key order, %.17g doubles and the place of
// each irregular field are the schema benches and CI artifacts carry
// (EXPERIMENTS.md §Machine-readable output).
TEST(RunStatsJson, GoldenBytes) {
  const std::string expected =
      "{\"wall_seconds\":1.25,\"dd_seconds\":0.10000000000000001,"
      "\"total_cpu_seconds\":0.66666666666666663,"
      "\"max_rank_cpu_seconds\":0.5,\"modeled_makespan_seconds\":3.75,"
      "\"cpu_by_phase\":{\"ia\":0.25,\"rc\":9.9999999999999995e-08},"
      "\"total_bytes\":123456789,\"total_messages\":4321,"
      "\"frame_overhead_bytes\":96,\"retransmits\":2,"
      "\"modeled_network_seconds\":{\"serialized\":0.29999999999999999},"
      "\"rc_steps\":2,"
      "\"rc_drain_cpu_seconds\":0.69999999999999996,"
      "\"rc_exchange_wait_seconds\":0.015625,"
      "\"rc_blocked_on_seconds\":0.01,\"rc_blocked_on\":[{\"rank\":1,"
      "\"seconds\":0.0040000000000000001},{\"rank\":3,"
      "\"seconds\":0.0060000000000000001}],"
      "\"histograms\":{\"rc/drain_queue_depth\":{\"count\":5,\"sum\":40,"
      "\"p50\":6.5,\"p95\":15.199999999999999,\"p99\":15.84}},"
      "\"recoveries\":1,\"recovery_log\":[{\"kind\":\"adopt\","
      "\"at_step\":4,\"mttr_seconds\":0.0625}],\"invariant_violations\":0,"
      "\"cut_edges_initial\":40,\"cut_edges_final\":44,"
      "\"imbalance_final\":0.14285714285714285,\"dv_resident_bytes\":65536,"
      "\"dv_cold_bytes\":2048,\"dv_spare_bytes\":4096,\"dv_promotions\":17,\"dv_demotions\":19,"
      "\"dv_decode_seconds\":0.001,\"steps\":[{\"step\":1,\"bytes\":1000,"
      "\"max_cpu_seconds\":0.20000000000000001,\"sum_cpu_seconds\":0.5,"
      "\"relaxations\":300,\"poisons\":0,\"repairs\":0,"
      "\"sum_drain_cpu_seconds\":0.40000000000000002,"
      "\"sum_exchange_wait_seconds\":0.01,\"blocked_on_rank\":1,"
      "\"blocked_seconds\":0.0040000000000000001},{\"step\":2,\"bytes\":24,"
      "\"max_cpu_seconds\":0.050000000000000003,\"sum_cpu_seconds\":0.125,"
      "\"relaxations\":7,\"poisons\":3,\"repairs\":5,"
      "\"sum_drain_cpu_seconds\":0.29999999999999999,"
      "\"sum_exchange_wait_seconds\":0.0056249999999999998,"
      "\"blocked_on_rank\":-1,\"blocked_seconds\":0}]}";
  const RunStats s = golden_stats();
  EXPECT_EQ(s.to_json(), expected);
  EXPECT_EQ(s.to_json(/*include_steps=*/false),
            expected.substr(0, expected.find(",\"steps\":")) + "}");
}

TEST(RunStats, AccumulateSumsKeepsLatestAndAppendsSteps) {
  RunStats total = golden_stats();
  RunStats rerun = golden_stats();
  total.invariant_violations = 1;
  rerun.invariant_violations = 1;
  rerun.cut_edges_final = 50;
  rerun.dv_resident_bytes = 1;
  rerun.steps.resize(1);
  total.accumulate(rerun);
  EXPECT_EQ(total.invariant_violations, 2u);
  EXPECT_EQ(total.rc_steps, 4u);
  EXPECT_EQ(total.total_bytes, 2u * 123456789u);
  EXPECT_DOUBLE_EQ(total.wall_seconds, 2.5);
  EXPECT_DOUBLE_EQ(total.cpu_by_phase.at("ia"), 0.5);
  EXPECT_EQ(total.recovery_log.size(), 2u);
  EXPECT_EQ(total.cut_edges_initial, 40u);  // latest-value fields
  EXPECT_EQ(total.cut_edges_final, 50u);
  EXPECT_EQ(total.dv_resident_bytes, 1u);
  EXPECT_EQ(total.dv_promotions, 34u);  // run totals add
  ASSERT_EQ(total.steps.size(), 3u);
  EXPECT_EQ(total.steps[2].step, 1u);
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

}  // namespace
}  // namespace aacc
