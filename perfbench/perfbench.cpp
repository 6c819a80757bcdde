// Wall-clock benchmark of the anytime anywhere closeness engine.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Drives the library only through its public calls (AnytimeEngine,
// serve::EngineSession, QueryView), times each call from here, reads the
// counters the results already carry (RunStats, RunResult::metrics), and
// checks every answer against a reference Dijkstra on the benchmark's own
// copy of the final graph, outside every timed region. The engine's own
// tracer and progress feed stay off, so the numbers describe the program
// as users run it.
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 the benchmark also records its own spans around each
// library call and the last line carries the per-layer metrics. Workloads,
// metrics and the layer each one belongs to are described in README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "harness.hpp"
#include "serve/session.hpp"

namespace perfbench {
namespace {

using aacc::EngineConfig;
using aacc::RunResult;
using aacc::RunStats;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run reports. Correctness counters are shared by every phase.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return 1e-9 * static_cast<double>(b_ns - a_ns);
}

/// Reference check shared by the batch and live workloads: the reported
/// closeness of each sampled vertex equals reference Dijkstra bit for bit.
void verify_closeness(const std::vector<double>& closeness,
                      const Graph& final_graph, std::uint64_t seed,
                      Outcome& out) {
  out.check(closeness.size() == final_graph.num_vertices());
  if (closeness.size() != final_graph.num_vertices()) return;
  for (const VertexId v : sample_vertices(final_graph, 48, seed)) {
    out.check(closeness[v] == reference_closeness(final_graph, v));
  }
}

/// Layer counters every engine run carries, shared by all workloads.
/// Times are medians over the run's solves; counts come from the first
/// timed solve, whose input depends on the seed alone, so they repeat.
struct EngineLayers {
  std::vector<double> dd_s, ia_cpu, drain_cpu, rc_other_cpu, exchange_wait,
      blocked_on, model_s, dv_decode;
  std::optional<RunStats> first;

  void add(const RunStats& s) {
    const auto phase = [&s](const char* name) {
      const auto it = s.cpu_by_phase.find(name);
      return it == s.cpu_by_phase.end() ? 0.0 : it->second;
    };
    dd_s.push_back(s.dd_seconds);
    ia_cpu.push_back(phase("ia"));
    drain_cpu.push_back(s.rc_drain_cpu_seconds);
    rc_other_cpu.push_back(phase("rc") - s.rc_drain_cpu_seconds);
    exchange_wait.push_back(s.rc_exchange_wait_seconds);
    blocked_on.push_back(s.rc_blocked_on_seconds);
    model_s.push_back(s.modeled_makespan_seconds);
    dv_decode.push_back(s.dv_decode_seconds);
    if (!first) first = s;
  }

  void report(double solve_s, std::vector<Metric>& out) const {
    const RunStats last = first.value_or(RunStats{});
    std::uint64_t poisons = 0;
    std::uint64_t repairs = 0;
    std::uint64_t relaxations = 0;
    for (const aacc::StepStats& st : last.steps) {
      poisons += st.poisons;
      repairs += st.repairs;
      relaxations += st.relaxations;
    }
    const double model = median(model_s);
    out.push_back({"partition.dd_s", median(dd_s), "s"});
    out.push_back({"partition.cut_edges",
                   static_cast<double>(last.cut_edges_initial), "count"});
    out.push_back({"core.ia_cpu_s", median(ia_cpu), "s"});
    out.push_back({"core.drain_cpu_s", median(drain_cpu), "s"});
    out.push_back({"core.rc_other_cpu_s", median(rc_other_cpu), "s"});
    out.push_back({"core.poisons", static_cast<double>(poisons), "count"});
    out.push_back({"core.repairs", static_cast<double>(repairs), "count"});
    out.push_back(
        {"core.relaxations", static_cast<double>(relaxations), "count"});
    out.push_back(
        {"core.rc_steps", static_cast<double>(last.rc_steps), "count"});
    out.push_back({"core.imbalance", last.imbalance_final, "ratio"});
    out.push_back({"core.dv_promotions",
                   static_cast<double>(last.dv_promotions), "count"});
    out.push_back({"core.dv_demotions",
                   static_cast<double>(last.dv_demotions), "count"});
    out.push_back({"core.dv_decode_s", median(dv_decode), "s"});
    out.push_back({"core.dv_hot_mb",
                   static_cast<double>(last.dv_resident_bytes) / 1e6, "MB"});
    out.push_back({"core.dv_cold_mb",
                   static_cast<double>(last.dv_cold_bytes) / 1e6, "MB"});
    out.push_back({"runtime.bytes_mb",
                   static_cast<double>(last.total_bytes) / 1e6, "MB"});
    out.push_back({"runtime.messages",
                   static_cast<double>(last.total_messages), "count"});
    out.push_back({"runtime.exchange_wait_s", median(exchange_wait), "s"});
    out.push_back({"runtime.blocked_on_s", median(blocked_on), "s"});
    out.push_back({"runtime.model_s", model, "s"});
    out.push_back({"runtime.model_error",
                   solve_s > 0 ? std::abs(model - solve_s) / solve_s : 0.0,
                   "ratio"});
  }
};

/// Serve-layer figures; zero on the batch workloads, which never serve.
struct ServeLayers {
  LatencyLog all, point, top_k, rank_of, age_steps;
  std::vector<double> visible_ms, ingest_us;
  double window_s = 0.0;
  double close_s = 0.0;
  double late_max_ms = 0.0;
  double publishes = 0.0;
  std::uint64_t batches = 0;

  void report(std::vector<Metric>& out) const {
    const auto us = [](const LatencyLog& h, double q) {
      return h.quantile(q) / 1e3;
    };
    out.push_back({"serve.query_p50_us", us(all, 0.5), "us"});
    out.push_back({"serve.query_p99_us", us(all, 0.99), "us"});
    out.push_back({"serve.queries_per_s",
                   window_s > 0 ? static_cast<double>(all.count()) / window_s
                                : 0.0,
                   "1/s"});
    out.push_back({"serve.point_p50_us", us(point, 0.5), "us"});
    out.push_back({"serve.point_p99_us", us(point, 0.99), "us"});
    out.push_back({"serve.top_k_p50_us", us(top_k, 0.5), "us"});
    out.push_back({"serve.top_k_p99_us", us(top_k, 0.99), "us"});
    out.push_back({"serve.rank_of_p50_us", us(rank_of, 0.5), "us"});
    out.push_back({"serve.rank_of_p99_us", us(rank_of, 0.99), "us"});
    out.push_back({"serve.visible_p50_ms", quantile(visible_ms, 0.5), "ms"});
    out.push_back({"serve.visible_p90_ms", quantile(visible_ms, 0.9), "ms"});
    out.push_back({"serve.ingest_call_us", median(ingest_us), "us"});
    out.push_back({"serve.publishes", publishes, "count"});
    out.push_back({"serve.age_steps_p99", age_steps.quantile(0.99), "steps"});
    out.push_back({"serve.close_s", close_s, "s"});
    out.push_back({"load.late_max_ms", late_max_ms, "ms"});
    out.push_back(
        {"load.queries", static_cast<double>(all.count()), "count"});
    out.push_back({"load.batches", static_cast<double>(batches), "count"});
  }
};

/// Span names whose mean self time per occurrence is reported, with the
/// unit each is scaled to.
struct SpanMetric {
  const char* span;
  const char* metric;
  const char* unit;
  double scale;
};
constexpr SpanMetric kSpanMetrics[] = {
    {"generate", "span.generate_s", "s", 1.0},
    {"setup", "span.setup_ms", "ms", 1e3},
    {"construct", "span.construct_ms", "ms", 1e3},
    {"run", "span.run_s", "s", 1.0},
    {"open", "span.open_ms", "ms", 1e3},
    {"warmup", "span.warmup_s", "s", 1.0},
    {"ingest", "span.ingest_us", "us", 1e6},
    {"feed", "span.feed_s", "s", 1.0},
    {"query", "span.query_us", "us", 1e6},
    {"close", "span.close_ms", "ms", 1e3},
    {"verify", "span.verify_s", "s", 1.0},
    {"bench", "span.bench_self_s", "s", 1.0},
};

/// Measured cost of one begin/end pair on an enabled tracer.
double span_cost_seconds() {
  constexpr int kPairs = 20000;
  Tracer cal(true, kPairs);
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kPairs; ++i) cal.end(cal.begin("calibrate"));
  return seconds_between(t0, now_ns()) / kPairs;
}

void report_spans(const std::vector<const Tracer*>& tracers, double wall_s,
                  std::vector<Metric>& out) {
  std::map<std::string, std::pair<double, std::size_t>> self;
  std::size_t spans = 0;
  for (const Tracer* t : tracers) {
    for (const auto& [name, v] : t->self_seconds()) {
      self[name].first += v.first;
      self[name].second += v.second;
    }
    spans += t->spans().size() + t->dropped();
  }
  for (const SpanMetric& m : kSpanMetrics) {
    const auto it = self.find(m.span);
    const double mean = it == self.end() || it->second.second == 0
                            ? 0.0
                            : it->second.first /
                                  static_cast<double>(it->second.second);
    out.push_back({m.metric, mean * m.scale, m.unit});
  }
  out.push_back({"span.overhead_pct",
                 100.0 * static_cast<double>(spans) * span_cost_seconds() /
                     wall_s,
                 "%"});
}

void write_trace(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
  if (path.empty()) return;
  std::ofstream os(path);
  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t i = 0; i < tracers.size(); ++i) {
    tracers[i]->write_chrome(os, static_cast<int>(i), first);
  }
  os << "\n]}\n";
}

// ---------------------------------------------------------------- batch

struct BatchInput {
  EngineConfig cfg;
  Graph initial;
  EventSchedule schedule;
  Graph final_graph;
};

BatchInput make_batch_input(const std::string& workload, std::uint64_t seed) {
  BatchInput in;
  EngineConfig& cfg = in.cfg;
  cfg.seed = seed;
  cfg.ia_threads = 1;
  cfg.rc_threads = 1;
  if (workload == "static_ba") {
    cfg.num_ranks = 4;
    in.initial = ba_graph(6000, 2, stream_seed(seed, 1));
    in.final_graph = in.initial;
  } else if (workload == "churn_ba") {
    cfg.num_ranks = 4;
    in.initial = ba_graph(3000, 3, stream_seed(seed, 1));
    in.final_graph = in.initial;
    in.schedule = churn_schedule(in.final_graph, 6, 48, 2, 2,
                                 stream_seed(seed, 2));
  } else {  // tiered_islands
    cfg.num_ranks = 2;
    cfg.ia_threads = 2;
    cfg.rc_threads = 2;
    cfg.dd_partitioner = aacc::PartitionerKind::kBlock;
    cfg.dv_budget_bytes = 64ULL << 20;
    in.initial = island_graph(128000, stream_seed(seed, 1));
    in.final_graph = in.initial;
    in.schedule =
        island_schedule(in.final_graph, 32, 4, 4, stream_seed(seed, 2));
  }
  return in;
}

/// Engine constructions per set-up sample. A construction takes well under
/// a millisecond, so each sample is the mean of a batch, and one batch runs
/// before every solve to spread the samples over the run.
constexpr int kSetupBatch = 16;

Outcome run_batch(const Args& a, Tracer& tr) {
  Outcome out;
  std::vector<double> setup, solve;
  EngineLayers layers;
  // Solve i runs on its own input (seed, i): a run's median then averages
  // over several graphs and schedules, not over repeats of one draw. Solve
  // 0 is an untimed warm-up (verified like the rest): the first solve in a
  // process pays page faults that later solves and long-lived callers do
  // not, and on a 4-core box it read 20-40% slower.
  std::int64_t window = 0;
  for (std::uint64_t i = 0;; ++i) {
    if (i == 1) {
      window = now_ns();
    } else if (i > 1 && seconds_between(window, now_ns()) >= a.seconds) {
      break;
    }
    const bool timed = i > 0;
    std::optional<BatchInput> in;
    {
      const Span s(tr, "generate");
      in.emplace(make_batch_input(a.workload, stream_seed(a.seed, 100 + i)));
    }
    if (timed) {
      std::deque<aacc::AnytimeEngine> engines;  // destroyed untimed
      const Span s(tr, "setup");
      const std::int64_t t0 = now_ns();
      for (int k = 0; k < kSetupBatch; ++k) {
        engines.emplace_back(in->initial, in->cfg);
      }
      setup.push_back(seconds_between(t0, now_ns()) / kSetupBatch);
    }
    const std::int64_t t0 = now_ns();
    std::optional<aacc::AnytimeEngine> engine;
    {
      const Span s(tr, "construct");
      engine.emplace(in->initial, in->cfg);
    }
    std::optional<RunResult> r;
    {
      const Span s(tr, "run");
      r.emplace(engine->run(in->schedule));
    }
    if (timed) {
      solve.push_back(seconds_between(t0, now_ns()));
      layers.add(r->stats);
    }
    engine.reset();
    const Span s(tr, "verify");
    verify_closeness(r->closeness, in->final_graph, stream_seed(a.seed, 9 + i),
                     out);
  }

  const double solve_s = median(solve);
  std::printf("# %s: %zu solves, solve_s samples:", a.workload.c_str(),
              solve.size());
  for (const double v : solve) std::printf(" %.4f", v);
  std::printf("\n");
  out.end_to_end = {{"solve_s", solve_s, "s"},
                    {"setup_s", median(setup), "s"},
                    // A batch run answers nothing before it returns.
                    {"first_answer_s", solve_s, "s"},
                    {"peak_rss_mb", peak_rss_mb(), "MB"}};
  layers.report(solve_s, out.per_layer);
  ServeLayers{}.report(out.per_layer);
  return out;
}

// ---------------------------------------------------------------- serve

constexpr VertexId kServeVertices = 2000;
constexpr std::int64_t kFeedIntervalNs = 100'000'000;  // one batch / 100 ms
constexpr std::int64_t kQuietNs = 300'000'000;
constexpr std::int64_t kWaitLimitNs = 60'000'000'000;
constexpr int kMinWarmupSessions = 3;
constexpr std::uint64_t kQuerySampleEvery = 1024;

EngineConfig serve_config(std::uint64_t seed) {
  EngineConfig cfg;
  cfg.seed = seed;
  cfg.num_ranks = 2;
  cfg.ia_threads = 1;
  cfg.rc_threads = 1;
  cfg.publish_every = 1;
  return cfg;
}

struct Warmup {
  double first_answer_s = 0.0;
  double quiescent_s = 0.0;
  bool ok = false;
};

/// Polls the merged top-1 until the engine stops advancing: the first
/// answered query marks the anytime first answer, and the last change of
/// (snapshot step, engine step, top vertex, its closeness) before kQuietNs
/// of silence marks quiescence (rank 0 blocks on the empty feed only
/// there). The IA publish and the first RC step share step 0, so the
/// answer itself is part of the key, and the first RC exchange can take
/// longer than kQuietNs, so quiescence needs a completed step 1.
Warmup await_quiescence(const aacc::serve::QueryView& view,
                        std::int64_t t_open) {
  Warmup w;
  std::int64_t first = -1;
  std::int64_t last_change = t_open;
  std::size_t step = 0;
  std::size_t engine_step = 0;
  aacc::serve::TopkEntry top;
  for (;;) {
    const aacc::serve::TopkResponse r = view.top_k(1);
    const std::int64_t t = now_ns();
    if (!r.entries.empty()) {
      if (first < 0 || r.meta.step != step ||
          r.meta.engine_step != engine_step || r.entries[0].v != top.v ||
          r.entries[0].closeness != top.closeness) {
        if (first < 0) first = t;
        step = r.meta.step;
        engine_step = r.meta.engine_step;
        top = r.entries[0];
        last_change = t;
      } else if (r.meta.engine_step >= 1 && r.meta.age_steps == 0 &&
                 t - last_change > kQuietNs) {
        w.ok = true;
        break;
      }
    }
    if (t - t_open > kWaitLimitNs) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  w.first_answer_s = first < 0 ? 0.0 : seconds_between(t_open, first);
  w.quiescent_s = seconds_between(t_open, last_change);
  return w;
}

/// Closed-loop client: 90% point, 8% rank_of, 2% top_k(10) over the
/// initial vertices (all of which must be found), latencies into
/// fixed-size histograms, one span per kQuerySampleEvery queries.
struct Client {
  ServeLayers& layers;
  const aacc::serve::QueryView& view;
  std::uint64_t seed;
  Tracer& tracer;
  std::uint64_t failures = 0;

  void run(const std::stop_token& stop) {
    SeedRng rng(seed);
    const Span root(tracer, "client");
    for (std::uint64_t i = 0; !stop.stop_requested(); ++i) {
      const std::uint64_t pick = rng.below(100);
      const auto v = static_cast<VertexId>(rng.below(kServeVertices));
      const bool sampled = tracer.enabled() && i % kQuerySampleEvery == 0;
      const int span = sampled ? tracer.begin("query") : -1;
      bool ok = false;
      std::size_t age = 0;
      LatencyLog* kind = nullptr;
      const std::int64_t t0 = now_ns();
      if (pick < 90) {
        const auto r = view.point(v);
        ok = r.found;
        age = r.meta.age_steps;
        kind = &layers.point;
      } else if (pick < 98) {
        const auto r = view.rank_of(v);
        ok = r.found;
        age = r.meta.age_steps;
        kind = &layers.rank_of;
      } else {
        const auto r = view.top_k(10);
        ok = r.entries.size() == 10;
        age = r.meta.age_steps;
        kind = &layers.top_k;
      }
      const auto ns = static_cast<std::uint64_t>(now_ns() - t0);
      tracer.end(span);
      kind->record(ns);
      layers.all.record(ns);
      layers.age_steps.record(age);
      if (!ok) ++failures;
    }
  }
};

/// Rank of v under (closeness desc, id asc) among all vertices.
std::size_t expected_rank(const std::vector<double>& c, VertexId v) {
  std::size_t rank = 1;
  for (VertexId u = 0; u < c.size(); ++u) {
    if (c[u] > c[v] || (c[u] == c[v] && u < v)) ++rank;
  }
  return rank;
}

void verify_serve(const aacc::serve::QueryView& view, const RunResult& r,
                  const Graph& final_graph, std::uint64_t seed, Outcome& out) {
  verify_closeness(r.closeness, final_graph, seed, out);
  if (r.closeness.size() != final_graph.num_vertices()) return;
  const std::vector<VertexId> sample = sample_vertices(final_graph, 48, seed);
  for (const VertexId v : sample) {
    const auto p = view.point(v);
    out.check(p.found && p.closeness == r.closeness[v]);
  }
  for (std::size_t i = 0; i < 8 && i < sample.size(); ++i) {
    const auto q = view.rank_of(sample[i]);
    out.check(q.found && q.rank == expected_rank(r.closeness, sample[i]));
  }
  const std::vector<VertexId> top = r.top_closeness(10);
  const auto t = view.top_k(10);
  bool same = t.entries.size() == top.size();
  for (std::size_t i = 0; same && i < top.size(); ++i) {
    same = t.entries[i].v == top[i] &&
           t.entries[i].closeness == r.closeness[top[i]];
  }
  out.check(same);
}

Outcome run_serve(const Args& a, Tracer& tr, Tracer& client_tracer) {
  Outcome out;
  const EngineConfig cfg = serve_config(a.seed);
  Graph initial;
  Graph final_graph;
  std::vector<std::vector<Event>> feed;
  {
    const Span s(tr, "generate");
    initial = ba_graph(kServeVertices, 2, stream_seed(a.seed, 1));
    final_graph = initial;
    SeedRng rng(stream_seed(a.seed, 3));
    // Half the run feeds the live session, the other half opens warm-up
    // sessions; at 20 s that is the 100-batch feed.
    const auto batches = static_cast<std::size_t>(std::max(
        1.0, std::round(0.5 * a.seconds * 1e9 / kFeedIntervalNs)));
    for (std::size_t b = 0; b < batches; ++b) {
      feed.push_back(growth_batch(final_graph, 8, rng));
    }
  }

  std::vector<double> first_answer, setup;
  const auto open_and_warm = [&](std::optional<aacc::serve::EngineSession>&
                                     session) -> std::int64_t {
    const std::int64_t t_open = now_ns();
    {
      const Span s(tr, "open");
      session.emplace(initial, cfg);
    }
    const Span s(tr, "warmup");
    const Warmup w = await_quiescence(session->view(), t_open);
    std::printf("# warm-up: first answer %.4f s, quiescent %.4f s\n",
                w.first_answer_s, w.quiescent_s);
    out.check(w.ok);
    first_answer.push_back(w.first_answer_s);
    setup.push_back(w.quiescent_s);
    return t_open;
  };

  // Warm-up-only sessions: set-up and first answer need several samples.
  const std::int64_t warm_start = now_ns();
  for (int i = 0; i < kMinWarmupSessions ||
                  seconds_between(warm_start, now_ns()) < 0.5 * a.seconds;
       ++i) {
    std::optional<aacc::serve::EngineSession> session;
    open_and_warm(session);
    const Span s(tr, "close");
    try {
      (void)session->close();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warm-up session failed: %s\n", e.what());
      out.check(false);
    }
  }

  ServeLayers layers;
  std::optional<aacc::serve::EngineSession> session;
  const std::int64_t t_open = open_and_warm(session);
  const aacc::serve::QueryView view = session->view();

  Client client{layers, view, stream_seed(a.seed, 4), client_tracer, 0};
  const std::int64_t window_start = now_ns();
  std::jthread client_thread(
      [&client](const std::stop_token& stop) { client.run(stop); });

  // Open-loop feed: batch b is due at start + b * interval whatever the
  // engine is doing; visibility is timed from the due time, so a stall
  // also charges the batches queued behind it.
  struct Pending {
    VertexId v;
    std::int64_t due;
  };
  std::vector<Pending> pending;
  const VertexId first_new = initial.num_vertices();
  {
    const Span feed_span(tr, "feed");
    const std::int64_t start = now_ns();
    std::size_t next = 0;
    for (;;) {
      const std::int64_t now = now_ns();
      const std::int64_t due =
          start + static_cast<std::int64_t>(next) * kFeedIntervalNs;
      if (next < feed.size() && now >= due) {
        layers.late_max_ms =
            std::max(layers.late_max_ms, 1e-6 * static_cast<double>(now - due));
        bool ok = true;
        {
          const Span s(tr, "ingest");
          const std::int64_t t0 = now_ns();
          try {
            session->ingest(std::move(feed[next]));
          } catch (const std::exception& e) {
            std::fprintf(stderr, "ingest failed: %s\n", e.what());
            ok = false;
          }
          layers.ingest_us.push_back(1e-3 *
                                     static_cast<double>(now_ns() - t0));
        }
        out.check(ok);
        if (ok) pending.push_back({first_new + static_cast<VertexId>(next), due});
        ++layers.batches;
        ++next;
        continue;
      }
      for (std::size_t i = 0; i < pending.size();) {
        if (view.point(pending[i].v).found) {
          layers.visible_ms.push_back(
              1e-6 * static_cast<double>(now_ns() - pending[i].due));
          out.check(true);
          pending[i] = pending.back();
          pending.pop_back();
        } else {
          ++i;
        }
      }
      if (next == feed.size() &&
          (pending.empty() || now - due > kWaitLimitNs)) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (std::size_t i = 0; i < pending.size(); ++i) out.check(false);
  }
  client_thread.request_stop();
  client_thread.join();
  layers.window_s = seconds_between(window_start, now_ns());
  out.attempted += layers.all.count();
  out.failed += client.failures;

  std::optional<RunResult> result;
  {
    const Span s(tr, "close");
    const std::int64_t t0 = now_ns();
    try {
      result.emplace(session->close());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "close failed: %s\n", e.what());
    }
    layers.close_s = seconds_between(t0, now_ns());
  }
  const double solve_s = seconds_between(t_open, now_ns());
  out.check(result.has_value());
  EngineLayers engine_layers;
  if (result) {
    const Span s(tr, "verify");
    verify_serve(view, *result, final_graph, stream_seed(a.seed, 9), out);
    engine_layers.add(result->stats);
    layers.publishes = static_cast<double>(
        result->metrics.counter_value("serve/publishes"));
  }

  const double interval_ms = 1e-6 * static_cast<double>(kFeedIntervalNs);
  if (layers.late_max_ms > 0.5 * interval_ms) {
    std::fprintf(stderr,
                 "warning: feed ran %.1f ms late (> half its %.0f ms "
                 "interval); the offered load was not met\n",
                 layers.late_max_ms, interval_ms);
  }
  std::printf("# serve_live: %llu queries, %llu batches, visible p50 %.2f ms\n",
              static_cast<unsigned long long>(layers.all.count()),
              static_cast<unsigned long long>(layers.batches),
              quantile(layers.visible_ms, 0.5));

  out.end_to_end = {{"solve_s", solve_s, "s"},
                    {"setup_s", median(setup), "s"},
                    {"first_answer_s", median(first_answer), "s"},
                    {"peak_rss_mb", peak_rss_mb(), "MB"}};
  engine_layers.report(solve_s, out.per_layer);
  layers.report(out.per_layer);
  return out;
}

// ---------------------------------------------------------------- main

const char* const kWorkloads[] = {"static_ba", "churn_ba", "serve_live",
                                  "tiered_islands"};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) !=
             std::end(kWorkloads) &&
         a.seconds > 0;
}

void print_metrics(std::FILE* f, const std::vector<Metric>& ms) {
  std::fprintf(f, "{");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                 ms[i].unit.c_str());
  }
  std::fprintf(f, "}");
}

int run(int argc, char** argv) {
  Args a;
  try {
    if (!parse_args(argc, argv, a)) throw std::invalid_argument("usage");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<static_ba|churn_ba|serve_live|tiered_islands> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }

  Tracer main_tracer(a.trace, 1 << 16);
  Tracer client_tracer(a.trace, 1 << 16);
  const std::int64_t t0 = now_ns();
  Outcome out;
  {
    const Span root(main_tracer, "bench");
    out = a.workload == "serve_live" ? run_serve(a, main_tracer, client_tracer)
                                     : run_batch(a, main_tracer);
  }
  const double wall_s = seconds_between(t0, now_ns());
  const std::vector<const Tracer*> tracers{&main_tracer, &client_tracer};
  if (a.trace) {
    report_spans(tracers, wall_s, out.per_layer);
    write_trace(a.trace_out, tracers);
  }

  // The set not gated by this run goes on a comment line for reference.
  std::printf("# %s: ", a.trace ? "end_to_end (traced)" : "per_layer");
  print_metrics(stdout, a.trace ? out.end_to_end : out.per_layer);
  std::printf("\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  print_metrics(stdout, a.trace ? out.per_layer : out.end_to_end);
  std::printf("}\n");
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
