// M5 micro benchmark: the RC drain's observability overheads
// (DESIGN.md §"The RC drain is serial per rank").
//
// Runs the full engine (DD + IA + RC to quiescence) on a scale-free graph
// and measures, on rc_drain_cpu_seconds (thread-CPU spent inside drain(),
// Σ over ranks):
//   * the tracing overhead, disabled (the CI gate) and enabled,
//   * the progress feed's enabled overhead (report-only).
//
// Prints a summary and writes AACC_OUT_DIR/micro_rc_drain.json (schema:
// EXPERIMENTS.md §M5). Knobs: AACC_N (vertices, default 8000 — the paper
// scale is AACC_N=50000), AACC_P (ranks, default 4), AACC_SEED.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace aacc;
  const auto n = static_cast<VertexId>(env_int("AACC_N", 8000));
  const auto ranks = static_cast<Rank>(env_int("AACC_P", 4));
  const auto seed = static_cast<std::uint64_t>(env_int("AACC_SEED", 1));

  Rng rng(seed);
  const Graph g = barabasi_albert(n, 3, rng);

  // The default 120 s recv watchdog assumes ranks progress concurrently;
  // on an oversubscribed box a large-AACC_N step keeps one rank computing
  // for longer than that while its peers block in the collective, and the
  // misfired timeout is escalated to a rank failure. Fault tolerance is
  // not under test here — the shared bench default disables the watchdog
  // (AACC_RECV_TIMEOUT_MS overrides).
  const auto base_cfg = [&] {
    EngineConfig cfg;
    cfg.num_ranks = ranks;
    cfg.seed = seed;
    cfg.transport.recv_timeout = bench::watchdog_timeout();
    return cfg;
  };

  // ---- tracing-overhead section (CI gate, docs/OBSERVABILITY.md) ----
  // There is no un-instrumented binary to compare against, so the
  // "disabled" overhead is measured as reproducibility of trace-off runs:
  // if the null-track branches cost anything measurable, the drain CPU
  // could not reproduce within the gate. The metric is
  // rc_drain_cpu_seconds — thread-CPU spent inside drain() — which is
  // immune to wall-clock scheduler noise; the spread is taken between the
  // two fastest of five runs (benchstat-style), because a single
  // preempted run would otherwise dominate (max-min) with cache-eviction
  // noise that has nothing to do with the hooks. enabled_overhead_pct
  // compares the best trace-on run against the best trace-off run.
  const auto traced_run = [&](bool trace_on) {
    EngineConfig cfg = base_cfg();
    cfg.trace.enabled = trace_on;
    AnytimeEngine engine(g, cfg);
    return engine.run().stats.rc_drain_cpu_seconds;
  };
  std::vector<double> off;
  for (int i = 0; i < 5; ++i) off.push_back(traced_run(false));
  std::sort(off.begin(), off.end());
  const double off_min = off[0];
  const double off_second = off[1];
  double on_min = 0.0;
  for (int i = 0; i < 2; ++i) {
    const double c = traced_run(true);
    on_min = i == 0 ? c : std::min(on_min, c);
  }
  const double disabled_overhead_pct =
      off_min > 0.0 ? 100.0 * (off_second - off_min) / off_min : 0.0;
  const double enabled_overhead_pct =
      off_min > 0.0 ? 100.0 * std::max(0.0, on_min - off_min) / off_min : 0.0;

  // ---- progress-feed overhead section (report-only, EXPERIMENTS.md §M6) --
  // Same methodology as the trace section: the feed disabled is a single
  // boolean test per step (covered by the trace-off spread above, since
  // those runs have the feed off too); enabled adds one bounded gather per
  // RC step plus estimator work on the driver, measured on drain CPU
  // against the best feed-off run. Not a CI gate — the enabled cost is an
  // honest feature cost, not an instrumentation leak.
  std::uint64_t progress_events = 0;
  const auto progress_run = [&] {
    EngineConfig cfg = base_cfg();
    progress_events = 0;
    cfg.progress.callback = [&](const obs::ProgressEvent&) {
      ++progress_events;
    };
    AnytimeEngine engine(g, cfg);
    return engine.run().stats.rc_drain_cpu_seconds;
  };
  double prog_min = 0.0;
  for (int i = 0; i < 2; ++i) {
    const double c = progress_run();
    prog_min = i == 0 ? c : std::min(prog_min, c);
  }
  const double progress_overhead_pct =
      off_min > 0.0 ? 100.0 * std::max(0.0, prog_min - off_min) / off_min : 0.0;

  std::printf("\n== micro_rc_drain (n=%u vertices, P=%d ranks) ==\n", n, ranks);
  std::printf("trace overhead: disabled %.2f%% (spread of 2 fastest of 5 off"
              " runs), enabled %.2f%% (drain CPU, best off vs best of 2 on)\n",
              disabled_overhead_pct, enabled_overhead_pct);
  std::printf("progress feed:  enabled %.2f%% drain CPU (%llu events/run; "
              "disabled cost is the boolean-test spread above)\n",
              progress_overhead_pct,
              static_cast<unsigned long long>(progress_events));

  const std::string dir = env_str("AACC_OUT_DIR", "/tmp/aacc_bench");
  (void)std::system(("mkdir -p " + dir).c_str());
  std::ofstream json(dir + "/micro_rc_drain.json");
  json << "{\"bench\":\"micro_rc_drain\",\"vertices\":" << n
       << ",\"ranks\":" << static_cast<int>(ranks)
       << ",\"trace_overhead\":{\"drain_cpu_off_min\":" << off_min
       << ",\"drain_cpu_off_second\":" << off_second
       << ",\"drain_cpu_on_min\":" << on_min
       << ",\"disabled_overhead_pct\":" << disabled_overhead_pct
       << ",\"enabled_overhead_pct\":" << enabled_overhead_pct
       << "},\"progress_overhead\":{\"drain_cpu_on_min\":" << prog_min
       << ",\"enabled_overhead_pct\":" << progress_overhead_pct
       << ",\"events_per_run\":" << progress_events << "}}\n";
  std::printf("[json] %s/micro_rc_drain.json\n", dir.c_str());
  return 0;
}
