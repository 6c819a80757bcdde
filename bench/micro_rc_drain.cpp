// M5 micro benchmark: the RC drain's observability overheads
// (DESIGN.md §"The RC drain is serial per rank").
//
// Runs the full engine (DD + IA + RC to quiescence) on a scale-free graph
// and measures, on rc_drain_cpu_seconds (thread-CPU spent inside drain(),
// Σ over ranks):
//   * the tracing overhead, disabled (the CI gate) and enabled,
//   * the progress feed's enabled overhead (report-only).
// A last section times the drain's row kernel alone (report-only): wall
// ns per candidate and per relaxation of DvRow::select_improving plus
// DvRow::relax_batch, the two passes of RankEngine::relax_entries.
//
// Prints a summary and writes AACC_OUT_DIR/micro_rc_drain.json (schema:
// EXPERIMENTS.md §M5). Knobs: AACC_N (vertices, default 8000 — the paper
// scale is AACC_N=50000), AACC_P (ranks, default 4), AACC_SEED.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/dv_matrix.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"

namespace {

using namespace aacc;

struct KernelCase {
  const char* density;  ///< queued columns per row column
  const char* rows;     ///< "fresh" or "overflowed" (see row_kernel_case)
  std::uint64_t candidates = 0;
  std::uint64_t relaxations = 0;
  double ns_per_candidate = 0.0;
  double ns_per_relaxation = 0.0;
};

/// Times select_improving + relax_batch, as relax_entries runs them, on
/// kColumns-column rows: every `stride`-th column is a queued entry with a
/// base in [0, 40) and w = 1, against row entries in [1, 40], so a bit
/// under half the candidates improve. "fresh" rows have no dirty or queued
/// marks, so a batch starts on the list path (the lists overflow inside
/// dense batches); "overflowed" rows carry marks on a random 1/16 of their
/// columns, past every list's cap, so every batch takes the flag-only
/// path, as most of the drain's dense pops do. Each round relaxes kRows
/// copies of one template row and is timed as a whole; the copies are
/// restored between rounds, untimed. Reports the median round.
KernelCase row_kernel_case(const char* density, VertexId stride,
                           bool overflowed, std::uint64_t seed) {
  constexpr VertexId kColumns = 8000;
  constexpr std::size_t kRows = 64;
  constexpr std::uint64_t kCandidatesPerCase = std::uint64_t{1} << 23;
  Rng rng(seed);
  DvRow tmpl(0, kColumns);
  for (VertexId t = 1; t < kColumns; ++t) {
    tmpl.set(t, static_cast<Dist>(1 + rng.next_below(40)), 0);
  }
  if (overflowed) {
    for (VertexId i = 0; i < kColumns / 16; ++i) {
      const auto t = static_cast<VertexId>(1 + rng.next_below(kColumns - 1));
      tmpl.mark_dirty(t);
      tmpl.mark_queued(t);
    }
  }
  std::vector<std::pair<VertexId, Dist>> entries;
  for (VertexId t = 1; t < kColumns; t += stride) {
    entries.emplace_back(t, static_cast<Dist>(rng.next_below(40)));
  }
  std::vector<DvRow> rows(kRows, tmpl);
  std::vector<std::pair<VertexId, Dist>> picks;
  std::vector<double> round_ns;
  KernelCase out{density, overflowed ? "overflowed" : "fresh"};
  const std::uint64_t per_round = kRows * entries.size();
  const std::uint64_t rounds =
      std::max<std::uint64_t>(5, kCandidatesPerCase / per_round);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (DvRow& row : rows) row = tmpl;
    std::uint64_t relaxed = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (DvRow& row : rows) {
      const std::size_t k = row.select_improving(entries, 1, picks);
      relaxed += row.relax_batch(std::span(picks.data(), k), 0,
                                 [](VertexId) {})
                     .relaxed;
    }
    const auto t1 = std::chrono::steady_clock::now();
    round_ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
    out.relaxations = relaxed;  // identical every round
  }
  std::sort(round_ns.begin(), round_ns.end());
  const double median = round_ns[round_ns.size() / 2];
  out.candidates = per_round;
  out.ns_per_candidate = median / static_cast<double>(per_round);
  out.ns_per_relaxation =
      out.relaxations == 0 ? 0.0 : median / static_cast<double>(out.relaxations);
  return out;
}

}  // namespace

int main() {
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

  // ---- row-kernel section (report-only, EXPERIMENTS.md §M5) ----
  std::vector<KernelCase> kernel;
  for (const bool overflowed : {false, true}) {
    kernel.push_back(row_kernel_case("1/64", 64, overflowed, seed));
    kernel.push_back(row_kernel_case("1/4", 4, overflowed, seed));
    kernel.push_back(row_kernel_case("1", 1, overflowed, seed));
  }

  std::printf("\n== micro_rc_drain (n=%u vertices, P=%d ranks) ==\n", n, ranks);
  std::printf("trace overhead: disabled %.2f%% (spread of 2 fastest of 5 off"
              " runs), enabled %.2f%% (drain CPU, best off vs best of 2 on)\n",
              disabled_overhead_pct, enabled_overhead_pct);
  std::printf("progress feed:  enabled %.2f%% drain CPU (%llu events/run; "
              "disabled cost is the boolean-test spread above)\n",
              progress_overhead_pct,
              static_cast<unsigned long long>(progress_events));
  std::printf("row kernel (8000 columns, report-only):\n");
  for (const KernelCase& k : kernel) {
    std::printf("  density %-4s %-10s rows: %6.2f ns/candidate, %6.2f ns/"
                "relaxation (%llu of %llu candidates improve)\n",
                k.density, k.rows, k.ns_per_candidate, k.ns_per_relaxation,
                static_cast<unsigned long long>(k.relaxations),
                static_cast<unsigned long long>(k.candidates));
  }

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
       << ",\"events_per_run\":" << progress_events
       << "},\"row_kernel\":{\"columns\":8000,\"cases\":[";
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    const KernelCase& k = kernel[i];
    json << (i == 0 ? "" : ",") << "{\"density\":\"" << k.density
         << "\",\"rows\":\"" << k.rows << "\",\"candidates\":" << k.candidates
         << ",\"relaxations\":" << k.relaxations
         << ",\"ns_per_candidate\":" << k.ns_per_candidate
         << ",\"ns_per_relaxation\":" << k.ns_per_relaxation << "}";
  }
  json << "]}}\n";
  std::printf("[json] %s/micro_rc_drain.json\n", dir.c_str());
  return 0;
}
