// M8 micro benchmark: the tiered DV row store (DESIGN.md §"Tiered DV
// storage", EXPERIMENTS.md §M8).
//
// Part A is the residency sweep on a settled-majority workload: a
// bounded-reach island graph (chains of chorded communities, islands
// mutually unreachable — the partial-reachability shape of real large
// graphs, where most rows hold many infinite entries the cold codec
// never stores) converges under block partitioning, then small late
// change batches, each localized to one
// community, keep only a handful of rows active per step. Budgets sweep
// from fully resident (the oracle) down to 1/16 of the dense footprint;
// per budget the bench reports the step-boundary peak DV bytes (hot +
// cold, the dv/ gauges), the modeled makespan, the
// promotion/demotion/decode ledger, the process's minor page faults over
// the run and the microseconds per promotion (decode seconds / promotions;
// both report-only), and verifies the closeness doubles against the oracle
// bit for bit. Fatal acceptance gates (EXPERIMENTS.md §M8): some
// tiered budget must deliver
//   * >= 4x step-boundary peak DV memory reduction vs resident, at
//   * <= 10% modeled-makespan overhead (min over AACC_REPEAT runs).
//
// Part B is the memory-wall demo: a component-structured graph of
// AACC_N_BIG vertices (default one million) runs IA + RC to quiescence
// under a 64 MB/rank budget, where the dense store could not even hold
// its rows (9 * n^2 / P bytes ~ terabytes per rank at the default
// scale). Tiered IA installs fresh sweeps directly in cold form, so the
// run never materializes a dense row per source. Reports wall time, the
// peak DV bytes actually used, and the dense bytes a resident store
// would have needed.
//
// Prints tables and writes AACC_OUT_DIR/micro_dv_store.json (consumed by
// the bench-dv CI job via tools/bench_diff). Knobs: AACC_N (Part A
// vertices, default 2000), AACC_P (ranks, default 4), AACC_N_BIG (Part B
// vertices, default 1000000), AACC_REPEAT (timing repeats, default 3),
// AACC_SEED.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"

namespace {

using namespace aacc;

struct SweepCase {
  std::string label;
  std::uint64_t budget = 0;          // per-rank dv_budget_bytes (0 = resident)
  std::uint64_t peak_dv_bytes = 0;   // max over steps of hot + cold gauges
  double modeled_seconds = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  double decode_seconds = 0.0;
  std::uint64_t minor_faults = 0;  // getrusage ru_minflt delta over the run
  bool identical = true;

  [[nodiscard]] double us_per_promotion() const {
    return promotions == 0 ? 0.0
                           : 1e6 * decode_seconds / static_cast<double>(promotions);
  }
};

/// Minor page faults this process has taken so far (all threads).
std::uint64_t minor_faults_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

constexpr VertexId kCommunity = 32;  ///< vertices per community
constexpr VertexId kIsland = 128;    ///< 4 chained communities per island

/// Bounded-reach workload: islands of kIsland consecutive vertices, each a
/// chain of chorded communities; islands are mutually unreachable. Dense DV
/// rows are O(n) columns regardless of reach, so the dense footprint is
/// the full 9 * n^2 / P while each row holds only ~kIsland finite entries —
/// the regime the cold codec is built for. Under block partitioning only
/// the islands straddling a rank boundary exchange cross-rank, so the
/// per-step active set stays far below the row count (the heavy
/// global-churn equivalence is covered by tests/core/dv_store_test.cpp).
Graph island_graph(VertexId n, std::uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  for (VertexId v = 1; v < n; ++v) {
    if (v % kIsland == 0) continue;  // island head: unreachable from below
    g.add_edge(v, v - 1, 1);         // community chain / inter-community bridge
    const VertexId cbase = v - (v % kCommunity);
    if (v % kCommunity >= 2) {  // preferential-ish chord inside the community
      const VertexId u =
          cbase + static_cast<VertexId>(rng.next_below(v - cbase - 1));
      if (!g.has_edge(v, u)) g.add_edge(v, u, 1);
    }
  }
  return g;
}

/// Small late change batches, each localized to one community: the
/// settled-majority regime — after initial convergence a batch dirties
/// ~kIsland rows, so almost every row stays cold across the remaining
/// steps. Generated against a working copy so the schedule never
/// double-adds or double-deletes an edge.
EventSchedule settled_majority_schedule(const Graph& g) {
  Graph work = g;
  EventSchedule sched;
  for (std::size_t b = 0; b < 6; ++b) {
    // Spread the touched communities across islands (and hence ranks).
    const VertexId base =
        static_cast<VertexId>(((7 * b + 1) * kCommunity) % g.num_vertices());
    const VertexId u = base + 1;
    const VertexId v = base + kCommunity / 2;
    EventBatch batch;
    batch.at_step = 4 + 2 * b;  // well past initial convergence
    if (work.has_edge(u, v)) {
      batch.events.emplace_back(EdgeDeleteEvent{u, v});
      work.remove_edge(u, v);
    } else {
      batch.events.push_back(EdgeAddEvent{u, v, 1});
      work.add_edge(u, v, 1);
    }
    sched.push_back(std::move(batch));
  }
  return sched;
}

/// One run, tracking the step-boundary peak of the DV residency gauges via
/// the progress feed (events carry the post-maintain sums over ranks).
RunResult run_tracked(const Graph& g, const EventSchedule& sched,
                      EngineConfig cfg, std::uint64_t* peak_dv_bytes) {
  std::uint64_t peak = 0;
  cfg.progress.callback = [&peak](const obs::ProgressEvent& ev) {
    peak = std::max(peak, ev.dv_resident_bytes + ev.dv_cold_bytes);
  };
  AnytimeEngine engine(g, cfg);
  RunResult r = engine.run(sched);
  *peak_dv_bytes = peak;
  return r;
}

/// Component-structured graph for the memory-wall demo: consecutive-id
/// paths of 8 vertices. Block partitioning keeps every component
/// rank-local (the rank boundary n/P is a multiple of 8 at the default
/// scale), so IA is O(n) total work, RC quiesces in a few steps, and the
/// run's footprint is all in the DV rows — which is the point.
Graph component_graph(VertexId n) {
  Graph g(n);
  for (VertexId v = 0; v + 1 < n; ++v) {
    if ((v + 1) % 8 != 0) g.add_edge(v, v + 1, 1);
  }
  return g;
}

}  // namespace

int main() {
  const auto scale = bench::read_scale(2000);
  // The sweep wants rows-per-rank large enough that residency matters;
  // default to 4 ranks rather than the harness's paper-default 16.
  const Rank P = static_cast<Rank>(env_int("AACC_P", 4));
  const auto n_big = static_cast<VertexId>(env_int("AACC_N_BIG", 1000000));
  const int repeats = std::max(1, static_cast<int>(env_int("AACC_REPEAT", 3)));

  // ---- Part A: residency sweep ---------------------------------------
  const Graph g = island_graph(scale.n, scale.seed);
  const EventSchedule sched = settled_majority_schedule(g);

  EngineConfig base;
  base.num_ranks = P;
  base.seed = scale.seed;
  // Block partitioning keeps whole islands rank-local except at the rank
  // boundaries.
  base.dd_partitioner = PartitionerKind::kBlock;
  base.transport.recv_timeout = bench::watchdog_timeout();

  // Resident oracle first: its peak gauge is the dense footprint the
  // budgets are expressed against.
  SweepCase oracle;
  oracle.label = "resident";
  RunResult oracle_result;
  for (int rep = 0; rep < repeats; ++rep) {
    const std::uint64_t faults0 = minor_faults_now();
    Timer t;
    std::uint64_t peak = 0;
    RunResult r = run_tracked(g, sched, base, &peak);
    const double wall = t.seconds();
    const std::uint64_t faults = minor_faults_now() - faults0;
    if (rep == 0 || r.stats.modeled_makespan_seconds < oracle.modeled_seconds) {
      oracle.modeled_seconds = r.stats.modeled_makespan_seconds;
      oracle.peak_dv_bytes = peak;
      oracle.minor_faults = faults;
      oracle_result = std::move(r);
    }
    oracle.wall_seconds =
        rep == 0 ? wall : std::min(oracle.wall_seconds, wall);
  }
  const std::uint64_t dense_bytes = oracle.peak_dv_bytes;

  std::vector<SweepCase> cases{oracle};
  const std::pair<const char*, std::uint64_t> budgets[] = {
      {"dense/2", 2}, {"dense/4", 4}, {"dense/8", 8}, {"dense/16", 16}};
  for (const auto& [label, denom] : budgets) {
    SweepCase c;
    c.label = label;
    c.budget = std::max<std::uint64_t>(
        dense_bytes / denom / static_cast<std::uint64_t>(P),
        kMinDvBudgetBytes);
    EngineConfig cfg = base;
    cfg.dv_budget_bytes = c.budget;
    for (int rep = 0; rep < repeats; ++rep) {
      const std::uint64_t faults0 = minor_faults_now();
      Timer t;
      std::uint64_t peak = 0;
      const RunResult r = run_tracked(g, sched, cfg, &peak);
      const double wall = t.seconds();
      const std::uint64_t faults = minor_faults_now() - faults0;
      if (rep == 0 || r.stats.modeled_makespan_seconds < c.modeled_seconds) {
        c.modeled_seconds = r.stats.modeled_makespan_seconds;
        c.peak_dv_bytes = peak;
        c.promotions = r.stats.dv_promotions;
        c.demotions = r.stats.dv_demotions;
        c.decode_seconds = r.stats.dv_decode_seconds;
        c.minor_faults = faults;
      }
      c.wall_seconds = rep == 0 ? wall : std::min(c.wall_seconds, wall);
      c.identical = c.identical && r.closeness == oracle_result.closeness &&
                    r.harmonic == oracle_result.harmonic;
    }
    cases.push_back(std::move(c));
  }

  std::printf(
      "\n== micro_dv_store: residency sweep (n=%u, islands of %u, P=%d, %d "
      "repeats) ==\n",
      scale.n, kIsland, static_cast<int>(P), repeats);
  std::printf("%-10s %14s %12s %9s %12s %9s %10s %10s %8s %10s %6s\n",
              "series", "budget/rank", "peak_dv_MB", "vs_dense", "modeled_s",
              "wall_s", "promotions", "decode_ms", "us/promo", "minflt",
              "ident");
  bool all_identical = true;
  double gate_reduction = 0.0;  // best reduction among cases <= 10% overhead
  double gate_overhead = 0.0;
  for (const SweepCase& c : cases) {
    const double reduction =
        c.peak_dv_bytes == 0
            ? 0.0
            : static_cast<double>(dense_bytes) /
                  static_cast<double>(c.peak_dv_bytes);
    const double overhead =
        oracle.modeled_seconds <= 0.0
            ? 0.0
            : c.modeled_seconds / oracle.modeled_seconds - 1.0;
    std::printf(
        "%-10s %14llu %12.2f %8.2fx %12.4f %9.3f %10llu %10.2f %8.2f %10llu "
        "%6s\n",
        c.label.c_str(), static_cast<unsigned long long>(c.budget),
        static_cast<double>(c.peak_dv_bytes) / 1e6, reduction,
        c.modeled_seconds, c.wall_seconds,
        static_cast<unsigned long long>(c.promotions), 1e3 * c.decode_seconds,
        c.us_per_promotion(), static_cast<unsigned long long>(c.minor_faults),
        c.identical ? "yes" : "NO");
    all_identical = all_identical && c.identical;
    if (c.budget != 0 && overhead <= 0.10 && reduction > gate_reduction) {
      gate_reduction = reduction;
      gate_overhead = overhead;
    }
  }

  // ---- Part B: the memory wall ---------------------------------------
  const Graph big = component_graph(n_big);
  EngineConfig big_cfg;
  big_cfg.num_ranks = P;
  big_cfg.dd_partitioner = PartitionerKind::kBlock;
  big_cfg.dv_budget_bytes = 64ull << 20;  // 64 MB of hot rows per rank
  big_cfg.transport.recv_timeout = bench::watchdog_timeout();
  std::uint64_t big_peak = 0;
  Timer big_timer;
  const RunResult big_result = run_tracked(big, {}, big_cfg, &big_peak);
  const double big_wall = big_timer.seconds();
  // 9 bytes per dense DV entry (dist + next hop + flags), n rows of n cols.
  const double dense_would_need = 9.0 * static_cast<double>(n_big) *
                                  static_cast<double>(n_big);
  std::printf(
      "\n== micro_dv_store: memory wall (n=%u, P=%d, budget 64MB/rank) ==\n",
      n_big, static_cast<int>(P));
  std::printf("completed IA+RC in %.2f s over %zu rc steps\n", big_wall,
              big_result.stats.rc_steps);
  std::printf(
      "peak DV bytes: %.1f MB tiered vs %.1f GB/rank dense (%.0fx reduction)\n",
      static_cast<double>(big_peak) / 1e6,
      dense_would_need / static_cast<double>(P) / 1e9,
      dense_would_need / std::max<double>(static_cast<double>(big_peak), 1.0));

  // ---- JSON + gates ----------------------------------------------------
  const std::string dir = env_str("AACC_OUT_DIR", "/tmp/aacc_bench");
  (void)std::system(("mkdir -p " + dir).c_str());
  std::ofstream json(dir + "/micro_dv_store.json");
  json << "{\"bench\":\"micro_dv_store\",\"n\":" << scale.n
       << ",\"ranks\":" << static_cast<int>(P) << ",\"cases\":[";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const SweepCase& c = cases[i];
    if (i != 0) json << ',';
    json << "{\"series\":\"" << c.label << "\",\"budget_bytes\":" << c.budget
         << ",\"peak_dv_bytes\":" << c.peak_dv_bytes
         << ",\"modeled_seconds\":" << c.modeled_seconds
         << ",\"wall_seconds\":" << c.wall_seconds
         << ",\"promotions\":" << c.promotions
         << ",\"demotions\":" << c.demotions
         << ",\"decode_seconds\":" << c.decode_seconds
         << ",\"us_per_promotion\":" << c.us_per_promotion()
         << ",\"minor_faults\":" << c.minor_faults
         << ",\"identical\":" << (c.identical ? "true" : "false") << '}';
  }
  json << "],\"gate_reduction\":" << gate_reduction
       << ",\"gate_overhead\":" << gate_overhead
       << ",\"memory_wall\":{\"n\":" << n_big
       << ",\"wall_seconds\":" << big_wall
       << ",\"rc_steps\":" << big_result.stats.rc_steps
       << ",\"peak_dv_bytes\":" << big_peak
       << ",\"dense_bytes_needed\":" << dense_would_need << "}}\n";
  std::printf("[json] %s/micro_dv_store.json\n", dir.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "FATAL: tiered closeness diverged from the resident oracle\n");
    return 1;
  }
  if (gate_reduction < 4.0) {
    std::fprintf(stderr,
                 "FATAL: best peak DV reduction within the 10%% overhead "
                 "envelope is %.2fx (< 4x gate)\n",
                 gate_reduction);
    return 1;
  }
  std::printf("gates: reduction %.2fx (>= 4x) at %.1f%% overhead (<= 10%%)\n",
              gate_reduction, 100.0 * gate_overhead);
  return 0;
}
