// Quickstart: compute closeness centrality on a scale-free graph with the
// anytime anywhere engine, inject a dynamic change mid-analysis, and print
// the most central actors before and after.
//
//   ./quickstart [n] [ranks]
//
// Set AACC_TRACE=<path> to record a span trace of the run and write it as
// Chrome trace-event JSON (open in chrome://tracing or
// https://ui.perfetto.dev; see docs/OBSERVABILITY.md).
// Set AACC_PROGRESS=<path> to stream the live NDJSON progress feed there
// (replay it with `aacc tail <path>`; docs/OBSERVABILITY.md §Progress
// events).
#include <cstdio>
#include <cstdlib>

#include "aacc/aacc.hpp"

int main(int argc, char** argv) {
  using namespace aacc;
  const auto n = static_cast<VertexId>(argc > 1 ? std::atoi(argv[1]) : 1000);
  const auto ranks = static_cast<Rank>(argc > 2 ? std::atoi(argv[2]) : 8);

  // 1. A synthetic social network (Barabási–Albert: heavy-tailed degrees).
  Rng rng(42);
  Graph g = barabasi_albert(n, 2, rng);
  std::printf("graph: %u vertices, %zu edges, %d logical processors\n",
              g.num_vertices(), g.num_edges(), ranks);

  // 2. A dynamic change arriving at recombination step 2: a new actor joins
  //    and connects to three existing hubs.
  EventSchedule schedule;
  VertexAddEvent newcomer;
  newcomer.id = g.num_vertices();
  newcomer.edges = {{0, 1}, {1, 1}, {2, 1}};
  schedule.push_back({2, {newcomer}});

  // 3. Run domain decomposition + initial approximation + recombination.
  EngineConfig cfg;
  cfg.num_ranks = ranks;
  cfg.assign = AssignStrategy::kRoundRobin;
  if (const char* trace_path = std::getenv("AACC_TRACE")) {
    cfg.trace.enabled = true;
    cfg.trace.path = trace_path;
  }
  if (const char* progress_path = std::getenv("AACC_PROGRESS")) {
    cfg.progress.path = progress_path;
  }
  AnytimeEngine engine(g, cfg);
  const RunResult result = engine.run(schedule);

  // 4. Inspect the result.
  std::printf("\n%s\n", result.stats.summary().c_str());
  if (cfg.trace.enabled) {
    std::printf("trace: %s (%zu events)\n", cfg.trace.path.c_str(),
                result.trace.events.size());
  }
  if (!cfg.progress.path.empty()) {
    std::printf("progress feed: %s (replay with `aacc tail`)\n",
                cfg.progress.path.c_str());
  }

  const auto top = top_k(result.closeness, 5);
  std::printf("\ntop-5 closeness centrality (after the change):\n");
  for (const VertexId v : top) {
    std::printf("  vertex %-6u C = %.6g%s\n", v, result.closeness[v],
                v == newcomer.id ? "   <- the newcomer" : "");
  }
  std::printf("newcomer %u: C = %.6g, harmonic = %.4f\n", newcomer.id,
              result.closeness[newcomer.id], result.harmonic[newcomer.id]);
  return 0;
}
