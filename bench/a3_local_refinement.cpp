// Ablation A3 — local refinement strategy inside an RC step.
//
// Default: label-correcting drain over a FIFO queue of rows. Alternative:
// additionally run the paper's boundary Floyd–Warshall pass (compose own
// distance-to-portal with the portal's cached row) each step. The FW pass
// can shorten convergence (fewer RC steps) at the price of a dense
// O(local rows × portals × n) sweep; it is additive-only (see config.hpp),
// so the workload here is static + edge/vertex additions.
#include "bench_util.hpp"

int main() {
  using namespace aacc;
  using namespace aacc::bench;
  const Scale s = read_scale(/*default_n=*/1500);
  const Graph g = base_graph(s);
  std::printf("a3: n=%u m=%zu P=%d\n", s.n, g.num_edges(), s.p);

  Table table("a3_local_refinement", "workload");
  int workload = 0;
  for (const std::size_t batch : {std::size_t{0}, scaled(64, s)}) {
    EventSchedule sched;
    if (batch > 0) {
      Rng rng(s.seed);
      sched.push_back(
          {2, community_vertex_batch(g, static_cast<VertexId>(batch), 4, rng)});
    }
    for (const auto& [name, mode] :
         std::initializer_list<std::pair<const char*, RefineMode>>{
             {"label-correcting", RefineMode::kLabelCorrecting},
             {"boundary-fw", RefineMode::kBoundaryFloydWarshall}}) {
      EngineConfig cfg = make_cfg(s, AssignStrategy::kRoundRobin);
      cfg.refine = mode;
      table.add(measure(std::string(name) + (batch > 0 ? "+adds" : "/static"),
                        workload, g, sched, cfg));
    }
    ++workload;
  }
  table.print_and_save();
  return 0;
}
