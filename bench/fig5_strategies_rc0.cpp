// Figure 5 — "Vertex Additions at RC0".
//
// Paper setup: batches of 500..6000 community-structured vertices (extracted
// by Pajek's community detection; here generated by community_vertex_batch)
// added at recombination step 0 of a 50,000-vertex run on 16
// processors, under Repartition-S / CutEdge-PS / RoundRobin-PS.
//
// Expected shape: RoundRobin-PS ≈ CutEdge-PS fastest for small batches;
// Repartition-S wins once the batch is large (the anywhere-update overhead
// overtakes the repartition+migration cost).
//
// The PS strategies run the paper's Figure-3 *eager* edge relaxation (the
// algorithm the original experiment used, and the source of the crossover);
// AACC_EAGER=0 switches to this library's optimized seeded mode, which
// flattens the PS curves and pushes the crossover far to the right.
#include "bench_util.hpp"

int main() {
  using namespace aacc;
  using namespace aacc::bench;
  const Scale s = read_scale(/*default_n=*/1200);
  const Graph g = base_graph(s);
  const EdgeAddMode mode = read_add_mode(/*paper_default_eager=*/true);
  std::printf("fig5: n=%u m=%zu P=%d add_mode=%s (paper: 50k vertices, P=16)\n",
              s.n, g.num_edges(), s.p,
              mode == EdgeAddMode::kEager ? "eager" : "seeded");

  Table table("fig5_strategies_rc0", "vertices_added", "new_cut_edges");
  for (const std::size_t paper_batch : {500u, 1500u, 3000u, 4500u, 6000u}) {
    const auto batch = static_cast<VertexId>(std::max<std::size_t>(
        8, scaled(paper_batch * s.n / 50000, s)));
    Rng rng(s.seed + paper_batch);
    EventSchedule sched;
    sched.push_back({0, community_vertex_batch(g, batch, 8, rng)});

    for (const auto& [name, strat] :
         std::initializer_list<std::pair<const char*, AssignStrategy>>{
             {"repartition-s", AssignStrategy::kRepartition},
             {"cutedge-ps", AssignStrategy::kCutEdge},
             {"roundrobin-ps", AssignStrategy::kRoundRobin}}) {
      EngineConfig cfg = make_cfg(s, strat);
      cfg.add_mode = mode;  // Repartition-S skips per-edge updates anyway
      table.add(measure(name, static_cast<double>(batch), g, sched, cfg));
    }
  }
  table.print_and_save();
  return 0;
}
