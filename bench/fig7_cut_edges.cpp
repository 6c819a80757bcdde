// Figure 7 — "Number of New Cut-Edges".
//
// Same sweep as Figure 5, but the reported metric is the number of new
// cut-edges each strategy introduces (the communication-imbalance proxy).
//
// Expected shape: Repartition-S < CutEdge-PS < RoundRobin-PS, with the gap
// growing in the batch size.
#include "bench_util.hpp"

int main() {
  using namespace aacc;
  using namespace aacc::bench;
  const Scale s = read_scale(/*default_n=*/2000);
  const Graph g = base_graph(s);
  std::printf("fig7: n=%u m=%zu P=%d (metric: new cut edges)\n", s.n,
              g.num_edges(), s.p);

  Table table("fig7_cut_edges", "vertices_added", "new_cut_edges");
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
      table.add(measure(name, static_cast<double>(batch), g, sched,
                        make_cfg(s, strat)));
    }
  }
  table.print_and_save();
  return 0;
}
