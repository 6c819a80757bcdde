// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "analysis/shortest_paths.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/events.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace aacc::test {

/// Connected scale-free test graph.
inline Graph make_ba(VertexId n, unsigned m, std::uint64_t seed,
                     WeightRange wr = {}) {
  Rng rng(seed);
  return barabasi_albert(n, m, rng, wr);
}

/// Connected Erdős–Rényi test graph.
inline Graph make_er(VertexId n, std::size_t m, std::uint64_t seed,
                     WeightRange wr = {}) {
  Rng rng(seed);
  Graph g = erdos_renyi(n, m, rng, wr);
  connect_components(g, rng, wr);
  return g;
}

/// Asserts that the engine's converged APSP equals the sequential reference
/// on the given (already mutated) graph, entry for entry.
inline void expect_apsp_exact(const Graph& truth, const RunResult& result) {
  ASSERT_TRUE(!result.apsp.empty()) << "run must use cfg.gather_apsp";
  const auto ref = apsp_reference(truth);
  ASSERT_EQ(ref.size(), result.apsp.size());
  std::size_t mismatches = 0;
  for (VertexId u = 0; u < ref.size() && mismatches < 10; ++u) {
    for (VertexId v = 0; v < ref.size(); ++v) {
      if (ref[u][v] != result.apsp[u][v]) {
        ADD_FAILURE() << "apsp mismatch at (" << u << ',' << v
                      << "): engine=" << result.apsp[u][v]
                      << " ref=" << ref[u][v];
        if (++mismatches >= 10) return;
      }
    }
  }
}

/// Asserts that following the gathered next hops from u to v (every
/// `stride`-th pair of live vertices) walks real edges of `g` whose weights
/// sum to the reported distance, so every next hop lies on a shortest path.
inline void expect_paths_realize_distances(const Graph& g,
                                           const RunResult& r,
                                           std::size_t stride) {
  for (VertexId u = 0; u < g.num_vertices(); u += stride) {
    for (VertexId v = 0; v < g.num_vertices(); v += stride) {
      if (!g.is_alive(u) || !g.is_alive(v)) continue;
      const auto path = reconstruct_path(r, u, v);
      if (r.apsp[u][v] == kInfDist) {
        EXPECT_TRUE(path.empty());
        continue;
      }
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), u);
      EXPECT_EQ(path.back(), v);
      Dist len = 0;
      for (std::size_t i = 1; i < path.size(); ++i) {
        ASSERT_TRUE(g.has_edge(path[i - 1], path[i]))
            << "phantom edge " << path[i - 1] << "-" << path[i];
        len += g.edge_weight(path[i - 1], path[i]);
      }
      EXPECT_EQ(len, r.apsp[u][v]) << "path length mismatch " << u << "->" << v;
    }
  }
}

/// Builds a batch of vertex-add events with preferential attachment into
/// the existing graph (and optionally among themselves), mirroring organic
/// growth. Returns the events; `base` is not modified.
inline std::vector<Event> grow_vertices(const Graph& base, VertexId count,
                                        unsigned edges_each, Rng& rng) {
  std::vector<Event> events;
  const VertexId n0 = base.num_vertices();
  // Degree-proportional endpoint pool from the existing graph.
  std::vector<VertexId> pool;
  for (const auto& [u, v, w] : base.edges()) {
    (void)w;
    pool.push_back(u);
    pool.push_back(v);
  }
  for (VertexId i = 0; i < count; ++i) {
    VertexAddEvent ev;
    ev.id = n0 + i;
    while (ev.edges.size() < edges_each) {
      // Half the edges attach to prior new vertices once enough exist,
      // creating the community structure among newcomers CutEdge-PS needs.
      VertexId to;
      if (i > 2 && rng.next_bool(0.5)) {
        to = n0 + static_cast<VertexId>(rng.next_below(i));
      } else {
        to = pool[rng.next_below(pool.size())];
      }
      bool dup = false;
      for (const auto& [e, w] : ev.edges) dup |= (e == to);
      if (!dup) ev.edges.emplace_back(to, 1);
    }
    events.emplace_back(std::move(ev));
  }
  return events;
}

}  // namespace aacc::test
