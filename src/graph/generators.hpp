// Synthetic graph generators.
//
// The paper generates undirected scale-free graphs with Pajek; the
// experiments additionally need community-structured vertex batches
// (extracted there with Pajek's community detection). These generators
// are the offline substitute: deterministic given the Rng seed, with the
// same qualitative structure (power-law degrees for Barabási–Albert, tunable
// community strength for the planted-partition model).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"

namespace aacc {

struct WeightRange {
  Weight lo = 1;
  Weight hi = 1;
};

/// Barabási–Albert preferential attachment: starts from a small clique and
/// attaches each new vertex with `edges_per_vertex` edges whose endpoints
/// are drawn proportionally to current degree. Produces the scale-free
/// degree distribution the paper's workloads assume.
Graph barabasi_albert(VertexId n, unsigned edges_per_vertex, Rng& rng,
                      WeightRange wr = {});

/// Erdős–Rényi G(n, m): m distinct uniform edges.
Graph erdos_renyi(VertexId n, std::size_t m, Rng& rng, WeightRange wr = {});

/// Watts–Strogatz small world: ring lattice with k neighbours per side,
/// each edge rewired with probability beta.
Graph watts_strogatz(VertexId n, unsigned k, double beta, Rng& rng,
                     WeightRange wr = {});

/// Planted-partition model: `communities` equal-size groups; vertex pairs
/// inside a group are connected with probability p_in, across groups with
/// p_out. The community id of vertex v is v % communities.
Graph planted_partition(VertexId n, unsigned communities, double p_in,
                        double p_out, Rng& rng, WeightRange wr = {});

/// R-MAT / Kronecker-style recursive generator (Chakrabarti et al.): each
/// edge picks its endpoints by descending a 2^scale x 2^scale adjacency
/// quadrant tree with probabilities (a, b, c, d), a+b+c+d = 1. The standard
/// skewed setting (0.57, 0.19, 0.19, 0.05) yields power-law-ish graphs with
/// heavy community overlap; self-loops and duplicates are rejected.
Graph rmat(unsigned scale, std::size_t m, double a, double b, double c,
           Rng& rng, WeightRange wr = {});

/// 2-D grid graph (rows x cols), 4-neighbourhood — the low-diameter
/// counterexample to scale-free assumptions, used in sweeps.
Graph grid2d(VertexId rows, VertexId cols, Rng& rng, WeightRange wr = {});

/// Adds uniformly random edges until the graph is connected (used to make
/// closeness well-defined on sparse random instances).
void connect_components(Graph& g, Rng& rng, WeightRange wr = {});

}  // namespace aacc
