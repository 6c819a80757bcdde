// Closeness centrality (the paper's target measure) and companions.
//
// The paper defines closeness of v as 1 / Σ_u d(v, u). On graphs with
// unreachable pairs that sum is infinite, so this module also exposes the
// component-safe variants used in reporting:
//   * closeness  — 1 / Σ d(v,u) over *reachable* u (0 if none reachable)
//   * harmonic   — Σ 1/d(v,u) with 1/∞ = 0. Monotone under the anytime
//     refinement (distances only shrink ⇒ harmonic only grows), which makes
//     it the natural quality curve for interrupted runs.
//   * degree     — for reference comparisons.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace aacc {

/// Closeness from a full distance row: 1/Σ over finite non-self entries.
double closeness_from_row(const std::vector<Dist>& row, VertexId self);

/// Harmonic centrality from a distance row.
double harmonic_from_row(const std::vector<Dist>& row, VertexId self);

/// Exact centralities by reference APSP (sequential ground truth).
std::vector<double> closeness_exact(const Graph& g);
std::vector<double> harmonic_exact(const Graph& g);

/// Indices of the k largest scores, ties broken by smaller id.
std::vector<VertexId> top_k(const std::vector<double>& scores, std::size_t k);

}  // namespace aacc
