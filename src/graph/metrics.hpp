// Structural graph metrics used by tests and experiment reporting.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace aacc {

/// Histogram of vertex degrees: result[d] = number of alive vertices with
/// degree d.
std::vector<std::size_t> degree_histogram(const Graph& g);

/// Connected components over alive vertices. Returns component id per
/// vertex (kNoVertex for tombstoned vertices) and the component count.
struct Components {
  std::vector<VertexId> component;
  VertexId count = 0;
};
Components connected_components(const Graph& g);

[[nodiscard]] bool is_connected(const Graph& g);

/// Fits an exponent to the degree distribution tail via the standard
/// maximum-likelihood estimator alpha = 1 + k/sum(ln(d_i/(dmin-0.5))).
/// Returns 0 when there are too few tail vertices. Used by tests to confirm
/// the Barabási–Albert generator is in the scale-free regime.
double power_law_alpha_mle(const Graph& g, std::size_t d_min = 2);

}  // namespace aacc
