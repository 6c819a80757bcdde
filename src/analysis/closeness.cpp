#include "analysis/closeness.hpp"

#include <algorithm>
#include <numeric>

#include "analysis/shortest_paths.hpp"
#include "common/check.hpp"

namespace aacc {

double closeness_from_row(const std::vector<Dist>& row, VertexId self) {
  std::uint64_t sum = 0;
  for (VertexId u = 0; u < row.size(); ++u) {
    if (u == self || row[u] == kInfDist) continue;
    sum += row[u];
  }
  return sum == 0 ? 0.0 : 1.0 / static_cast<double>(sum);
}

double harmonic_from_row(const std::vector<Dist>& row, VertexId self) {
  double h = 0.0;
  for (VertexId u = 0; u < row.size(); ++u) {
    if (u == self || row[u] == kInfDist || row[u] == 0) continue;
    h += 1.0 / static_cast<double>(row[u]);
  }
  return h;
}

std::vector<double> closeness_exact(const Graph& g) {
  const auto apsp = apsp_reference(g);
  std::vector<double> c(g.num_vertices(), 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.is_alive(v)) c[v] = closeness_from_row(apsp[v], v);
  }
  return c;
}

std::vector<double> harmonic_exact(const Graph& g) {
  const auto apsp = apsp_reference(g);
  std::vector<double> c(g.num_vertices(), 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.is_alive(v)) c[v] = harmonic_from_row(apsp[v], v);
  }
  return c;
}

std::vector<VertexId> top_k(const std::vector<double>& scores, std::size_t k) {
  std::vector<VertexId> idx(scores.size());
  std::iota(idx.begin(), idx.end(), VertexId{0});
  k = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                    idx.end(), [&](VertexId a, VertexId b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  idx.resize(k);
  return idx;
}

}  // namespace aacc
