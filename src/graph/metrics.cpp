#include "graph/metrics.hpp"

#include <cmath>
#include <queue>

namespace aacc {

std::vector<std::size_t> degree_histogram(const Graph& g) {
  std::vector<std::size_t> hist;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!g.is_alive(v)) continue;
    const std::size_t d = g.degree(v);
    if (d >= hist.size()) hist.resize(d + 1, 0);
    ++hist[d];
  }
  return hist;
}

Components connected_components(const Graph& g) {
  Components out;
  out.component.assign(g.num_vertices(), kNoVertex);
  std::queue<VertexId> q;
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    if (!g.is_alive(s) || out.component[s] != kNoVertex) continue;
    const VertexId id = out.count++;
    out.component[s] = id;
    q.push(s);
    while (!q.empty()) {
      const VertexId u = q.front();
      q.pop();
      for (const Edge& e : g.neighbors(u)) {
        if (out.component[e.to] == kNoVertex) {
          out.component[e.to] = id;
          q.push(e.to);
        }
      }
    }
  }
  return out;
}

bool is_connected(const Graph& g) {
  if (g.num_alive() == 0) return true;
  return connected_components(g).count == 1;
}

double power_law_alpha_mle(const Graph& g, std::size_t d_min) {
  double log_sum = 0.0;
  std::size_t k = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!g.is_alive(v)) continue;
    const std::size_t d = g.degree(v);
    if (d >= d_min) {
      log_sum += std::log(static_cast<double>(d) /
                          (static_cast<double>(d_min) - 0.5));
      ++k;
    }
  }
  if (k < 16 || log_sum <= 0.0) return 0.0;
  return 1.0 + static_cast<double>(k) / log_sum;
}

}  // namespace aacc
