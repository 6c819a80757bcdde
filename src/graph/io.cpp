#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace aacc {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  std::vector<std::tuple<VertexId, VertexId, Weight>> edges;
  VertexId max_id = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    VertexId u = 0;
    VertexId v = 0;
    Weight w = 1;
    ls >> u >> v;
    AACC_CHECK_MSG(!ls.fail(), "malformed edge list line: " << line);
    ls >> w;  // optional third column
    if (ls.fail()) w = 1;
    edges.emplace_back(u, v, w);
    max_id = std::max({max_id, u, v});
  }
  Graph g(edges.empty() ? 0 : max_id + 1);
  for (const auto& [u, v, w] : edges) g.add_edge(u, v, w);
  return g;
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << "# aacc edge list: " << g.num_vertices() << " vertices, "
      << g.num_edges() << " edges\n";
  for (const auto& [u, v, w] : g.edges()) {
    out << u << ' ' << v << ' ' << w << '\n';
  }
}

Graph read_metis(std::istream& in) {
  std::string line;
  // Header: skip comment lines starting with '%'.
  do {
    AACC_CHECK_MSG(static_cast<bool>(std::getline(in, line)), "missing METIS header");
  } while (!line.empty() && line[0] == '%');
  std::istringstream hs(line);
  std::size_t n = 0;
  std::size_t m = 0;
  int fmt = 0;
  hs >> n >> m;
  AACC_CHECK_MSG(!hs.fail(), "malformed METIS header: " << line);
  hs >> fmt;
  if (hs.fail()) fmt = 0;
  const bool weighted = (fmt % 10) == 1;

  Graph g(static_cast<VertexId>(n));
  VertexId u = 0;
  while (u < n && std::getline(in, line)) {
    if (!line.empty() && line[0] == '%') continue;
    std::istringstream ls(line);
    VertexId v = 0;
    while (ls >> v) {
      AACC_CHECK_MSG(v >= 1 && v <= n, "METIS neighbour out of range: " << v);
      Weight w = 1;
      if (weighted) {
        ls >> w;
        AACC_CHECK_MSG(!ls.fail(), "METIS weighted line missing weight");
      }
      if (v - 1 > u) g.add_edge(u, v - 1, w);  // each edge listed twice
    }
    ++u;
  }
  AACC_CHECK_MSG(u == n, "METIS file ended early at vertex " << u);
  AACC_CHECK_MSG(g.num_edges() == m,
                 "METIS header claims " << m << " edges, file has " << g.num_edges());
  return g;
}

void write_metis(const Graph& g, std::ostream& out) {
  out << g.num_vertices() << ' ' << g.num_edges() << " 1\n";
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    bool first = true;
    for (const Edge& e : g.neighbors(u)) {
      if (!first) out << ' ';
      out << (e.to + 1) << ' ' << e.w;
      first = false;
    }
    out << '\n';
  }
}

Graph read_pajek(std::istream& in) {
  std::string line;
  std::size_t n = 0;
  // Find *Vertices.
  while (std::getline(in, line)) {
    if (line.rfind("*Vertices", 0) == 0 || line.rfind("*vertices", 0) == 0) {
      std::istringstream ls(line);
      std::string kw;
      ls >> kw >> n;
      AACC_CHECK_MSG(!ls.fail(), "malformed Pajek *Vertices line");
      break;
    }
  }
  AACC_CHECK_MSG(n > 0, "Pajek file missing *Vertices section");
  Graph g(static_cast<VertexId>(n));
  bool in_edges = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '*') {
      in_edges = line.rfind("*Edges", 0) == 0 || line.rfind("*edges", 0) == 0;
      continue;
    }
    if (!in_edges) continue;  // vertex label lines
    std::istringstream ls(line);
    VertexId u = 0;
    VertexId v = 0;
    double w = 1.0;
    ls >> u >> v;
    if (ls.fail()) continue;
    ls >> w;
    if (ls.fail()) w = 1.0;
    AACC_CHECK(u >= 1 && v >= 1 && u <= n && v <= n);
    if (!g.has_edge(u - 1, v - 1) && u != v) {
      g.add_edge(u - 1, v - 1, static_cast<Weight>(std::max(1.0, w)));
    }
  }
  return g;
}

void write_pajek(const Graph& g, std::ostream& out) {
  out << "*Vertices " << g.num_vertices() << '\n';
  out << "*Edges\n";
  for (const auto& [u, v, w] : g.edges()) {
    out << (u + 1) << ' ' << (v + 1) << ' ' << w << '\n';
  }
}

Graph load_graph(const std::string& path) {
  std::ifstream in(path);
  AACC_CHECK_MSG(in.good(), "cannot open " << path);
  if (ends_with(path, ".graph")) return read_metis(in);
  if (ends_with(path, ".net")) return read_pajek(in);
  return read_edge_list(in);
}

void save_graph(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  AACC_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  if (ends_with(path, ".graph")) {
    write_metis(g, out);
  } else if (ends_with(path, ".net")) {
    write_pajek(g, out);
  } else {
    write_edge_list(g, out);
  }
}

}  // namespace aacc
