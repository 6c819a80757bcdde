// Graph serialization: plain edge lists, METIS format, and Pajek .net.
//
// Pajek support mirrors the paper's toolchain (their inputs were generated
// with Pajek); METIS format is supported because the partitioning module is
// a METIS/ParMETIS substitute and shared test fixtures are convenient.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace aacc {

/// "u v w" per line, 0-based ids, '#' comments. Weight column optional
/// (defaults to 1).
Graph read_edge_list(std::istream& in);
void write_edge_list(const Graph& g, std::ostream& out);

/// METIS .graph format: header "n m [fmt]", then per-vertex neighbour lists,
/// 1-based ids; fmt=1 means weighted ("v1 w1 v2 w2 ...").
Graph read_metis(std::istream& in);
void write_metis(const Graph& g, std::ostream& out);

/// Pajek .net: "*Vertices n" then "*Edges" with 1-based "u v [w]" lines.
Graph read_pajek(std::istream& in);
void write_pajek(const Graph& g, std::ostream& out);

/// Convenience file wrappers; format chosen by extension
/// (.txt/.edges → edge list, .graph → METIS, .net → Pajek).
Graph load_graph(const std::string& path);
void save_graph(const Graph& g, const std::string& path);

}  // namespace aacc
