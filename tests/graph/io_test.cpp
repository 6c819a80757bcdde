// Round-trip tests for all three on-disk formats.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace aacc {
namespace {

Graph fixture() {
  Rng rng(11);
  return erdos_renyi(60, 150, rng, WeightRange{1, 7});
}

bool same_graph(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (const auto& [u, v, w] : a.edges()) {
    if (!b.has_edge(u, v) || b.edge_weight(u, v) != w) return false;
  }
  return true;
}

TEST(IoEdgeList, RoundTrip) {
  const Graph g = fixture();
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph h = read_edge_list(ss);
  EXPECT_TRUE(same_graph(g, h));
}

TEST(IoEdgeList, DefaultWeightAndComments) {
  std::stringstream ss("# comment\n0 1\n1 2 5\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.edge_weight(0, 1), 1u);
  EXPECT_EQ(g.edge_weight(1, 2), 5u);
}

TEST(IoMetis, RoundTrip) {
  const Graph g = fixture();
  std::stringstream ss;
  write_metis(g, ss);
  const Graph h = read_metis(ss);
  EXPECT_TRUE(same_graph(g, h));
}

TEST(IoMetis, RejectsCorruptHeader) {
  std::stringstream ss("not a header\n");
  EXPECT_THROW(read_metis(ss), std::logic_error);
}

TEST(IoMetis, EdgeCountMismatchDetected) {
  std::stringstream ss("2 5 1\n2 1\n1 1\n");  // header claims 5 edges, has 1
  EXPECT_THROW(read_metis(ss), std::logic_error);
}

TEST(IoPajek, RoundTrip) {
  const Graph g = fixture();
  std::stringstream ss;
  write_pajek(g, ss);
  const Graph h = read_pajek(ss);
  EXPECT_TRUE(same_graph(g, h));
}

TEST(IoPajek, ParsesVertexLabels) {
  std::stringstream ss(
      "*Vertices 3\n1 \"a\"\n2 \"b\"\n3 \"c\"\n*Edges\n1 2 2.0\n2 3\n");
  const Graph g = read_pajek(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.edge_weight(0, 1), 2u);
  EXPECT_EQ(g.edge_weight(1, 2), 1u);
}

TEST(IoFiles, ExtensionDispatch) {
  const Graph g = fixture();
  for (const char* name : {"/tmp/aacc_io_test.txt", "/tmp/aacc_io_test.graph",
                           "/tmp/aacc_io_test.net"}) {
    save_graph(g, name);
    const Graph h = load_graph(name);
    EXPECT_TRUE(same_graph(g, h)) << name;
  }
}

TEST(IoFiles, MissingFileThrows) {
  EXPECT_THROW(load_graph("/tmp/definitely_missing_aacc.txt"), std::logic_error);
}

}  // namespace
}  // namespace aacc
