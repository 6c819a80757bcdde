// Structural metrics on the R-MAT and grid generators: degree histogram,
// connectivity.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/metrics.hpp"

namespace aacc {
namespace {

TEST(Rmat, SizesAndSkew) {
  Rng rng(7);
  const Graph g = rmat(10, 4000, 0.57, 0.19, 0.19, rng);
  EXPECT_EQ(g.num_vertices(), 1024u);
  EXPECT_EQ(g.num_edges(), 4000u);
  const auto hist = degree_histogram(g);
  EXPECT_GT(hist.size(), 30u);  // heavy tail
}

TEST(Rmat, Deterministic) {
  Rng a(9);
  Rng b(9);
  EXPECT_EQ(rmat(8, 600, 0.57, 0.19, 0.19, a).edges(),
            rmat(8, 600, 0.57, 0.19, 0.19, b).edges());
}

TEST(Grid2d, StructureAndDegrees) {
  Rng rng(4);
  const Graph g = grid2d(4, 5, rng);
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_EQ(g.num_edges(), 4u * 4u + 3u * 5u);  // horizontal + vertical
  EXPECT_EQ(g.degree(0), 2u);                   // corner
  EXPECT_EQ(g.degree(6), 4u);                   // interior
  EXPECT_TRUE(is_connected(g));
}

}  // namespace
}  // namespace aacc
