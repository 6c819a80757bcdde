// Processor-assignment strategies for dynamically added vertices (§IV.C.a).
//
// Each strategy is a *deterministic* function of data every rank holds (the
// broadcast batch, the globally consistent owner map, the engine seed), so
// all ranks compute identical assignments with no extra communication —
// mirroring the paper's setup where "each processor computes the METIS
// partition for the newly added vertices".
#pragma once

#include <vector>

#include "core/events.hpp"
#include "partition/partition.hpp"

namespace aacc {

/// RoundRobin-PS: new vertices are dealt out circularly, starting from the
/// cursor (the number of vertices added dynamically so far). O(v') work,
/// ignores the relationships among the new vertices.
std::vector<Rank> assign_round_robin(std::size_t count, std::uint64_t cursor,
                                     Rank world);

/// CutEdge-PS: treats the batch (new vertices + the edges among them) as an
/// independent graph, partitions it with the multilevel cut minimizer, and
/// maps the parts onto ranks in ascending current-load order (largest part
/// to the least-loaded rank).
std::vector<Rank> assign_cut_edge(const std::vector<VertexAddEvent>& batch,
                                  VertexId first_new_id,
                                  const std::vector<Rank>& owner, Rank world,
                                  std::uint64_t seed);

/// Number of alive vertices per rank under `owner`.
std::vector<std::size_t> rank_loads(const std::vector<Rank>& owner, Rank world);

}  // namespace aacc
