// Rank-local view of the distributed graph.
//
// Each rank knows: the global owner map (kept consistent on all ranks —
// assignments are deterministic functions of broadcast data), its own
// vertices, every edge with at least one local endpoint, and the *portals*
// (the paper's external boundary vertices): remote endpoints of cut edges.
// Portal adjacency is indexed by global id so that updates/poisons arriving
// for a portal can be relaxed into the affected local rows directly.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"
#include "partition/partition.hpp"

namespace aacc {

class LocalGraph {
 public:
  /// Builds a rank's view. `owner` covers the full id space (kNoRank =
  /// tombstoned); `edges` may be the full edge list — non-local edges are
  /// skipped.
  LocalGraph(Rank me, std::vector<Rank> owner,
             const std::vector<std::tuple<VertexId, VertexId, Weight>>& edges);

  [[nodiscard]] Rank me() const { return me_; }
  [[nodiscard]] VertexId n() const { return static_cast<VertexId>(owner_.size()); }
  [[nodiscard]] Rank owner(VertexId v) const { return owner_[v]; }
  [[nodiscard]] bool is_local(VertexId v) const { return owner_[v] == me_; }
  [[nodiscard]] bool is_alive(VertexId v) const { return owner_[v] != kNoRank; }

  [[nodiscard]] VertexId num_local() const {
    return static_cast<VertexId>(locals_.size());
  }
  /// Row index of a local vertex, or -1.
  [[nodiscard]] std::int32_t row_of(VertexId v) const {
    return v < row_index_.size() ? row_index_[v] : -1;
  }
  [[nodiscard]] VertexId vertex_of(std::size_t row) const { return locals_[row]; }
  [[nodiscard]] std::span<const Edge> adj(std::size_t row) const {
    return adj_[row];
  }

  /// Is v a remote endpoint of at least one cut edge into this rank?
  [[nodiscard]] bool is_portal(VertexId v) const {
    return portal_adj_.count(v) != 0;
  }
  /// Local neighbours of portal b: (local vertex global id, edge weight).
  [[nodiscard]] std::span<const std::pair<VertexId, Weight>> portal_neighbors(
      VertexId b) const {
    const auto it = portal_adj_.find(b);
    if (it == portal_adj_.end()) return {};
    return it->second;
  }
  [[nodiscard]] const std::unordered_map<VertexId,
                                         std::vector<std::pair<VertexId, Weight>>>&
  portals() const {
    return portal_adj_;
  }

  /// Does local vertex (by row) have any remote neighbour?
  [[nodiscard]] bool is_boundary_row(std::size_t row) const;

  /// Distinct ranks owning remote neighbours of local row (append to out).
  void subscribers(std::size_t row, std::vector<Rank>& out) const;

  // ---- mutations (all ranks apply the same events in the same order) ----

  /// Registers a new global vertex owned by `r`. If r == me, a local row is
  /// appended (caller appends the matching DvRow). Returns the id.
  VertexId add_vertex(Rank r);

  void add_edge(VertexId u, VertexId v, Weight w);
  void remove_edge(VertexId u, VertexId v);
  void set_weight(VertexId u, VertexId v, Weight w);

  /// Tombstones v globally; if local, removes its row via swap-remove and
  /// returns the row index that was removed (the caller must apply the same
  /// swap-remove to its row storage). Returns -1 if v was not local.
  std::int32_t remove_vertex(VertexId v);

  /// Weight of edge (u, v) as seen from this rank. Precondition: at least
  /// one endpoint is local and the edge exists.
  [[nodiscard]] Weight edge_weight(VertexId u, VertexId v) const;

  /// The local vertices' edges (u, v) with u < v, used by the
  /// Repartition-S gather: across all ranks, every edge exactly once.
  [[nodiscard]] std::vector<std::tuple<VertexId, VertexId, Weight>>
  local_edges_for_gather() const;

  /// Replaces the owner map (Repartition-S). The caller is responsible for
  /// rebuilding the LocalGraph afterwards.
  [[nodiscard]] const std::vector<Rank>& owner_map() const { return owner_; }

 private:
  void add_half_edge(VertexId from, VertexId to, Weight w);
  bool erase_half_edge(VertexId from, VertexId to);
  void add_portal_edge(VertexId portal, VertexId local, Weight w);
  void erase_portal_edge(VertexId portal, VertexId local);

  Rank me_;
  std::vector<Rank> owner_;
  std::vector<VertexId> locals_;              // row -> global id
  std::vector<std::int32_t> row_index_;       // global id -> row or -1
  std::vector<std::vector<Edge>> adj_;        // row -> edges (global targets)
  std::unordered_map<VertexId, std::vector<std::pair<VertexId, Weight>>> portal_adj_;
};

}  // namespace aacc
