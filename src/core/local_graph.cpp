#include "core/local_graph.hpp"

#include <algorithm>

namespace aacc {

LocalGraph::LocalGraph(
    Rank me, std::vector<Rank> owner,
    const std::vector<std::tuple<VertexId, VertexId, Weight>>& edges)
    : me_(me), owner_(std::move(owner)) {
  row_index_.assign(owner_.size(), -1);
  for (VertexId v = 0; v < owner_.size(); ++v) {
    if (owner_[v] == me_) {
      row_index_[v] = static_cast<std::int32_t>(locals_.size());
      locals_.push_back(v);
    }
  }
  adj_.resize(locals_.size());
  for (const auto& [u, v, w] : edges) {
    const bool lu = is_local(u);
    const bool lv = is_local(v);
    if (!lu && !lv) continue;
    if (lu) add_half_edge(u, v, w);
    if (lv) add_half_edge(v, u, w);
    if (lu && !lv) add_portal_edge(v, u, w);
    if (lv && !lu) add_portal_edge(u, v, w);
  }
}

bool LocalGraph::is_boundary_row(std::size_t row) const {
  for (const Edge& e : adj_[row]) {
    if (!is_local(e.to)) return true;
  }
  return false;
}

void LocalGraph::subscribers(std::size_t row, std::vector<Rank>& out) const {
  for (const Edge& e : adj_[row]) {
    const Rank r = owner_[e.to];
    if (r != me_ && r != kNoRank &&
        std::find(out.begin(), out.end(), r) == out.end()) {
      out.push_back(r);
    }
  }
}

VertexId LocalGraph::add_vertex(Rank r) {
  const auto id = static_cast<VertexId>(owner_.size());
  owner_.push_back(r);
  row_index_.push_back(-1);
  if (r == me_) {
    row_index_[id] = static_cast<std::int32_t>(locals_.size());
    locals_.push_back(id);
    adj_.emplace_back();
  }
  return id;
}

void LocalGraph::add_half_edge(VertexId from, VertexId to, Weight w) {
  adj_[static_cast<std::size_t>(row_index_[from])].push_back({to, w});
}

bool LocalGraph::erase_half_edge(VertexId from, VertexId to) {
  auto& list = adj_[static_cast<std::size_t>(row_index_[from])];
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].to == to) {
      list[i] = list.back();
      list.pop_back();
      return true;
    }
  }
  return false;
}

void LocalGraph::add_portal_edge(VertexId portal, VertexId local, Weight w) {
  portal_adj_[portal].emplace_back(local, w);
}

void LocalGraph::erase_portal_edge(VertexId portal, VertexId local) {
  const auto it = portal_adj_.find(portal);
  if (it == portal_adj_.end()) return;
  auto& list = it->second;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].first == local) {
      list[i] = list.back();
      list.pop_back();
      break;
    }
  }
  if (list.empty()) portal_adj_.erase(it);
}

void LocalGraph::add_edge(VertexId u, VertexId v, Weight w) {
  const bool lu = is_local(u);
  const bool lv = is_local(v);
  if (!lu && !lv) return;
  if (lu) add_half_edge(u, v, w);
  if (lv) add_half_edge(v, u, w);
  if (lu && !lv) add_portal_edge(v, u, w);
  if (lv && !lu) add_portal_edge(u, v, w);
}

void LocalGraph::remove_edge(VertexId u, VertexId v) {
  const bool lu = is_local(u);
  const bool lv = is_local(v);
  if (!lu && !lv) return;
  if (lu) AACC_CHECK(erase_half_edge(u, v));
  if (lv) AACC_CHECK(erase_half_edge(v, u));
  if (lu && !lv) erase_portal_edge(v, u);
  if (lv && !lu) erase_portal_edge(u, v);
}

void LocalGraph::set_weight(VertexId u, VertexId v, Weight w) {
  auto update = [&](VertexId from, VertexId to) {
    if (!is_local(from)) return;
    for (Edge& e : adj_[static_cast<std::size_t>(row_index_[from])]) {
      if (e.to == to) e.w = w;
    }
  };
  update(u, v);
  update(v, u);
  auto update_portal = [&](VertexId portal, VertexId local) {
    const auto it = portal_adj_.find(portal);
    if (it == portal_adj_.end()) return;
    for (auto& [lv2, pw] : it->second) {
      if (lv2 == local) pw = w;
    }
  };
  if (is_local(u) && !is_local(v)) update_portal(v, u);
  if (is_local(v) && !is_local(u)) update_portal(u, v);
}

std::int32_t LocalGraph::remove_vertex(VertexId v) {
  AACC_CHECK_MSG(owner_[v] != kNoRank, "double vertex delete: " << v);
  const bool was_local = is_local(v);
  std::int32_t removed_row = -1;
  if (was_local) {
    removed_row = row_index_[v];
    const auto row = static_cast<std::size_t>(removed_row);
    // Remove remaining incident edges (caller should have deleted them via
    // edge events already, but stay safe for direct use).
    std::vector<Edge> incident = adj_[row];
    for (const Edge& e : incident) {
      remove_edge(v, e.to);
    }
    // Swap-remove the row.
    const std::size_t last = locals_.size() - 1;
    if (row != last) {
      locals_[row] = locals_[last];
      adj_[row] = std::move(adj_[last]);
      row_index_[locals_[row]] = removed_row;
    }
    locals_.pop_back();
    adj_.pop_back();
    row_index_[v] = -1;
  } else {
    // Drop cut edges into the deleted remote vertex.
    const auto it = portal_adj_.find(v);
    if (it != portal_adj_.end()) {
      const auto neighbors = it->second;  // copy: remove_edge mutates the map
      for (const auto& [local, w] : neighbors) {
        (void)w;
        AACC_CHECK(erase_half_edge(local, v));
      }
      portal_adj_.erase(v);
    }
  }
  owner_[v] = kNoRank;
  return removed_row;
}

Weight LocalGraph::edge_weight(VertexId u, VertexId v) const {
  const VertexId from = is_local(u) ? u : v;
  const VertexId to = is_local(u) ? v : u;
  AACC_CHECK(is_local(from));
  for (const Edge& e : adj_[static_cast<std::size_t>(row_index_[from])]) {
    if (e.to == to) return e.w;
  }
  AACC_CHECK_MSG(false, "edge (" << u << ',' << v << ") not found locally");
  return 0;
}

std::vector<std::tuple<VertexId, VertexId, Weight>>
LocalGraph::local_edges_for_gather() const {
  std::vector<std::tuple<VertexId, VertexId, Weight>> out;
  for (std::size_t row = 0; row < locals_.size(); ++row) {
    const VertexId u = locals_[row];
    for (const Edge& e : adj_[row]) {
      // Each edge once, from its smaller endpoint: local-local edges are
      // seen twice here, cut edges once on each owner's rank.
      if (u < e.to) out.emplace_back(u, e.to, e.w);
    }
  }
  return out;
}

}  // namespace aacc
