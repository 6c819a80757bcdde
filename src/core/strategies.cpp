#include "core/strategies.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "partition/multilevel.hpp"

namespace aacc {

std::vector<Rank> assign_round_robin(std::size_t count, std::uint64_t cursor,
                                     Rank world) {
  std::vector<Rank> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = static_cast<Rank>((cursor + i) % static_cast<std::uint64_t>(world));
  }
  return out;
}

std::vector<std::size_t> rank_loads(const std::vector<Rank>& owner, Rank world) {
  std::vector<std::size_t> load(static_cast<std::size_t>(world), 0);
  for (const Rank r : owner) {
    if (r != kNoRank) ++load[static_cast<std::size_t>(r)];
  }
  return load;
}

std::vector<Rank> assign_cut_edge(const std::vector<VertexAddEvent>& batch,
                                  VertexId first_new_id,
                                  const std::vector<Rank>& owner, Rank world,
                                  std::uint64_t seed) {
  const auto k = static_cast<VertexId>(batch.size());
  // Batch-internal graph: vertex i of the batch has global id
  // first_new_id + i; only edges between batch members count.
  Graph bg(k);
  for (VertexId i = 0; i < k; ++i) {
    AACC_CHECK_MSG(batch[i].id == first_new_id + i,
                   "batch ids must be dense from " << first_new_id);
    for (const auto& [to, w] : batch[i].edges) {
      if (to >= first_new_id && to < batch[i].id) {
        bg.add_edge(i, to - first_new_id, w);
      }
    }
  }

  Rng rng(seed ^ (0x9e3779b97f4a7c15ULL + first_new_id));
  const MultilevelPartitioner ml;
  const Partition parts = ml.partition(bg, world, rng);

  // Part sizes, largest first.
  std::vector<std::size_t> part_size(static_cast<std::size_t>(world), 0);
  for (VertexId i = 0; i < k; ++i) {
    ++part_size[static_cast<std::size_t>(parts.assignment[i])];
  }
  std::vector<Rank> parts_by_size(static_cast<std::size_t>(world));
  std::iota(parts_by_size.begin(), parts_by_size.end(), Rank{0});
  std::stable_sort(parts_by_size.begin(), parts_by_size.end(),
                   [&](Rank a, Rank b) {
                     return part_size[static_cast<std::size_t>(a)] >
                            part_size[static_cast<std::size_t>(b)];
                   });

  // Ranks, least loaded first.
  const auto load = rank_loads(owner, world);
  std::vector<Rank> ranks_by_load(static_cast<std::size_t>(world));
  std::iota(ranks_by_load.begin(), ranks_by_load.end(), Rank{0});
  std::stable_sort(ranks_by_load.begin(), ranks_by_load.end(),
                   [&](Rank a, Rank b) {
                     return load[static_cast<std::size_t>(a)] <
                            load[static_cast<std::size_t>(b)];
                   });

  std::vector<Rank> part_to_rank(static_cast<std::size_t>(world));
  for (Rank i = 0; i < world; ++i) {
    part_to_rank[static_cast<std::size_t>(parts_by_size[static_cast<std::size_t>(i)])] =
        ranks_by_load[static_cast<std::size_t>(i)];
  }

  std::vector<Rank> out(k);
  for (VertexId i = 0; i < k; ++i) {
    out[i] = part_to_rank[static_cast<std::size_t>(parts.assignment[i])];
  }
  return out;
}

}  // namespace aacc
