// Per-rank distance-vector storage.
//
// A DvRow is the distance vector of one locally-owned vertex: upper-bound
// distances to every vertex in the (growing) global id space, plus the
// *next hop* of the witness path per entry — the DVR routing-table column
// that makes sound deletion (route poisoning) possible at any RC step.
//
// Each row maintains its running Σ(finite non-self distances) and finite
// count so that an anytime closeness snapshot costs O(local rows), not
// O(local rows × n). Harmonic centrality is a float sum, so it is cached
// instead of maintained: every write marks the cached value stale, and the
// next read re-sums the row with harmonic_from_row, the reference function
// itself — never an incremental float add or subtract — so the value is
// bit-identical to a fresh sum.
//
// Sparse change tracking: besides the per-entry flag byte, a row keeps two
// compact index lists so the RC hot path never scans the full column range:
//   * dirty list  — columns changed since the last send (kDirty). Dirty
//     clearing walks this list, taking per-step cost from O(n) to O(dirty);
//     send assembly and checkpoint serialization read it through
//     sorted_dirty(), which sorts a short list and scans the flag bytes
//     once the list is long relative to the row width.
//   * reach list  — columns that have ever been finite (kReached).
//     mark-finite-dirty walks this instead of all n columns.
// Both lists are *lazy*: clearing an entry only drops its flag, the column
// id stays in the list until the next compaction (triggered when stale
// entries outnumber live ones). Membership bits (kTracked/kReached) keep
// the lists duplicate-free, so consumers only need to filter on the live
// flag. The fuzz tests in dv_matrix_test.cpp assert list/flag agreement
// under random op sequences.
#pragma once

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "analysis/closeness.hpp"
#include "common/check.hpp"
#include "common/types.hpp"

namespace aacc {

class DvRow {
 public:
  DvRow(VertexId self, VertexId n) : self_(self) {
    d_.assign(n, kInfDist);
    nh_.assign(n, kNoVertex);
    flags_.assign(n, 0);
    d_[self] = 0;
  }

  /// Reconstructs a migrated row from wire data.
  DvRow(VertexId self, std::vector<Dist> d, std::vector<VertexId> nh)
      : self_(self), d_(std::move(d)), nh_(std::move(nh)) {
    AACC_CHECK(d_.size() == nh_.size());
    flags_.assign(d_.size(), 0);
    recompute_aggregates();
  }

  [[nodiscard]] VertexId self() const { return self_; }
  [[nodiscard]] VertexId size() const { return static_cast<VertexId>(d_.size()); }
  [[nodiscard]] Dist dist(VertexId t) const { return d_[t]; }
  [[nodiscard]] VertexId next_hop(VertexId t) const { return nh_[t]; }
  [[nodiscard]] const std::vector<Dist>& dists() const { return d_; }
  [[nodiscard]] const std::vector<VertexId>& next_hops() const { return nh_; }

  /// Running aggregates over finite non-self entries.
  [[nodiscard]] std::uint64_t finite_sum() const { return sum_; }
  [[nodiscard]] VertexId finite_count() const { return finite_; }

  /// Anytime closeness estimate from the current upper bounds (0 when no
  /// other vertex is known reachable yet).
  [[nodiscard]] double closeness() const {
    return sum_ == 0 ? 0.0 : 1.0 / static_cast<double>(sum_);
  }

  /// Harmonic centrality estimate, harmonic_from_row(dists(), self()).
  /// Re-summed only when a write since the last read marked it stale, so
  /// a row nothing touched costs O(1). Serial only: the cache is mutable.
  [[nodiscard]] double harmonic() const {
    if (harmonic_stale_) {
      harmonic_ = harmonic_from_row(d_, self_);
      harmonic_stale_ = false;
    }
    return harmonic_;
  }

  /// Overwrites entry t. Maintains aggregates; does not touch flags.
  void set(VertexId t, Dist nd, VertexId nh) {
    AACC_DCHECK(t != self_ || nd == 0);
    harmonic_stale_ = true;
    const Dist old = d_[t];
    if (t != self_) {
      if (old != kInfDist) {
        sum_ -= old;
        --finite_;
      }
      if (nd != kInfDist) {
        sum_ += nd;
        ++finite_;
        if ((flags_[t] & kReached) == 0) {
          flags_[t] |= kReached;
          reach_.push_back(t);
        }
      }
    }
    d_[t] = nd;
    nh_[t] = nh;
  }

  /// Appends `count` new (unreachable) columns, reserving geometrically so
  /// a stream of vertex-addition batches does not reallocate per batch.
  /// The harmonic cache stays valid: infinite entries add nothing to it.
  void grow(VertexId count) {
    const std::size_t need = d_.size() + count;
    if (need > d_.capacity()) {
      const std::size_t cap = std::max(need, 2 * d_.size());
      d_.reserve(cap);
      nh_.reserve(cap);
      flags_.reserve(cap);
    }
    d_.insert(d_.end(), count, kInfDist);
    nh_.insert(nh_.end(), count, kNoVertex);
    flags_.insert(flags_.end(), count, 0);
  }

  /// Resident-memory footprint of this row (capacity-based, including the
  /// sparse index lists) — the unit the tiered store's budget is charged
  /// in (DESIGN.md §"Tiered DV storage").
  [[nodiscard]] std::size_t footprint_bytes() const {
    return sizeof(DvRow) + d_.capacity() * sizeof(Dist) +
           nh_.capacity() * sizeof(VertexId) + flags_.capacity() +
           (dirty_.capacity() + reach_.capacity()) * sizeof(VertexId);
  }

  /// Releases slack capacity (columns and index lists). Called after a
  /// repartition rebuilt the row set: the geometric growth headroom of the
  /// pre-migration era is dead weight on the new owner.
  void shrink_to_fit() {
    compact_dirty();
    compact_reach();
    d_.shrink_to_fit();
    nh_.shrink_to_fit();
    flags_.shrink_to_fit();
    dirty_.shrink_to_fit();
    reach_.shrink_to_fit();
  }

  /// sorted_dirty() scans the flag bytes once at least one column in this
  /// many is dirty (EXPERIMENTS.md §M3 measures the crossover).
  static constexpr std::size_t kScanDensityInverse = 64;

  // Entry flags used by the rank engine.
  static constexpr std::uint8_t kDirty = 1;    ///< changed since last send
  static constexpr std::uint8_t kQueued = 2;   ///< in the relaxation worklist
  // Internal membership bits for the sparse index lists (not for engine use).
  static constexpr std::uint8_t kTracked = 4;  ///< column id is in dirty_
  static constexpr std::uint8_t kReached = 8;  ///< column id is in reach_

  [[nodiscard]] bool test_flag(VertexId t, std::uint8_t bit) const {
    return (flags_[t] & bit) != 0;
  }
  void set_flag(VertexId t, std::uint8_t bit) { flags_[t] |= bit; }
  void clear_flag(VertexId t, std::uint8_t bit) {
    flags_[t] &= static_cast<std::uint8_t>(~bit);
  }

  /// Marks entry t as changed-since-last-send. Returns true if it was clean.
  bool mark_dirty(VertexId t) {
    if ((flags_[t] & kDirty) != 0) return false;
    flags_[t] |= kDirty;
    ++dirty_count_;
    if ((flags_[t] & kTracked) == 0) {
      flags_[t] |= kTracked;
      maybe_compact_dirty();
      dirty_.push_back(t);
    }
    return true;
  }
  /// Clears the dirty bit. Returns true if it was set. The column stays in
  /// the index list as a stale entry until the next compaction.
  bool clear_dirty(VertexId t) {
    if ((flags_[t] & kDirty) == 0) return false;
    flags_[t] &= static_cast<std::uint8_t>(~kDirty);
    --dirty_count_;
    return true;
  }
  [[nodiscard]] VertexId dirty_count() const { return dirty_count_; }

  /// Clears every dirty bit by walking the sparse list — O(dirty), not
  /// O(n). Returns the number of live entries cleared.
  VertexId clear_all_dirty() {
    for (const VertexId t : dirty_) {
      flags_[t] &= static_cast<std::uint8_t>(~(kDirty | kTracked));
    }
    dirty_.clear();
    const VertexId cleared = dirty_count_;
    dirty_count_ = 0;
    return cleared;
  }

  /// Fills `out` with the currently dirty columns in ascending order. Picks
  /// the cheaper of two exact methods: filter and sort the dirty list,
  /// O(dirty log dirty), or scan the flag bytes, O(n) at a few columns per
  /// instruction. Both yield the same set in the same order.
  void sorted_dirty(std::vector<VertexId>& out) const {
    if (static_cast<std::size_t>(dirty_count_) * kScanDensityInverse >=
        d_.size()) {
      scan_dirty(out);
    } else {
      sort_dirty_list(out);
    }
  }
  /// Dirty-list method of sorted_dirty(): stale list entries are filtered
  /// out, the rest sorted.
  void sort_dirty_list(std::vector<VertexId>& out) const {
    out.clear();
    for (const VertexId t : dirty_) {
      if ((flags_[t] & kDirty) != 0) out.push_back(t);
    }
    std::sort(out.begin(), out.end());
  }
  /// Flag-scan method of sorted_dirty(): every column whose kDirty bit is
  /// set, read eight flag bytes per word.
  void scan_dirty(std::vector<VertexId>& out) const {
    out.clear();
    out.reserve(dirty_count_);
    const std::uint8_t* f = flags_.data();
    const auto n = static_cast<VertexId>(flags_.size());
    VertexId t = 0;
    if constexpr (std::endian::native == std::endian::little) {
      constexpr std::uint64_t kDirtyLanes = 0x0101010101010101ULL * kDirty;
      for (; t + 8 <= n; t += 8) {
        std::uint64_t word;
        std::memcpy(&word, f + t, sizeof(word));
        word &= kDirtyLanes;
        while (word != 0) {
          out.push_back(t + static_cast<VertexId>(std::countr_zero(word) / 8));
          word &= word - 1;
        }
      }
    }
    for (; t < n; ++t) {
      if ((f[t] & kDirty) != 0) out.push_back(t);
    }
  }

  /// Calls fn(t) for every finite non-self column, walking the reach list
  /// instead of the full column range — O(ever-finite), not O(n).
  template <typename Fn>
  void for_each_finite(Fn&& fn) const {
    for (const VertexId t : reach_) {
      if (d_[t] != kInfDist) fn(t);
    }
  }

  /// Clears every flag (dirty + queued) and the dirty list. Reachability
  /// bookkeeping survives: the distances themselves are untouched, so the
  /// reach list must keep describing them. Used when a row survives a
  /// repartition in place: the new ownership invalidates send/queue state.
  void reset_flags() {
    for (std::uint8_t& f : flags_) f &= kReached;
    dirty_.clear();
    dirty_count_ = 0;
  }

 private:
  void recompute_aggregates() {
    sum_ = 0;
    finite_ = 0;
    for (VertexId t = 0; t < d_.size(); ++t) {
      if (t != self_ && d_[t] != kInfDist) {
        sum_ += d_[t];
        ++finite_;
        flags_[t] |= kReached;
        reach_.push_back(t);
      }
    }
  }

  /// Drops stale ids once they outnumber live ones (amortized O(1) per op).
  void maybe_compact_dirty() {
    if (dirty_.size() > 2 * static_cast<std::size_t>(dirty_count_) + 8) {
      compact_dirty();
    }
  }
  void compact_dirty() {
    std::size_t keep = 0;
    for (const VertexId t : dirty_) {
      if ((flags_[t] & kDirty) != 0) {
        dirty_[keep++] = t;
      } else {
        flags_[t] &= static_cast<std::uint8_t>(~kTracked);
      }
    }
    dirty_.resize(keep);
  }
  void compact_reach() {
    std::size_t keep = 0;
    for (const VertexId t : reach_) {
      if (d_[t] != kInfDist) {
        reach_[keep++] = t;
      } else {
        flags_[t] &= static_cast<std::uint8_t>(~kReached);
      }
    }
    reach_.resize(keep);
  }

  VertexId self_;
  mutable bool harmonic_stale_ = true;  ///< harmonic_ predates a write
  std::vector<Dist> d_;
  std::vector<VertexId> nh_;
  std::vector<std::uint8_t> flags_;
  std::vector<VertexId> dirty_;  ///< sparse dirty index list (may hold stale ids)
  std::vector<VertexId> reach_;  ///< columns ever finite (may hold stale ids)
  std::uint64_t sum_ = 0;
  mutable double harmonic_ = 0.0;  ///< valid when !harmonic_stale_
  VertexId finite_ = 0;
  VertexId dirty_count_ = 0;
};

}  // namespace aacc
