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
// Sparse change tracking: besides the per-entry flag byte, a row keeps three
// bounded column lists (ColumnList) so the RC hot path need not scan the
// full column range while a row is sparse:
//   * dirty list  — columns marked dirty since the last bulk clear. Dirty
//     clearing walks it, and sorted_dirty() filters and sorts it for send
//     assembly and checkpoint serialization.
//   * reach list  — columns that turned finite since the row was built.
//     sorted_finite() filters and sorts it for the whole-row resends and
//     for demotion's cold encoding.
//   * queue list  — columns queued for relaxation through the row's
//     neighbours (mark_queued). The drain takes them all at once
//     (take_queued), so this list never holds a stale or duplicate id.
// Each list holds at most size() / kScanDensityInverse ids. An append past
// that cap frees the list and marks it overflowed; from then on the row
// scans instead — the flag bytes for dirty and queued columns, d_ for
// finite ones. So a dense row costs its 9 bytes per column and nothing
// more, and a row pays no O(n) scan while its lists are under the cap. The
// dirty list starts over at every clear_all_dirty/reset_flags, the queue
// list at every take_queued/reset_flags, the reach list only when the row
// is rebuilt or reset. The dirty and reach lists are append-only: a cleared
// or poisoned column stays as a stale id, and a re-marked one appears
// twice, so their consumers keep the live ids, sort and de-duplicate.
//
// The lists also bound what reset() must undo: every column whose entry or
// flags differ from a fresh row's is the self column or named by a list.
// For that the reach list also takes an infinite column given a next hop
// (the engine writes infinite entries with kNoVertex, so it never does).
#pragma once

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "analysis/closeness.hpp"
#include "common/check.hpp"
#include "common/types.hpp"

namespace aacc {

/// Append-only list of column ids with a caller-supplied cap. Appending
/// past the cap frees the storage and marks the list overflowed until
/// reset(). May hold duplicate and stale ids (see file comment).
class ColumnList {
 public:
  void push(VertexId t, std::size_t cap) {
    if (overflowed_) return;
    if (ids_.size() >= cap) {
      std::vector<VertexId>().swap(ids_);
      overflowed_ = true;
      return;
    }
    ids_.push_back(t);
  }
  void reset() {
    ids_.clear();
    overflowed_ = false;
  }
  /// reset() that also frees the storage, as a new list holds none.
  void release() {
    std::vector<VertexId>().swap(ids_);
    overflowed_ = false;
  }
  [[nodiscard]] bool overflowed() const { return overflowed_; }
  [[nodiscard]] const std::vector<VertexId>& ids() const { return ids_; }
  [[nodiscard]] std::size_t bytes() const {
    return ids_.capacity() * sizeof(VertexId);
  }
  void shrink_to_fit() { ids_.shrink_to_fit(); }

  /// Fills `out` with the ids for which live(t) holds, ascending and
  /// without duplicates.
  template <typename Live>
  void sorted_live(std::vector<VertexId>& out, Live&& live) const {
    out.clear();
    for (const VertexId t : ids_) {
      if (live(t)) out.push_back(t);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }

 private:
  std::vector<VertexId> ids_;
  bool overflowed_ = false;
};

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
    for (VertexId t = 0; t < d_.size(); ++t) {
      if (t != self_ && d_[t] != kInfDist) {
        sum_ += d_[t];
        ++finite_;
        reach_.push(t, list_cap());
      } else if (t != self_ && nh_[t] != kNoVertex) {
        reach_.push(t, list_cap());  // for reset() (see file comment)
      }
    }
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
        if (old == kInfDist) reach_.push(t, list_cap());
      } else if (old == kInfDist && nh != kNoVertex) {
        reach_.push(t, list_cap());  // for reset() (see file comment)
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

  /// Returns the row to exactly the state DvRow(self, size()) builds, so
  /// its buffers can serve another vertex. Writes only the columns the
  /// reach, dirty and queue lists name and the old self column — O(list)
  /// — except that an overflowed list costs one pass over its array. A row
  /// with growth slack is rebuilt instead: a fresh row has none, and
  /// footprint_bytes() is the tiered store's budget currency.
  void reset(VertexId self) {
    const VertexId n = size();
    if (d_.capacity() != n || nh_.capacity() != n || flags_.capacity() != n) {
      *this = DvRow(self, n);
      return;
    }
    if (reach_.overflowed()) {
      std::fill(d_.begin(), d_.end(), kInfDist);
      std::fill(nh_.begin(), nh_.end(), kNoVertex);
    } else {
      for (const VertexId t : reach_.ids()) {
        d_[t] = kInfDist;
        nh_[t] = kNoVertex;
      }
      d_[self_] = kInfDist;
      nh_[self_] = kNoVertex;
    }
    if (dirty_.overflowed() || queued_.overflowed()) {
      std::fill(flags_.begin(), flags_.end(), std::uint8_t{0});
    } else {
      for (const VertexId t : dirty_.ids()) flags_[t] = 0;
      for (const VertexId t : queued_.ids()) flags_[t] = 0;
    }
    dirty_.release();
    reach_.release();
    queued_.release();
    self_ = self;
    d_[self] = 0;
    harmonic_stale_ = true;
    harmonic_ = 0.0;
    sum_ = 0;
    finite_ = 0;
    dirty_count_ = 0;
    queued_count_ = 0;
  }

  /// Resident-memory footprint of this row (capacity-based, including the
  /// column lists) — the unit the tiered store's budget is charged in
  /// (DESIGN.md §"Tiered DV storage").
  [[nodiscard]] std::size_t footprint_bytes() const {
    return sizeof(DvRow) + d_.capacity() * sizeof(Dist) +
           nh_.capacity() * sizeof(VertexId) + flags_.capacity() +
           dirty_.bytes() + reach_.bytes() + queued_.bytes();
  }

  /// Releases slack capacity. Called after a repartition rebuilt the row
  /// set: the geometric growth headroom of the pre-migration era is dead
  /// weight on the new owner.
  void shrink_to_fit() {
    d_.shrink_to_fit();
    nh_.shrink_to_fit();
    flags_.shrink_to_fit();
    dirty_.shrink_to_fit();
    reach_.shrink_to_fit();
    queued_.shrink_to_fit();
  }

  /// Each column list holds at most size() / kScanDensityInverse ids; past
  /// that the row scans (EXPERIMENTS.md §M3 measures the crossover).
  static constexpr std::size_t kScanDensityInverse = 64;

  // Entry flags used by the rank engine.
  static constexpr std::uint8_t kDirty = 1;    ///< changed since last send
  static constexpr std::uint8_t kQueued = 2;   ///< awaiting relaxation

  [[nodiscard]] bool test_flag(VertexId t, std::uint8_t bit) const {
    return (flags_[t] & bit) != 0;
  }

  /// Marks entry t as changed-since-last-send. Returns true if it was clean.
  bool mark_dirty(VertexId t) {
    if ((flags_[t] & kDirty) != 0) return false;
    flags_[t] |= kDirty;
    ++dirty_count_;
    dirty_.push(t, list_cap());
    return true;
  }
  /// Clears the dirty bit. Returns true if it was set. The column stays in
  /// the dirty list as a stale id.
  bool clear_dirty(VertexId t) {
    if ((flags_[t] & kDirty) == 0) return false;
    flags_[t] &= static_cast<std::uint8_t>(~kDirty);
    --dirty_count_;
    return true;
  }
  [[nodiscard]] VertexId dirty_count() const { return dirty_count_; }
  /// True once the dirty list passed its cap; sorted_dirty() then scans.
  [[nodiscard]] bool dirty_list_overflowed() const {
    return dirty_.overflowed();
  }

  /// Clears every dirty bit — by walking the dirty list while it holds
  /// every dirty column, O(dirty), else by one pass over the flag bytes.
  /// Returns the number of live entries cleared.
  VertexId clear_all_dirty() {
    constexpr auto kKeep = static_cast<std::uint8_t>(~kDirty);
    if (dirty_.overflowed()) {
      for (std::uint8_t& f : flags_) f &= kKeep;
    } else {
      for (const VertexId t : dirty_.ids()) flags_[t] &= kKeep;
    }
    dirty_.reset();
    const VertexId cleared = dirty_count_;
    dirty_count_ = 0;
    return cleared;
  }

  /// Fills `out` with the currently dirty columns in ascending order: from
  /// the dirty list while it exists, O(list log list), else by scanning the
  /// flag bytes, O(n) at a few columns per instruction.
  void sorted_dirty(std::vector<VertexId>& out) const {
    if (dirty_.overflowed()) {
      scan_dirty(out);
    } else {
      sort_dirty_list(out);
    }
  }
  /// List method of sorted_dirty(): live ids, sorted and de-duplicated.
  /// Only valid while the list has not overflowed.
  void sort_dirty_list(std::vector<VertexId>& out) const {
    AACC_DCHECK(!dirty_.overflowed());
    dirty_.sorted_live(out,
                       [this](VertexId t) { return (flags_[t] & kDirty) != 0; });
  }
  /// Flag-scan method of sorted_dirty(): every column whose kDirty bit is
  /// set, ascending.
  void scan_dirty(std::vector<VertexId>& out) const {
    out.clear();
    out.reserve(dirty_count_);
    scan_flags(kDirty, out);
  }

  /// Queues column t for relaxation through the row's neighbours. Returns
  /// true if it was not queued yet.
  bool mark_queued(VertexId t) {
    if ((flags_[t] & kQueued) != 0) return false;
    flags_[t] |= kQueued;
    ++queued_count_;
    queued_.push(t, list_cap());
    return true;
  }
  [[nodiscard]] VertexId queued_count() const { return queued_count_; }

  /// Pass 1 of the drain's row kernel, a branch-free select: for every
  /// (t, base) of `entries` (finite bases) it writes (t, base + w) to
  /// `picks` and advances past the candidates that improve this row, so
  /// the first k picks, returned, are the improving ones in entry order.
  /// About half the candidates improve, so a reject branch would
  /// mispredict about half the time. A finite base plus w cannot wrap in
  /// 64 bits and an improving sum is below kInfDist, so no saturation test
  /// is needed; an undelivered poison marker reads kInfDist, so it is
  /// always picked, and relax_batch() defers it.
  std::size_t select_improving(
      std::span<const std::pair<VertexId, Dist>> entries, Weight w,
      std::vector<std::pair<VertexId, Dist>>& picks) const {
    if (picks.size() < entries.size()) picks.resize(entries.size());
    const Dist* d = d_.data();
    std::pair<VertexId, Dist>* out = picks.data();
    std::size_t k = 0;
    for (const auto& [t, base] : entries) {
      const std::uint64_t nd = std::uint64_t{base} + w;
      out[k] = {t, static_cast<Dist>(nd)};
      k += static_cast<std::size_t>(nd < d[t]);
    }
    return k;
  }

  /// What relax_batch() did: entries written, and columns it newly marked
  /// dirty and newly queued.
  struct BatchCounts {
    VertexId relaxed = 0;
    VertexId dirtied = 0;
    VertexId queued = 0;
  };
  /// Applies a batch of improvements: for each (t, nd) in order, exactly
  /// set(t, nd, nh), mark_dirty(t) and mark_queued(t) — except that an
  /// undelivered poison marker (entry kInfDist, kDirty set) is left
  /// untouched and handed to on_marker(t). Every nd must be finite and
  /// below the column's entry (a marker's kInfDist always is), and the
  /// columns must be distinct. The aggregates and counts are kept in
  /// locals and written once. When the dirty, queue and reach lists have
  /// all overflowed, no column needs a list push, and the loop is
  /// branch-free but for the marker test.
  template <typename OnMarker>
  BatchCounts relax_batch(std::span<const std::pair<VertexId, Dist>> cands,
                          VertexId nh, OnMarker&& on_marker) {
    BatchCounts c;
    std::uint64_t sum = sum_;
    VertexId finite = finite_;
    Dist* d = d_.data();
    VertexId* hops = nh_.data();
    std::uint8_t* flags = flags_.data();
    if (dirty_.overflowed() && queued_.overflowed() && reach_.overflowed()) {
      for (const auto& [t, nd] : cands) {
        const Dist old = d[t];
        const std::uint8_t f = flags[t];
        if (old == kInfDist && (f & kDirty) != 0) {
          on_marker(t);
          continue;
        }
        AACC_DCHECK(t != self_ && nd < old);
        const bool was_inf = old == kInfDist;
        sum += nd - (was_inf ? 0 : std::uint64_t{old});
        finite += was_inf;
        d[t] = nd;
        hops[t] = nh;
        c.dirtied += (f & kDirty) == 0;
        c.queued += (f & kQueued) == 0;
        flags[t] = f | kDirty | kQueued;
        ++c.relaxed;
      }
    } else {
      const std::size_t cap = list_cap();
      for (const auto& [t, nd] : cands) {
        const Dist old = d[t];
        const std::uint8_t f = flags[t];
        if (old == kInfDist && (f & kDirty) != 0) {
          on_marker(t);
          continue;
        }
        AACC_DCHECK(t != self_ && nd < old);
        if (old == kInfDist) {
          ++finite;
          reach_.push(t, cap);
        } else {
          sum -= old;
        }
        sum += nd;
        d[t] = nd;
        hops[t] = nh;
        if ((f & kDirty) == 0) {
          ++c.dirtied;
          dirty_.push(t, cap);
        }
        if ((f & kQueued) == 0) {
          ++c.queued;
          queued_.push(t, cap);
        }
        flags[t] = f | kDirty | kQueued;
        ++c.relaxed;
      }
    }
    if (c.relaxed != 0) harmonic_stale_ = true;
    sum_ = sum;
    finite_ = finite;
    dirty_count_ += c.dirtied;
    queued_count_ += c.queued;
    return c;
  }

  /// Moves every queued column into `out` and clears their flags: in
  /// queueing order while the queue list holds them all, else ascending by
  /// a flag scan.
  void take_queued(std::vector<VertexId>& out) {
    if (queued_.overflowed()) {
      out.clear();
      out.reserve(queued_count_);
      scan_flags(kQueued, out);
    } else {
      out.assign(queued_.ids().begin(), queued_.ids().end());
    }
    AACC_DCHECK(out.size() == queued_count_);
    for (const VertexId t : out) {
      flags_[t] &= static_cast<std::uint8_t>(~kQueued);
    }
    queued_.reset();
    queued_count_ = 0;
  }

  /// Fills `out` with every finite non-self column in ascending order: from
  /// the reach list while it exists, else by scanning d_.
  void sorted_finite(std::vector<VertexId>& out) const {
    if (!reach_.overflowed()) {
      reach_.sorted_live(out, [this](VertexId t) { return d_[t] != kInfDist; });
      return;
    }
    out.clear();
    out.reserve(finite_);
    for (VertexId t = 0; t < d_.size(); ++t) {
      if (t != self_ && d_[t] != kInfDist) out.push_back(t);
    }
  }

  /// Clears every flag (dirty + queued), the dirty list and the queue. The
  /// reach list survives: the distances themselves are untouched. Used when
  /// a row survives a repartition in place: the new ownership invalidates
  /// send/queue state.
  void reset_flags() {
    std::fill(flags_.begin(), flags_.end(), std::uint8_t{0});
    dirty_.reset();
    dirty_count_ = 0;
    queued_.reset();
    queued_count_ = 0;
  }

 private:
  [[nodiscard]] std::size_t list_cap() const {
    return d_.size() / kScanDensityInverse;
  }

  /// Appends every column whose `bit` is set, ascending, reading eight flag
  /// bytes per word.
  void scan_flags(std::uint8_t bit, std::vector<VertexId>& out) const {
    const std::uint8_t* f = flags_.data();
    const auto n = static_cast<VertexId>(flags_.size());
    VertexId t = 0;
    if constexpr (std::endian::native == std::endian::little) {
      const std::uint64_t lanes = 0x0101010101010101ULL * bit;
      for (; t + 8 <= n; t += 8) {
        std::uint64_t word;
        std::memcpy(&word, f + t, sizeof(word));
        word &= lanes;
        while (word != 0) {
          out.push_back(t + static_cast<VertexId>(std::countr_zero(word) / 8));
          word &= word - 1;
        }
      }
    }
    for (; t < n; ++t) {
      if ((f[t] & bit) != 0) out.push_back(t);
    }
  }

  VertexId self_;
  mutable bool harmonic_stale_ = true;  ///< harmonic_ predates a write
  std::vector<Dist> d_;
  std::vector<VertexId> nh_;
  std::vector<std::uint8_t> flags_;
  ColumnList dirty_;  ///< columns marked dirty since the last bulk clear
  ColumnList reach_;  ///< columns that turned finite since construction
  ColumnList queued_;  ///< columns queued since the last take_queued
  std::uint64_t sum_ = 0;
  mutable double harmonic_ = 0.0;  ///< valid when !harmonic_stale_
  VertexId finite_ = 0;
  VertexId dirty_count_ = 0;
  VertexId queued_count_ = 0;
};

}  // namespace aacc
