// Pluggable residency layer for the per-rank DV matrix (ROADMAP item 1).
//
// The rank engine owns one DvStore holding its local rows. Two
// implementations share the slot plumbing defined here:
//
//   * ResidentDvStore — every row lives as a dense DvRow for the whole run;
//     the bit-identical oracle and the default (dv_budget_bytes == 0).
//   * TieredDvStore  — hot rows (dirty-in-flight, boundary, recently
//     touched) stay dense; settled rows are demoted to a delta-compressed
//     cold form (ColdDvRow, the wire-v2 codec of serialize.hpp) under an
//     LRU policy bounded by EngineConfig::dv_budget_bytes.
//
// Residency discipline:
//   * row(i) is the only thread-safe entry point: it promotes a cold row on
//     first touch (full decode under the store mutex, double-checked via the
//     per-slot atomic pointer) and is safe to call from the IA workers,
//     which can promote rows under a tiered budget. Everything else —
//     metadata reads, dirty ops, structural ops, maintain() — is
//     serial-only, called from the owning rank thread outside the IA pool.
//   * Demotion happens only in maintain(), which the engine calls at the
//     end of an RC step when the row and repair queues are empty — so no
//     demoted row can carry a kQueued flag or a queue list (take_queued
//     clears both), and the dirty set (which
//     cold rows do keep, as a sorted column list) is the only live flag
//     state a cold row needs to preserve.
//   * The budget is a step-boundary bound, not a hard cap: promotions
//     inside a step may overshoot; maintain() demotes back under budget.
//   * Demoted rows' dense buffers wait on a spare list and serve the next
//     promotions (reset, then decoded into), so a promotion costs
//     O(entries) instead of an n-wide fill. Hot plus spare bytes never
//     exceed the hot high-water mark maintain() has seen; spares of another
//     column width are dropped (grow_columns, clear), and
//     release_spares() frees the rest. The list changes only under the
//     store mutex; spare_bytes() is a serial read like the other gauges.
//
// Determinism: promotion rebuilds a DvRow whose observable state (values,
// aggregates, live dirty set, finite set) is identical to the row that was
// demoted; only the contents of its bounded column lists differ (stale and
// duplicate ids, or an overflow the rebuilt row has not reached), and every
// consumer of those lists filters, sorts and de-duplicates, so no
// engine-visible ordering depends on them (see DESIGN.md §"Tiered DV
// storage" for the full argument).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "core/dv_matrix.hpp"
#include "runtime/serialize.hpp"

namespace aacc {

/// Sorted dirty-column set of a cold row, held in delta-varint form: LEB128
/// of the first column, then gap-1 per successor — the drain backlog of a
/// demoted mid-convergence row costs ~1 byte per column instead of 4. The
/// deltas match write_ascending_ids exactly (count kept separately), so the
/// checkpoint path splices the blob verbatim. Bulk paths — ascending
/// appends, full scans, retire-all, unions — are O(size); single-column
/// erase rebuilds the blob, which is fine because on cold rows it only runs
/// in the rare poison-sync path.
class ColdDirty {
 public:
  [[nodiscard]] VertexId size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t bytes() const { return blob_.capacity(); }
  /// The raw delta bytes (write_ascending_ids payload minus the count).
  [[nodiscard]] std::span<const std::byte> deltas() const { return blob_; }

  void clear() {
    blob_.clear();
    count_ = 0;
    last_ = 0;
  }
  void shrink_to_fit() { blob_.shrink_to_fit(); }

  /// Appends a column strictly greater than every current member.
  void append(VertexId t) {
    AACC_DCHECK(count_ == 0 || t > last_);
    append_varint(count_ == 0 ? t : t - last_ - 1);
    last_ = t;
    ++count_;
  }

  void assign_sorted(const std::vector<VertexId>& cols) {
    clear();
    blob_.reserve(cols.size());  // ~1 byte per gap for dense backlogs
    for (const VertexId t : cols) append(t);
  }

  /// Visits the columns in ascending order.
  template <typename F>
  void for_each(F&& f) const {
    const std::byte* p = blob_.data();
    VertexId prev = 0;
    for (VertexId k = 0; k < count_; ++k) {
      const auto delta = static_cast<VertexId>(read_varint(p));
      prev = (k == 0) ? delta : prev + delta + 1;
      f(prev);
    }
  }

  void append_to(std::vector<VertexId>& out) const {
    out.reserve(out.size() + count_);
    for_each([&out](VertexId t) { out.push_back(t); });
  }

  [[nodiscard]] std::vector<VertexId> to_vector() const {
    std::vector<VertexId> v;
    append_to(v);
    return v;
  }

  /// O(size) rebuild; false when t is absent.
  bool erase(VertexId t) {
    if (count_ == 0 || t > last_) return false;
    std::vector<VertexId> cols = to_vector();
    const auto it = std::lower_bound(cols.begin(), cols.end(), t);
    if (it == cols.end() || *it != t) return false;
    cols.erase(it);
    assign_sorted(cols);
    return true;
  }

  bool operator==(const ColdDirty& other) const {
    return count_ == other.count_ && blob_ == other.blob_;
  }

 private:
  void append_varint(std::uint64_t v) {
    while (v >= 0x80) {
      blob_.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    blob_.push_back(static_cast<std::byte>(v));
  }
  static std::uint64_t read_varint(const std::byte*& p) {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      const auto b = std::to_integer<std::uint64_t>(*p++);
      v |= (b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  std::vector<std::byte> blob_;  ///< delta varints (no count prefix)
  VertexId count_ = 0;
  VertexId last_ = 0;  ///< largest member (valid when count_ > 0)
};

/// Delta-compressed settled row: the finite columns (self included) as a
/// wire-v2 stream — varint entry count, then per entry in ascending column
/// order a delta-coded column id (first raw, then id - prev - 1) followed
/// by the sentinel-varint distance and next hop. The row aggregates and the
/// live dirty set ride alongside so closeness and harmonic snapshots, send
/// assembly and dirty retirement never need the dense form.
struct ColdDvRow {
  std::vector<std::byte> blob;
  ColdDirty dirty;  ///< live dirty columns, delta-compressed
  VertexId self = 0;
  VertexId columns = 0;  ///< logical column count (grows with the id space)
  VertexId finite = 0;   ///< finite non-self entries
  std::uint64_t sum = 0; ///< Σ finite non-self distances
  /// Harmonic centrality of the blob's entries, summed ascending like
  /// harmonic_from_row. Every path that writes `blob` sets it.
  double harmonic = 0.0;

  [[nodiscard]] std::size_t bytes() const {
    return sizeof(ColdDvRow) + blob.capacity() + dirty.bytes();
  }
};

/// The one reader of a cold row's entry stream: (column, dist, next hop)
/// triples in ascending column order.
struct ColdCursor {
  rt::ByteReader r;
  std::uint64_t count;
  std::uint64_t read = 0;
  VertexId prev = 0;

  explicit ColdCursor(const ColdDvRow& c) : r(c.blob), count(r.read_varint()) {}

  [[nodiscard]] bool done() const { return read == count; }
  std::tuple<VertexId, Dist, VertexId> next() {
    const auto delta = static_cast<VertexId>(r.read_varint());
    prev = (read == 0) ? delta : prev + delta + 1;
    ++read;
    const Dist d = rt::decode_u32_sentinel(r.read_varint());
    const auto nh =
        static_cast<VertexId>(rt::decode_u32_sentinel(r.read_varint()));
    return {prev, d, nh};
  }
};

/// Builds the cold form of a dense row. The caller guarantees the row holds
/// no queued column (maintain()'s precondition): the cold form keeps no
/// queue.
ColdDvRow encode_cold_row(const DvRow& row);

/// Restore fast path: builds the cold form straight from the checkpoint's
/// packed value arrays — no dense DvRow round-trip. `dirty` must be sorted
/// ascending (the checkpoint layout guarantees it).
ColdDvRow encode_cold_row(VertexId self, const std::vector<Dist>& d,
                          const std::vector<VertexId>& nh,
                          std::vector<VertexId> dirty);

/// Full decode back to the dense form; the inverse of encode_cold_row up to
/// the contents of the row's column lists (see file comment).
DvRow decode_cold_row(const ColdDvRow& cold);
/// decode_cold_row into `row`, which must be in the state
/// DvRow(cold.self, cold.columns) builds (new or reset()).
void decode_cold_row_into(const ColdDvRow& cold, DvRow& row);

class DvStore {
 public:
  virtual ~DvStore();

  /// Picks the implementation: 0 = fully resident, otherwise tiered with
  /// the given byte budget for hot rows.
  static std::unique_ptr<DvStore> create(std::uint64_t budget_bytes);

  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] VertexId global_columns() const { return cols_; }
  [[nodiscard]] bool is_hot(std::size_t i) const {
    return slots_[i].hot.load(std::memory_order_acquire) != nullptr;
  }

  /// Dense-row access; promotes a cold row on first touch. The only member
  /// safe to call from the IA workers (promotion serializes on the store
  /// mutex; the hot fast path is one acquire load).
  [[nodiscard]] DvRow& row(std::size_t i) {
    Slot& s = slots_[i];
    DvRow* p = s.hot.load(std::memory_order_acquire);
    if (p != nullptr) {
      s.touch.store(epoch_, std::memory_order_relaxed);
      return *p;
    }
    return promote(i);
  }
  /// Const access may still promote (extraction / validation walk dense
  /// rows); constness here means "does not change observable row state".
  [[nodiscard]] const DvRow& row(std::size_t i) const {
    return const_cast<DvStore*>(this)->row(i);
  }

  // ---- metadata (serial-only; never promotes) ----------------------------

  [[nodiscard]] VertexId self(std::size_t i) const;
  [[nodiscard]] VertexId columns(std::size_t i) const;
  [[nodiscard]] VertexId finite_count(std::size_t i) const;
  [[nodiscard]] std::uint64_t finite_sum(std::size_t i) const;
  [[nodiscard]] double closeness(std::size_t i) const;
  /// The row's cached harmonic value, bit-identical to
  /// harmonic_from_row(row.dists(), self). O(1) for a cold row and for a
  /// hot row nothing wrote since the last read; a written hot row is
  /// re-summed once (DESIGN.md §"Tiered DV storage").
  [[nodiscard]] double harmonic(std::size_t i) const;
  /// A fresh ascending sum over the row's entries, bypassing the cache
  /// (the invariant check compares the two bit for bit).
  [[nodiscard]] double harmonic_uncached(std::size_t i) const;
  [[nodiscard]] VertexId dirty_count(std::size_t i) const;
  /// Point lookups without promotion (poison scans, invariant checks).
  /// Cold rows pay a linear decode per call — serial paths only.
  [[nodiscard]] Dist probe_dist(std::size_t i, VertexId t) const;
  [[nodiscard]] VertexId probe_next_hop(std::size_t i, VertexId t) const;

  /// fn(t, dist, next_hop) for every finite column (self included) in
  /// ascending column order, without promotion. The canonical iteration
  /// order both implementations share wherever entry order is observable
  /// (route-poison seeding, edge seeding).
  template <typename Fn>
  void for_each_entry(std::size_t i, Fn&& fn) const {
    const Slot& s = slots_[i];
    if (const DvRow* p = s.hot.load(std::memory_order_acquire)) {
      const std::vector<Dist>& d = p->dists();
      const std::vector<VertexId>& nh = p->next_hops();
      for (VertexId t = 0; t < p->size(); ++t) {
        if (d[t] != kInfDist) fn(t, d[t], nh[t]);
      }
      return;
    }
    ColdCursor cur(*s.cold);
    while (!cur.done()) {
      const auto [t, d, nh] = cur.next();
      fn(t, d, nh);
    }
  }

  // ---- dirty-set operations (serial-only; work on cold rows in place) ----

  /// Appends the live dirty columns ascending with their current distances
  /// (kInfDist for poisoned columns). `cols` is caller scratch. Read-only:
  /// cold rows serve it without promotion.
  void collect_dirty_entries(std::size_t i, std::vector<VertexId>& cols,
                             std::vector<std::pair<VertexId, Dist>>& out) const;
  /// Clears the whole dirty set; returns how many live entries were cleared.
  VertexId retire_dirty(std::size_t i);
  /// Clears one dirty bit; returns true if it was set.
  bool retire_dirty_one(std::size_t i, VertexId t);
  /// Marks every finite column dirty; returns how many were newly dirtied.
  VertexId mark_finite_dirty(std::size_t i);
  /// Column tombstone for a deleted vertex: entry := (kInfDist, kNoVertex),
  /// dirty bit cleared. Returns true when a live dirty bit was cleared.
  bool tombstone_column(std::size_t i, VertexId v);

  // ---- structural operations (serial-only) -------------------------------

  /// Appends a fresh row (d[self]=0, everything else unreachable) for a
  /// vertex in the current global column space. Tiered stores create it
  /// directly in cold form (a one-entry blob) so bulk row creation never
  /// materializes O(n) dense state.
  virtual void append_fresh(VertexId self) = 0;
  /// Appends / replaces with a caller-built dense row (migration,
  /// restore). The row is hot until the next maintain().
  void append(DvRow&& r);
  void put(std::size_t i, DvRow&& r);
  /// Promotes (if needed) and moves the dense row out; the slot becomes
  /// invalid until put() or swap_remove() fixes it up.
  [[nodiscard]] DvRow take(std::size_t i);
  void swap_remove(std::size_t i);
  void clear();
  /// Appends `count` unreachable columns to every row (vertex additions).
  void grow_columns(VertexId count);
  /// Drops send/queue flag state of row i (repartition keeps the row in
  /// place under new ownership). Reachability and values survive.
  void reset_flags(std::size_t i);
  /// Releases slack capacity after a repartition rebuild.
  void shrink_all();

  /// Installs the IA sweep result for row i (a fresh row: self entry only).
  /// `touched` holds the reached vertices in Dijkstra discovery order (the
  /// order of their first finite distance, possibly including src, which
  /// is skipped); dist/hop are the scratch arrays indexed by vertex id.
  /// Returns the number of entries marked dirty. The resident store replays
  /// the discovery-order set/mark_dirty sequence on the dense row; the
  /// tiered store sorts and encodes the cold form directly, never
  /// materializing O(n) state.
  virtual VertexId install_ia(std::size_t i, VertexId src,
                              const std::vector<VertexId>& touched,
                              const std::vector<Dist>& dist,
                              const std::vector<VertexId>& hop) = 0;

  // ---- checkpoint fast path ----------------------------------------------

  /// Serializes row i in the checkpoint-v2 layout (self id, packed
  /// distances, packed next hops, ascending dirty ids) — byte-identical
  /// whether the row is hot or cold; cold rows transcode straight from the
  /// compressed form, O(columns) varint writes but no dense decode.
  void serialize_row(std::size_t i, rt::ByteWriter& w) const;
  /// Installs a checkpointed row at slot i in the form this store keeps
  /// it: the resident store builds the dense row and marks its dirty
  /// columns; the tiered store encodes the cold form straight from the
  /// value arrays, never round-tripping through a dense DvRow. `dirty` must
  /// be ascending (the checkpoint layout guarantees it).
  virtual void put_restored(std::size_t i, VertexId self, std::vector<Dist> d,
                            std::vector<VertexId> nh,
                            std::vector<VertexId> dirty) = 0;

  // ---- residency control -------------------------------------------------

  /// End-of-step residency pass. Precondition: the engine's row and repair
  /// queues are empty (no row carries kQueued). `is_boundary(i)`
  /// steers the LRU: boundary rows are demoted last.
  virtual void maintain(const std::vector<std::uint8_t>& is_boundary) = 0;
  void promote_all();
  /// Frees the spare buffers (end of an RC phase: nothing promotes until
  /// the next one).
  void release_spares();

  // ---- observability -----------------------------------------------------

  [[nodiscard]] std::uint64_t resident_bytes() const { return resident_bytes_; }
  [[nodiscard]] std::uint64_t cold_bytes() const { return cold_bytes_; }
  /// Bytes of demoted rows' dense buffers kept for reuse (not hot: the
  /// budget does not count them).
  [[nodiscard]] std::uint64_t spare_bytes() const { return spare_bytes_; }
  [[nodiscard]] std::uint64_t promotions() const { return promotions_; }
  [[nodiscard]] std::uint64_t demotions() const { return demotions_; }
  [[nodiscard]] double decode_seconds() const { return decode_seconds_; }

 protected:
  /// One row slot. `hot` owns the dense row when resident (published with
  /// release semantics by promotion); `cold` owns the compressed form
  /// otherwise. Exactly one is non-null for a valid slot. Slots move only
  /// during serial structural ops.
  struct Slot {
    std::atomic<DvRow*> hot{nullptr};
    std::atomic<std::uint32_t> touch{0};
    std::unique_ptr<ColdDvRow> cold;

    Slot() = default;
    Slot(Slot&& o) noexcept
        : hot(o.hot.load(std::memory_order_relaxed)),
          touch(o.touch.load(std::memory_order_relaxed)),
          cold(std::move(o.cold)) {
      o.hot.store(nullptr, std::memory_order_relaxed);
    }
    Slot& operator=(Slot&& o) noexcept {
      release_hot();
      hot.store(o.hot.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
      touch.store(o.touch.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      cold = std::move(o.cold);
      o.hot.store(nullptr, std::memory_order_relaxed);
      return *this;
    }
    ~Slot() { release_hot(); }
    void release_hot() {
      delete hot.load(std::memory_order_relaxed);
      hot.store(nullptr, std::memory_order_relaxed);
    }
  };

  DvStore() = default;

  /// Slow path of row(): decode + publish under the mutex.
  DvRow& promote(std::size_t i);

  [[nodiscard]] const ColdDvRow& cold_of(std::size_t i) const {
    AACC_DCHECK(slots_[i].cold != nullptr);
    return *slots_[i].cold;
  }
  [[nodiscard]] ColdDvRow& cold_of(std::size_t i) {
    AACC_DCHECK(slots_[i].cold != nullptr);
    return *slots_[i].cold;
  }
  void set_hot(std::size_t i, DvRow&& r) {
    slots_[i].release_hot();
    slots_[i].cold.reset();
    slots_[i].hot.store(new DvRow(std::move(r)), std::memory_order_release);
    slots_[i].touch.store(epoch_, std::memory_order_relaxed);
  }

  std::vector<Slot> slots_;
  VertexId cols_ = 0;
  std::uint32_t epoch_ = 1;  ///< LRU clock, bumped once per maintain()

  /// Keeps demoted rows as spares while hot + spare bytes stay within the
  /// hot high-water mark, raised to `hot_peak` first; frees the rest.
  void keep_spares(std::uint64_t hot_peak,
                   std::vector<std::unique_ptr<DvRow>> rows);

  std::mutex promote_mu_;  ///< serializes cold→hot decode + members below
  std::uint64_t promotions_ = 0;
  double decode_seconds_ = 0.0;
  std::vector<std::unique_ptr<DvRow>> spares_;  ///< reset, width cols_
  std::uint64_t spare_bytes_ = 0;
  std::uint64_t hot_high_water_ = 0;  ///< max hot bytes maintain() has seen
  // Serial-only residency accounting (recomputed by maintain()).
  std::uint64_t resident_bytes_ = 0;
  std::uint64_t cold_bytes_ = 0;
  std::uint64_t demotions_ = 0;
};

/// The default store: every row dense for the whole run. maintain() only
/// refreshes the resident-byte gauge.
class ResidentDvStore final : public DvStore {
 public:
  void append_fresh(VertexId self) override;
  VertexId install_ia(std::size_t i, VertexId src,
                      const std::vector<VertexId>& touched,
                      const std::vector<Dist>& dist,
                      const std::vector<VertexId>& hop) override;
  void put_restored(std::size_t i, VertexId self, std::vector<Dist> d,
                    std::vector<VertexId> nh,
                    std::vector<VertexId> dirty) override;
  void maintain(const std::vector<std::uint8_t>& is_boundary) override;
};

/// Hot/cold tiered store under a byte budget (see file comment).
class TieredDvStore final : public DvStore {
 public:
  explicit TieredDvStore(std::uint64_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  [[nodiscard]] std::uint64_t budget_bytes() const { return budget_bytes_; }

  void append_fresh(VertexId self) override;
  VertexId install_ia(std::size_t i, VertexId src,
                      const std::vector<VertexId>& touched,
                      const std::vector<Dist>& dist,
                      const std::vector<VertexId>& hop) override;
  void put_restored(std::size_t i, VertexId self, std::vector<Dist> d,
                    std::vector<VertexId> nh,
                    std::vector<VertexId> dirty) override;
  void maintain(const std::vector<std::uint8_t>& is_boundary) override;

 private:
  std::uint64_t budget_bytes_;
};

}  // namespace aacc
