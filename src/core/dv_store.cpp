#include "core/dv_store.hpp"

#include <algorithm>
#include <tuple>

#include "common/timer.hpp"

namespace aacc {

namespace {

/// harmonic_from_row fed the finite entries in ascending column order: it
/// skips infinite columns without adding, so the additions and their order
/// — hence the bits — are the same as the dense reference's.
struct HarmonicSum {
  VertexId self;
  double h = 0.0;
  void add(VertexId t, Dist d) {
    if (t == self || d == 0 || d == kInfDist) return;
    h += 1.0 / static_cast<double>(d);
  }
};

/// The one writer of a cold row's entry stream: `count` (column, dist,
/// next hop) triples, added in ascending column order. finish() stores the
/// blob and the sum, finite count and harmonic value of what was added.
class ColdRowWriter {
 public:
  ColdRowWriter(ColdDvRow& c, std::uint64_t count) : c_(c), h_{c.self} {
    w_.write_varint(count);
  }
  void add(VertexId t, Dist d, VertexId nh) {
    w_.write_varint(first_ ? t : t - prev_ - 1);
    w_.write_varint(rt::encode_u32_sentinel(d));
    w_.write_varint(rt::encode_u32_sentinel(nh));
    h_.add(t, d);
    if (t != c_.self) {
      sum_ += d;
      ++finite_;
    }
    prev_ = t;
    first_ = false;
  }
  void finish() {
    c_.blob = w_.take();
    // Cold rows are long-lived and their bytes() are the budget currency:
    // the writer's doubling slack is not free to keep.
    c_.blob.shrink_to_fit();
    c_.sum = sum_;
    c_.finite = finite_;
    c_.harmonic = h_.h;  // re-summed, never 1/d added or subtracted
  }

 private:
  ColdDvRow& c_;
  rt::ByteWriter w_;
  HarmonicSum h_;
  std::uint64_t sum_ = 0;
  VertexId finite_ = 0;
  VertexId prev_ = 0;
  bool first_ = true;
};

/// install_ia on a dense row: the discovery-order set/mark_dirty replay.
VertexId replay_ia(DvRow& r, VertexId src, const std::vector<VertexId>& touched,
                   const std::vector<Dist>& dist,
                   const std::vector<VertexId>& hop) {
  VertexId dirty_added = 0;
  for (const VertexId t : touched) {
    if (t == src) continue;
    r.set(t, dist[t], hop[t]);
    if (r.mark_dirty(t)) ++dirty_added;
  }
  return dirty_added;
}

bool cold_find(const ColdDvRow& c, VertexId t, Dist* d_out, VertexId* nh_out) {
  ColdCursor cur(c);
  while (!cur.done()) {
    const auto [t2, d, nh] = cur.next();
    if (t2 == t) {
      *d_out = d;
      *nh_out = nh;
      return true;
    }
    if (t2 > t) break;  // ascending: t is absent
  }
  return false;
}

}  // namespace

ColdDvRow encode_cold_row(const DvRow& row) {
  ColdDvRow cold;
  cold.self = row.self();
  cold.columns = row.size();
  std::vector<VertexId> cols;
  row.sorted_dirty(cols);
  cold.dirty.assign_sorted(cols);
  cold.dirty.shrink_to_fit();

  // The self column (distance 0) is part of the stream, in its place.
  row.sorted_finite(cols);
  cols.insert(std::lower_bound(cols.begin(), cols.end(), row.self()),
              row.self());
  ColdRowWriter w(cold, cols.size());
  for (const VertexId t : cols) w.add(t, row.dist(t), row.next_hop(t));
  w.finish();
  AACC_DCHECK(cold.sum == row.finite_sum());
  AACC_DCHECK(cold.finite == row.finite_count());
  return cold;
}

ColdDvRow encode_cold_row(VertexId self, const std::vector<Dist>& d,
                          const std::vector<VertexId>& nh,
                          std::vector<VertexId> dirty) {
  ColdDvRow cold;
  cold.self = self;
  cold.columns = static_cast<VertexId>(d.size());
  cold.dirty.assign_sorted(dirty);
  cold.dirty.shrink_to_fit();
  const auto count = static_cast<std::uint64_t>(
      std::count_if(d.begin(), d.end(), [](Dist dt) { return dt != kInfDist; }));
  ColdRowWriter w(cold, count);
  for (VertexId t = 0; t < cold.columns; ++t) {
    if (d[t] != kInfDist) w.add(t, d[t], nh[t]);
  }
  w.finish();
  return cold;
}

DvRow decode_cold_row(const ColdDvRow& cold) {
  DvRow row(cold.self, cold.columns);
  decode_cold_row_into(cold, row);
  return row;
}

void decode_cold_row_into(const ColdDvRow& cold, DvRow& row) {
  AACC_DCHECK(row.self() == cold.self && row.size() == cold.columns);
  AACC_DCHECK(row.finite_count() == 0 && row.dirty_count() == 0);
  ColdCursor cur(cold);
  while (!cur.done()) {
    const auto [t, d, nh] = cur.next();
    row.set(t, d, nh);
  }
  cold.dirty.for_each([&row](VertexId t) { row.mark_dirty(t); });
  AACC_DCHECK(row.finite_sum() == cold.sum);
  AACC_DCHECK(row.finite_count() == cold.finite);
}

DvStore::~DvStore() = default;

std::unique_ptr<DvStore> DvStore::create(std::uint64_t budget_bytes) {
  if (budget_bytes == 0) return std::make_unique<ResidentDvStore>();
  return std::make_unique<TieredDvStore>(budget_bytes);
}

DvRow& DvStore::promote(std::size_t i) {
  std::lock_guard<std::mutex> lock(promote_mu_);
  Slot& s = slots_[i];
  if (DvRow* p = s.hot.load(std::memory_order_acquire)) return *p;  // raced
  Timer t;
  const ColdDvRow& c = *s.cold;
  std::unique_ptr<DvRow> p;
  if (!spares_.empty() && spares_.back()->size() == c.columns) {
    p = std::move(spares_.back());
    spares_.pop_back();
    spare_bytes_ -= p->footprint_bytes();
    p->reset(c.self);
  } else {
    p = std::make_unique<DvRow>(c.self, c.columns);
  }
  decode_cold_row_into(c, *p);
  decode_seconds_ += t.seconds();
  ++promotions_;
  s.cold.reset();
  s.touch.store(epoch_, std::memory_order_relaxed);
  DvRow* hot = p.release();  // the slot owns it now
  s.hot.store(hot, std::memory_order_release);
  return *hot;
}

void DvStore::keep_spares(std::uint64_t hot_peak,
                          std::vector<std::unique_ptr<DvRow>> rows) {
  const std::lock_guard<std::mutex> lock(promote_mu_);
  hot_high_water_ = std::max(hot_high_water_, hot_peak);
  while (!spares_.empty() &&
         resident_bytes_ + spare_bytes_ > hot_high_water_) {
    spare_bytes_ -= spares_.back()->footprint_bytes();
    spares_.pop_back();
  }
  for (std::unique_ptr<DvRow>& r : rows) {
    // The pre-reset footprint bounds the reset one (lists freed).
    if (r->size() != cols_ ||
        resident_bytes_ + spare_bytes_ + r->footprint_bytes() >
            hot_high_water_) {
      continue;  // r frees its buffers
    }
    r->reset(r->self());
    spare_bytes_ += r->footprint_bytes();
    spares_.push_back(std::move(r));
  }
}

void DvStore::release_spares() {
  const std::lock_guard<std::mutex> lock(promote_mu_);
  spares_.clear();
  spare_bytes_ = 0;
}

// ---- metadata ------------------------------------------------------------

VertexId DvStore::self(std::size_t i) const {
  const Slot& s = slots_[i];
  if (const DvRow* p = s.hot.load(std::memory_order_acquire)) return p->self();
  return s.cold->self;
}

VertexId DvStore::columns(std::size_t i) const {
  const Slot& s = slots_[i];
  if (const DvRow* p = s.hot.load(std::memory_order_acquire)) return p->size();
  return s.cold->columns;
}

VertexId DvStore::finite_count(std::size_t i) const {
  const Slot& s = slots_[i];
  if (const DvRow* p = s.hot.load(std::memory_order_acquire)) {
    return p->finite_count();
  }
  return s.cold->finite;
}

std::uint64_t DvStore::finite_sum(std::size_t i) const {
  const Slot& s = slots_[i];
  if (const DvRow* p = s.hot.load(std::memory_order_acquire)) {
    return p->finite_sum();
  }
  return s.cold->sum;
}

double DvStore::closeness(std::size_t i) const {
  const std::uint64_t sum = finite_sum(i);
  return sum == 0 ? 0.0 : 1.0 / static_cast<double>(sum);
}

double DvStore::harmonic(std::size_t i) const {
  const Slot& s = slots_[i];
  if (const DvRow* p = s.hot.load(std::memory_order_acquire)) {
    return p->harmonic();
  }
  return s.cold->harmonic;
}

double DvStore::harmonic_uncached(std::size_t i) const {
  // for_each_entry yields exactly the finite columns ascending in both
  // residency states, so the FP accumulation order is harmonic_from_row's.
  HarmonicSum h{self(i)};
  for_each_entry(i, [&h](VertexId t, Dist d, VertexId) { h.add(t, d); });
  return h.h;
}

VertexId DvStore::dirty_count(std::size_t i) const {
  const Slot& s = slots_[i];
  if (const DvRow* p = s.hot.load(std::memory_order_acquire)) {
    return p->dirty_count();
  }
  return s.cold->dirty.size();
}

Dist DvStore::probe_dist(std::size_t i, VertexId t) const {
  const Slot& s = slots_[i];
  if (const DvRow* p = s.hot.load(std::memory_order_acquire)) return p->dist(t);
  Dist d = kInfDist;
  VertexId nh = kNoVertex;
  cold_find(*s.cold, t, &d, &nh);
  return d;
}

VertexId DvStore::probe_next_hop(std::size_t i, VertexId t) const {
  const Slot& s = slots_[i];
  if (const DvRow* p = s.hot.load(std::memory_order_acquire)) {
    return p->next_hop(t);
  }
  Dist d = kInfDist;
  VertexId nh = kNoVertex;
  cold_find(*s.cold, t, &d, &nh);
  return nh;
}

// ---- dirty-set operations ------------------------------------------------

void DvStore::collect_dirty_entries(
    std::size_t i, std::vector<VertexId>& cols,
    std::vector<std::pair<VertexId, Dist>>& out) const {
  const Slot& s = slots_[i];
  if (const DvRow* p = s.hot.load(std::memory_order_acquire)) {
    p->sorted_dirty(cols);
    for (const VertexId t : cols) out.emplace_back(t, p->dist(t));
    return;
  }
  // Merge-join the sorted dirty list against the ascending entry stream:
  // a dirty column absent from the entries is a poison marker (kInfDist).
  // `cols` is the caller's scratch, reused as the decoded dirty list.
  const ColdDvRow& c = *s.cold;
  cols.clear();
  c.dirty.append_to(cols);
  ColdCursor cur(c);
  std::size_t di = 0;
  while (!cur.done() && di < cols.size()) {
    const auto [t, d, nh] = cur.next();
    (void)nh;
    while (di < cols.size() && cols[di] < t) {
      out.emplace_back(cols[di++], kInfDist);
    }
    if (di < cols.size() && cols[di] == t) {
      out.emplace_back(t, d);
      ++di;
    }
  }
  while (di < cols.size()) out.emplace_back(cols[di++], kInfDist);
}

VertexId DvStore::retire_dirty(std::size_t i) {
  Slot& s = slots_[i];
  if (DvRow* p = s.hot.load(std::memory_order_acquire)) {
    return p->clear_all_dirty();
  }
  ColdDvRow& c = *s.cold;
  const VertexId n = c.dirty.size();
  c.dirty.clear();
  return n;
}

bool DvStore::retire_dirty_one(std::size_t i, VertexId t) {
  Slot& s = slots_[i];
  if (DvRow* p = s.hot.load(std::memory_order_acquire)) {
    return p->clear_dirty(t);
  }
  return s.cold->dirty.erase(t);
}

VertexId DvStore::mark_finite_dirty(std::size_t i) {
  Slot& s = slots_[i];
  if (DvRow* p = s.hot.load(std::memory_order_acquire)) {
    std::vector<VertexId> cols;
    p->sorted_finite(cols);
    VertexId added = 0;
    for (const VertexId t : cols) {
      if (p->mark_dirty(t)) ++added;
    }
    return added;
  }
  ColdDvRow& c = *s.cold;
  std::vector<VertexId> finite_cols;
  finite_cols.reserve(c.finite);
  ColdCursor cur(c);
  while (!cur.done()) {
    const auto [t, d, nh] = cur.next();
    (void)d;
    (void)nh;
    if (t != c.self) finite_cols.push_back(t);
  }
  const std::vector<VertexId> cur_dirty = c.dirty.to_vector();
  std::vector<VertexId> merged;
  merged.reserve(cur_dirty.size() + finite_cols.size());
  std::set_union(cur_dirty.begin(), cur_dirty.end(), finite_cols.begin(),
                 finite_cols.end(), std::back_inserter(merged));
  const auto added = static_cast<VertexId>(merged.size() - cur_dirty.size());
  c.dirty.assign_sorted(merged);
  return added;
}

bool DvStore::tombstone_column(std::size_t i, VertexId v) {
  // Mirrors the engine's historical tombstone exactly: a no-op when the
  // entry is already infinite — in particular an undelivered poison marker
  // on column v stays dirty and still goes out with the next sync round.
  Slot& s = slots_[i];
  if (DvRow* p = s.hot.load(std::memory_order_acquire)) {
    if (p->dist(v) == kInfDist) return false;
    p->set(v, kInfDist, kNoVertex);
    return p->clear_dirty(v);
  }
  ColdDvRow& c = *s.cold;
  Dist d = kInfDist;
  VertexId nh = kNoVertex;
  if (!cold_find(c, v, &d, &nh)) return false;
  const bool was_dirty = c.dirty.erase(v);
  // Rewrite the entry stream without column v.
  std::vector<std::tuple<VertexId, Dist, VertexId>> entries;
  {
    ColdCursor cur(c);
    entries.reserve(cur.count > 0 ? cur.count - 1 : 0);
    while (!cur.done()) {
      const auto e = cur.next();
      if (std::get<0>(e) != v) entries.push_back(e);
    }
  }
  ColdRowWriter w(c, entries.size());
  for (const auto& [t, dt, nt] : entries) w.add(t, dt, nt);
  w.finish();
  return was_dirty;
}

// ---- structural ----------------------------------------------------------

void DvStore::append(DvRow&& r) {
  slots_.emplace_back();
  set_hot(slots_.size() - 1, std::move(r));
}

void DvStore::put(std::size_t i, DvRow&& r) { set_hot(i, std::move(r)); }

DvRow DvStore::take(std::size_t i) {
  DvRow out = std::move(row(i));
  return out;
}

void DvStore::swap_remove(std::size_t i) {
  slots_[i] = std::move(slots_.back());
  slots_.pop_back();
}

void DvStore::clear() {
  slots_.clear();
  cols_ = 0;
  release_spares();
}

void DvStore::grow_columns(VertexId count) {
  cols_ += count;
  release_spares();  // a spare's width must match every promoted row's
  for (Slot& s : slots_) {
    if (DvRow* p = s.hot.load(std::memory_order_acquire)) {
      p->grow(count);
    } else {
      s.cold->columns += count;
    }
  }
}

void DvStore::reset_flags(std::size_t i) {
  Slot& s = slots_[i];
  if (DvRow* p = s.hot.load(std::memory_order_acquire)) {
    p->reset_flags();
  } else {
    s.cold->dirty.clear();
  }
}

void DvStore::shrink_all() {
  for (Slot& s : slots_) {
    if (DvRow* p = s.hot.load(std::memory_order_acquire)) {
      p->shrink_to_fit();
    } else {
      s.cold->blob.shrink_to_fit();
      s.cold->dirty.shrink_to_fit();
    }
  }
}

// ---- checkpoint fast path ------------------------------------------------

void DvStore::serialize_row(std::size_t i, rt::ByteWriter& w) const {
  const Slot& s = slots_[i];
  if (const DvRow* p = s.hot.load(std::memory_order_acquire)) {
    w.write(p->self());
    rt::write_packed_u32s(w, p->dists());
    rt::write_packed_u32s(w, p->next_hops());
    std::vector<VertexId> dirty;
    p->sorted_dirty(dirty);
    rt::write_ascending_ids(w, dirty);
    return;
  }
  // Transcode straight from the compressed form: emit the packed dense
  // streams by walking the column range with an entry cursor — absent
  // columns are the 1-byte sentinel code. Byte-identical to the hot path.
  const ColdDvRow& c = *s.cold;
  w.write(c.self);
  std::vector<std::tuple<VertexId, Dist, VertexId>> entries;
  {
    ColdCursor cur(c);
    entries.reserve(cur.count);
    while (!cur.done()) entries.push_back(cur.next());
  }
  w.write_varint(c.columns);
  std::size_t e = 0;
  for (VertexId col = 0; col < c.columns; ++col) {
    if (e < entries.size() && std::get<0>(entries[e]) == col) {
      w.write_varint(rt::encode_u32_sentinel(std::get<1>(entries[e])));
    } else {
      w.write_varint(rt::kSentinelCode);
    }
    if (e < entries.size() && std::get<0>(entries[e]) == col) ++e;
  }
  w.write_varint(c.columns);
  e = 0;
  for (VertexId col = 0; col < c.columns; ++col) {
    if (e < entries.size() && std::get<0>(entries[e]) == col) {
      w.write_varint(rt::encode_u32_sentinel(std::get<2>(entries[e])));
      ++e;
    } else {
      w.write_varint(rt::kSentinelCode);
    }
  }
  // ColdDirty's deltas are the write_ascending_ids payload: count prefix
  // plus the raw blob reproduces the hot path byte for byte.
  w.write_varint(c.dirty.size());
  w.write_bytes(c.dirty.deltas());
}

void DvStore::promote_all() {
  for (std::size_t i = 0; i < slots_.size(); ++i) (void)row(i);
}

// ---- resident store ------------------------------------------------------

void ResidentDvStore::append_fresh(VertexId self) {
  slots_.emplace_back();
  set_hot(slots_.size() - 1, DvRow(self, cols_));
}

VertexId ResidentDvStore::install_ia(std::size_t i, VertexId src,
                                     const std::vector<VertexId>& touched,
                                     const std::vector<Dist>& dist,
                                     const std::vector<VertexId>& hop) {
  return replay_ia(row(i), src, touched, dist, hop);
}

void ResidentDvStore::put_restored(std::size_t i, VertexId self,
                                   std::vector<Dist> d,
                                   std::vector<VertexId> nh,
                                   std::vector<VertexId> dirty) {
  DvRow row(self, std::move(d), std::move(nh));
  for (const VertexId t : dirty) row.mark_dirty(t);
  set_hot(i, std::move(row));
}

void ResidentDvStore::maintain(const std::vector<std::uint8_t>& is_boundary) {
  (void)is_boundary;
  std::uint64_t resident = 0;
  for (const Slot& s : slots_) {
    resident += s.hot.load(std::memory_order_relaxed)->footprint_bytes();
  }
  resident_bytes_ = resident;
  ++epoch_;
}

// ---- tiered store --------------------------------------------------------

void TieredDvStore::append_fresh(VertexId self) {
  // Born cold: a one-entry stream (the self column) instead of three dense
  // O(n) arrays — bulk row creation stays O(rows), not O(rows × n).
  auto cold = std::make_unique<ColdDvRow>();
  cold->self = self;
  cold->columns = cols_;
  ColdRowWriter w(*cold, 1);
  w.add(self, 0, kNoVertex);
  w.finish();
  slots_.emplace_back();
  slots_.back().cold = std::move(cold);
}

VertexId TieredDvStore::install_ia(std::size_t i, VertexId src,
                                   const std::vector<VertexId>& touched,
                                   const std::vector<Dist>& dist,
                                   const std::vector<VertexId>& hop) {
  Slot& s = slots_[i];
  ColdDvRow* c = s.cold.get();
  if (c == nullptr || c->finite != 0 || !c->dirty.empty()) {
    // Promoted or already-seeded row: replay the dense sequence.
    return replay_ia(row(i), src, touched, dist, hop);
  }
  // Fresh cold row: encode the sweep result directly — the cold form is
  // the same whether built here or via a dense round-trip (ascending
  // columns, identical aggregates, dirty = reached columns).
  std::vector<VertexId> cols(touched);
  if (std::find(cols.begin(), cols.end(), src) == cols.end()) {
    cols.push_back(src);
  }
  std::sort(cols.begin(), cols.end());
  AACC_DCHECK(c->self == src);
  ColdRowWriter w(*c, cols.size());
  c->dirty.clear();
  for (const VertexId t : cols) {
    w.add(t, dist[t], hop[t]);
    if (t != src) c->dirty.append(t);
  }
  w.finish();
  c->dirty.shrink_to_fit();
  return c->finite;
}

void TieredDvStore::put_restored(std::size_t i, VertexId self,
                                 std::vector<Dist> d, std::vector<VertexId> nh,
                                 std::vector<VertexId> dirty) {
  Slot& s = slots_[i];
  s.release_hot();
  s.cold = std::make_unique<ColdDvRow>(
      encode_cold_row(self, d, nh, std::move(dirty)));
}

void TieredDvStore::maintain(const std::vector<std::uint8_t>& is_boundary) {
  struct Cand {
    std::uint64_t key;  // (boundary, last-touch epoch, index): demote-first order
    std::size_t i;
    std::size_t bytes;
  };
  std::vector<Cand> hot;
  std::uint64_t resident = 0;
  std::uint64_t cold = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (const DvRow* p = s.hot.load(std::memory_order_relaxed)) {
      const std::size_t bytes = p->footprint_bytes();
      resident += bytes;
      const std::uint64_t boundary =
          i < is_boundary.size() && is_boundary[i] != 0 ? 1 : 0;
      hot.push_back({(boundary << 63) |
                         (static_cast<std::uint64_t>(
                              s.touch.load(std::memory_order_relaxed))
                          << 31) |
                         static_cast<std::uint64_t>(i),
                     i, bytes});
    } else {
      cold += s.cold->bytes();
    }
  }
  const std::uint64_t hot_peak = resident;  // this step's, pre-demotion
  std::vector<std::unique_ptr<DvRow>> demoted_rows;
  if (resident > budget_bytes_) {
    std::sort(hot.begin(), hot.end(),
              [](const Cand& a, const Cand& b) { return a.key < b.key; });
    demoted_rows.reserve(hot.size());  // the hand-over below cannot throw
    for (const Cand& cand : hot) {
      if (resident <= budget_bytes_) break;
      Slot& s = slots_[cand.i];
      DvRow* p = s.hot.load(std::memory_order_relaxed);
      auto demoted = std::make_unique<ColdDvRow>(encode_cold_row(*p));
      cold += demoted->bytes();
      resident -= cand.bytes;
      s.cold = std::move(demoted);
      demoted_rows.emplace_back(p);
      s.hot.store(nullptr, std::memory_order_relaxed);
      ++demotions_;
    }
  }
  resident_bytes_ = resident;
  cold_bytes_ = cold;
  keep_spares(hot_peak, std::move(demoted_rows));
  ++epoch_;
}

}  // namespace aacc
