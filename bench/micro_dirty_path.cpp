// Micro benchmark for the sparse dirty-set hot path (see DESIGN.md):
//
//   1. Send assembly: the seed scanned every column of every local row per
//      RC step (O(local_rows × n)); the sparse path walks only the dirty
//      list (O(dirty log dirty)). Measured head-to-head on one 50k-column
//      row at several dirty-set sizes.
//   2. Wire format: the seed's fixed-width (v1) DV records vs v2
//      delta/varint records, encoded bytes for the same entry sets.
//
// Prints a table and writes AACC_OUT_DIR/micro_dirty_path.json
// (schema: EXPERIMENTS.md). Knobs: AACC_N (columns, default 50000),
// AACC_SEED.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/dv_matrix.hpp"
#include "runtime/serialize.hpp"

namespace {

using namespace aacc;

volatile std::uint64_t g_sink = 0;  // defeats dead-code elimination

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs fn() repeatedly until ~80ms have elapsed; returns ns per call.
template <typename Fn>
double time_ns(Fn&& fn) {
  // Warm-up.
  for (int i = 0; i < 3; ++i) fn();
  std::size_t iters = 1;
  for (;;) {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double dt = now_seconds() - t0;
    if (dt >= 0.08) return dt * 1e9 / static_cast<double>(iters);
    iters = (dt <= 0.0) ? iters * 16
                        : static_cast<std::size_t>(
                              static_cast<double>(iters) * (0.1 / dt)) +
                              1;
  }
}

/// A row with k dirty entries at pseudo-random finite columns.
DvRow make_row(VertexId n, std::size_t k, std::uint64_t seed) {
  DvRow row(0, n);
  Rng rng(seed);
  std::size_t marked = 0;
  while (marked < k) {
    const auto t = static_cast<VertexId>(1 + rng.next_below(n - 1));
    row.set(t, static_cast<Dist>(1 + rng.next_below(200)), 1);
    if (row.mark_dirty(t)) ++marked;
  }
  return row;
}

/// The seed's send assembly: full column scan, fixed-width v1 payload
/// (u8 version 1, u32 vid, u32 count, count × (u32 target, u32 dist)).
std::vector<std::byte> assemble_dense(const DvRow& row) {
  rt::ByteWriter w;
  w.write(std::uint8_t{1});
  w.write(row.self());
  std::uint32_t count = 0;
  const std::size_t count_pos = w.size();
  w.write(count);
  for (VertexId t = 0; t < row.size(); ++t) {
    if (row.test_flag(t, DvRow::kDirty)) {
      w.write(t);
      w.write(row.dist(t));
      ++count;
    }
  }
  auto bytes = w.take();
  std::memcpy(bytes.data() + count_pos, &count, sizeof(count));
  return bytes;
}

/// The sparse send assembly, as exchange() runs it.
std::vector<std::byte> assemble_sparse(const DvRow& row,
                                       std::vector<VertexId>& dirty,
                                       std::vector<std::pair<VertexId, Dist>>& entries) {
  row.sorted_dirty(dirty);
  entries.clear();
  entries.reserve(dirty.size());
  for (const VertexId t : dirty) entries.emplace_back(t, row.dist(t));
  rt::ByteWriter w;
  rt::write_dv_record(w, row.self(), entries);
  return w.take();
}

struct Case {
  std::size_t dirty;
  double dense_ns;
  double sparse_ns;
  double speedup;
  std::size_t v1_bytes;
  std::size_t v2_bytes;
  double bytes_ratio;
};

}  // namespace

int main() {
  const auto n = static_cast<VertexId>(env_int("AACC_N", 50000));
  const auto seed = static_cast<std::uint64_t>(env_int("AACC_SEED", 1));

  std::vector<Case> cases;
  for (const std::size_t k : {std::size_t{64}, std::size_t{1024},
                              std::size_t{8192}}) {
    if (k >= n) {
      std::fprintf(stderr, "skipping dirty=%zu: exceeds AACC_N=%u columns\n",
                   k, n);
      continue;
    }
    const DvRow row = make_row(n, k, seed);
    std::vector<VertexId> dirty;
    std::vector<std::pair<VertexId, Dist>> entries;

    Case c;
    c.dirty = k;
    c.dense_ns = time_ns([&] { g_sink += assemble_dense(row).size(); });
    c.sparse_ns = time_ns(
        [&] { g_sink += assemble_sparse(row, dirty, entries).size(); });
    c.speedup = c.dense_ns / c.sparse_ns;
    c.v1_bytes = assemble_dense(row).size();
    c.v2_bytes = assemble_sparse(row, dirty, entries).size();
    c.bytes_ratio =
        static_cast<double>(c.v2_bytes) / static_cast<double>(c.v1_bytes);
    cases.push_back(c);
  }

  std::printf("\n== micro_dirty_path (n=%u columns) ==\n", n);
  std::printf("%8s %14s %14s %9s %10s %10s %8s\n", "dirty", "dense_ns",
              "sparse_ns", "speedup", "v1_bytes", "v2_bytes", "v2/v1");
  for (const Case& c : cases) {
    std::printf("%8zu %14.0f %14.0f %8.1fx %10zu %10zu %8.3f\n", c.dirty,
                c.dense_ns, c.sparse_ns, c.speedup, c.v1_bytes, c.v2_bytes,
                c.bytes_ratio);
  }

  const std::string dir = env_str("AACC_OUT_DIR", "/tmp/aacc_bench");
  (void)std::system(("mkdir -p " + dir).c_str());
  std::ofstream json(dir + "/micro_dirty_path.json");
  json << "{\"bench\":\"micro_dirty_path\",\"columns\":" << n << ",\"cases\":[";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    if (i != 0) json << ',';
    json << "{\"dirty\":" << c.dirty << ",\"dense_assembly_ns\":" << c.dense_ns
         << ",\"sparse_assembly_ns\":" << c.sparse_ns
         << ",\"speedup\":" << c.speedup << ",\"v1_bytes\":" << c.v1_bytes
         << ",\"v2_bytes\":" << c.v2_bytes
         << ",\"v2_over_v1\":" << c.bytes_ratio << '}';
  }
  json << "]}\n";
  std::printf("[json] %s/micro_dirty_path.json\n", dir.c_str());
  return 0;
}
