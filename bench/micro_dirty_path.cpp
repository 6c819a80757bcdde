// Micro benchmark for the sparse dirty-set hot path (see DESIGN.md):
//
//   1. Send assembly: the seed scanned every column of every local row per
//      RC step (O(local_rows × n)); the sparse path filters and sorts only
//      the dirty list (O(dirty log dirty)); the scan path builds the same
//      ascending list from the flag bytes (O(n), eight columns per word);
//      the hybrid path is DvRow::sorted_dirty, which reads the list until
//      it passes its cap of n / kScanDensityInverse ids and scans after.
//      Measured head-to-head on one 50k-column row from 0.1% to 100%
//      dirty; the sparse path exists only up to the cap, so above it the
//      sweep reports null.
//   2. Wire format: the seed's fixed-width (v1) DV records vs v2
//      delta/varint records, encoded bytes for the same entry sets.
//
// Prints a table and writes AACC_OUT_DIR/micro_dirty_path.json
// (schema: EXPERIMENTS.md). Knobs: AACC_N (columns, default 50000),
// AACC_SEED.
#include <algorithm>
#include <chrono>
#include <cmath>
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
void sink(std::uint64_t v) { g_sink = g_sink + v; }

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

/// A row with k dirty entries at pseudo-random finite columns (k ≤ n - 1:
/// column 0 is the row's own vertex), marked in random order as relaxation
/// marks them.
DvRow make_row(VertexId n, std::size_t k, std::uint64_t seed) {
  DvRow row(0, n);
  Rng rng(seed);
  std::vector<VertexId> cols(n - 1);
  for (VertexId t = 1; t < n; ++t) cols[t - 1] = t;
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(cols[i], cols[i + rng.next_below(cols.size() - i)]);
    const VertexId t = cols[i];
    row.set(t, static_cast<Dist>(1 + rng.next_below(200)), 1);
    (void)row.mark_dirty(t);
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

/// The v2 send assembly as send_round() runs it, with the ascending dirty
/// columns collected by `collect` (one of DvRow's dirty-list methods).
template <typename Collect>
std::vector<std::byte> assemble_v2(const DvRow& row, Collect collect,
                                   std::vector<VertexId>& dirty,
                                   std::vector<std::pair<VertexId, Dist>>& entries) {
  collect(row, dirty);
  entries.clear();
  entries.reserve(dirty.size());
  for (const VertexId t : dirty) entries.emplace_back(t, row.dist(t));
  rt::ByteWriter w;
  rt::write_dv_record(w, row.self(), entries);
  return w.take();
}

struct Case {
  std::size_t dirty;
  double density;
  double dense_ns;
  double sparse_ns;  ///< < 0: the row's list overflowed (no list path)
  double scan_ns;
  double hybrid_ns;
  double speedup;  ///< dense / hybrid
  std::size_t v1_bytes;
  std::size_t v2_bytes;
  double bytes_ratio;
};

}  // namespace

int main() {
  const auto n = static_cast<VertexId>(env_int("AACC_N", 50000));
  const auto seed = static_cast<std::uint64_t>(env_int("AACC_SEED", 1));

  const auto sparse = [](const DvRow& r, std::vector<VertexId>& out) {
    r.sort_dirty_list(out);
  };
  const auto scan = [](const DvRow& r, std::vector<VertexId>& out) {
    r.scan_dirty(out);
  };
  const auto hybrid = [](const DvRow& r, std::vector<VertexId>& out) {
    r.sorted_dirty(out);
  };

  std::vector<Case> cases;
  for (const double frac : {0.00128, 0.005, 0.01, 0.0156, 0.02048, 0.03, 0.04,
                            0.06, 0.08, 0.16384, 0.5, 1.0}) {
    const auto k = std::min<std::size_t>(
        static_cast<std::size_t>(frac * n + 0.5), n - 1);
    if (k == 0) continue;
    const DvRow row = make_row(n, k, seed);
    std::vector<VertexId> dirty;
    std::vector<std::pair<VertexId, Dist>> entries;
    const auto time_v2 = [&](auto collect) {
      return time_ns([&] {
        sink(assemble_v2(row, collect, dirty, entries).size());
      });
    };

    Case c;
    c.dirty = k;
    c.density = static_cast<double>(k) / n;
    c.dense_ns = time_ns([&] { sink(assemble_dense(row).size()); });
    const bool has_list = !row.dirty_list_overflowed();
    c.sparse_ns = has_list ? time_v2(sparse) : -1.0;
    c.scan_ns = time_v2(scan);
    c.hybrid_ns = time_v2(hybrid);
    c.speedup = c.dense_ns / c.hybrid_ns;
    c.v1_bytes = assemble_dense(row).size();
    c.v2_bytes = assemble_v2(row, hybrid, dirty, entries).size();
    if ((has_list &&
         assemble_v2(row, sparse, dirty, entries).size() != c.v2_bytes) ||
        assemble_v2(row, scan, dirty, entries).size() != c.v2_bytes) {
      std::fprintf(stderr, "dirty=%zu: collection methods disagree\n", k);
      return 1;
    }
    c.bytes_ratio =
        static_cast<double>(c.v2_bytes) / static_cast<double>(c.v1_bytes);
    cases.push_back(c);
  }

  std::printf("\n== micro_dirty_path (n=%u columns, list cap n/%zu) ==\n",
              n, DvRow::kScanDensityInverse);
  std::printf("%8s %8s %11s %11s %11s %11s %8s %8s %8s %6s\n", "dirty",
              "density", "dense_ns", "sparse_ns", "scan_ns", "hybrid_ns",
              "speedup", "v1_bytes", "v2_bytes", "v2/v1");
  for (const Case& c : cases) {
    const std::string sparse_ns =
        c.sparse_ns < 0 ? "-" : std::to_string(std::lround(c.sparse_ns));
    std::printf("%8zu %7.2f%% %11.0f %11s %11.0f %11.0f %7.1fx %8zu %8zu %6.3f\n",
                c.dirty, 100.0 * c.density, c.dense_ns, sparse_ns.c_str(),
                c.scan_ns, c.hybrid_ns, c.speedup, c.v1_bytes, c.v2_bytes,
                c.bytes_ratio);
  }

  const std::string dir = env_str("AACC_OUT_DIR", "/tmp/aacc_bench");
  (void)std::system(("mkdir -p " + dir).c_str());
  std::ofstream json(dir + "/micro_dirty_path.json");
  json << "{\"bench\":\"micro_dirty_path\",\"columns\":" << n
       << ",\"scan_density_inverse\":" << DvRow::kScanDensityInverse
       << ",\"cases\":[";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    if (i != 0) json << ',';
    json << "{\"dirty\":" << c.dirty << ",\"density\":" << c.density
         << ",\"dense_assembly_ns\":" << c.dense_ns
         << ",\"sparse_assembly_ns\":";
    if (c.sparse_ns < 0) {
      json << "null";
    } else {
      json << c.sparse_ns;
    }
    json << ",\"scan_assembly_ns\":" << c.scan_ns
         << ",\"hybrid_assembly_ns\":" << c.hybrid_ns
         << ",\"speedup\":" << c.speedup << ",\"v1_bytes\":" << c.v1_bytes
         << ",\"v2_bytes\":" << c.v2_bytes
         << ",\"v2_over_v1\":" << c.bytes_ratio << '}';
  }
  json << "]}\n";
  std::printf("[json] %s/micro_dirty_path.json\n", dir.c_str());
  return 0;
}
