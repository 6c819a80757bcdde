// Micro benchmark for the hardened transport (docs/FAULTS.md):
//
//   1. End-to-end engine runs under three transports — the raw PR 1 path
//      (reliable off), checksummed frames (reliable on, no faults), and
//      frames under an injected drop/duplicate/delay/corrupt storm. Reports
//      bytes_sent, the frame-header share of it, retransmits, and the
//      modeled LogGP network time, plus the overhead ratios vs the raw
//      path. Results must be bit-identical across all three.
//   2. Rollback MTTR: a rank dies after a heavy mutation batch; the rollback
//      rung's recovery time, min of repeats, with the result still
//      bit-identical to the fault-free run.
//   3. CRC32 throughput for the checksum the frame codec runs per payload.
//
// Prints a table and writes AACC_OUT_DIR/micro_faults.json
// (schema: EXPERIMENTS.md). Knobs: AACC_N (vertices, default 600),
// AACC_P (ranks, default 4), AACC_SEED.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
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

struct Case {
  std::string label;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t retransmits = 0;
  double net_seconds = 0.0;
  double bytes_ratio = 1.0;  // vs the raw transport
  double net_ratio = 1.0;
  std::string stats_json;  // canonical RunStats::to_json (EXPERIMENTS.md)
};

Case run_case(const std::string& label, const Graph& g,
              const EngineConfig& cfg, const std::vector<double>& baseline) {
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  if (!baseline.empty() && r.closeness != baseline) {
    std::fprintf(stderr, "FATAL: %s changed the result\n", label.c_str());
    std::exit(1);
  }
  Case c;
  c.label = label;
  c.bytes = r.stats.total_bytes;
  c.messages = r.stats.total_messages;
  c.frame_bytes = r.stats.frame_overhead_bytes;
  c.retransmits = r.stats.retransmits;
  c.net_seconds = r.stats.modeled_network_seconds_serialized;
  c.stats_json = r.stats.to_json(/*include_steps=*/false);
  return c;
}

}  // namespace

int main() {
  const auto n = static_cast<VertexId>(env_int("AACC_N", 600));
  const auto p = static_cast<Rank>(env_int("AACC_P", 4));
  const auto seed = static_cast<std::uint64_t>(env_int("AACC_SEED", 1));

  Rng rng(seed);
  const Graph g = barabasi_albert(n, 2, rng);

  EngineConfig raw;
  raw.num_ranks = p;

  EngineConfig framed = raw;
  framed.transport.reliable = true;

  EngineConfig stormy = framed;
  stormy.transport.retry_backoff = std::chrono::microseconds(1);
  stormy.faults.seed = seed;
  stormy.faults.drop = 0.05;
  stormy.faults.duplicate = 0.02;
  stormy.faults.delay = 0.05;
  stormy.faults.corrupt = 0.05;

  std::vector<Case> cases;
  {
    AnytimeEngine engine(g, raw);
    const RunResult r = engine.run();
    Case c;
    c.label = "raw";
    c.bytes = r.stats.total_bytes;
    c.messages = r.stats.total_messages;
    c.net_seconds = r.stats.modeled_network_seconds_serialized;
    c.stats_json = r.stats.to_json(/*include_steps=*/false);
    cases.push_back(c);
    cases.push_back(run_case("framed", g, framed, r.closeness));
    cases.push_back(run_case("faulted", g, stormy, r.closeness));
  }
  for (Case& c : cases) {
    c.bytes_ratio =
        static_cast<double>(c.bytes) / static_cast<double>(cases[0].bytes);
    c.net_ratio = c.net_seconds / cases[0].net_seconds;
  }

  std::printf("\n== micro_faults (n=%u, P=%d) — identical results ==\n", n, p);
  std::printf("%9s %12s %10s %12s %8s %12s %8s %8s\n", "case", "bytes",
              "messages", "frame_bytes", "retx", "net_s", "B/B0", "t/t0");
  for (const Case& c : cases) {
    std::printf("%9s %12llu %10llu %12llu %8llu %12.6f %8.4f %8.4f\n",
                c.label.c_str(), static_cast<unsigned long long>(c.bytes),
                static_cast<unsigned long long>(c.messages),
                static_cast<unsigned long long>(c.frame_bytes),
                static_cast<unsigned long long>(c.retransmits), c.net_seconds,
                c.bytes_ratio, c.net_ratio);
  }

  // ---- MTTR: wall-clock seconds from the death declaration to the first
  // completed post-recovery RC step (RunStats::recovery_log, docs/FAULTS.md
  // §Recovery timing). A heavy mutation batch lands after the newest
  // snapshot, then a rank dies: the rollback rung drags every rank back to
  // the pre-batch snapshot and re-ingests and re-settles the whole batch.
  // It must still land on the fault-free values (value exactness is the
  // ladder's contract); min of repeats (noise is strictly additive).
  const Rank victim = 1;
  EventSchedule sched;
  {
    // A growth + churn batch at step 5, sized to dominate a replay: new
    // vertices ripple a distance column into every row, deletions poison
    // and re-derive transitively.
    EventBatch heavy;
    heavy.at_step = 5;
    Rng erng(seed + 1);
    const VertexId base = g.num_vertices();
    const auto grow = static_cast<VertexId>(std::max<long>(1, n / 5));
    for (VertexId i = 0; i < grow; ++i) {
      VertexAddEvent va;
      va.id = base + i;
      const VertexId span = base + i;
      const VertexId a = erng.next_below(span);
      VertexId b = erng.next_below(span);
      if (b == a) b = (b + 1) % span;
      va.edges.emplace_back(a, Weight{1});
      if (b != a) va.edges.emplace_back(b, Weight{1});
      heavy.events.push_back(std::move(va));
    }
    const auto edges = g.edges();
    std::vector<bool> picked(edges.size(), false);
    for (int i = 0; i < 40 && !edges.empty(); ++i) {
      const std::size_t e = erng.next_below(edges.size());
      if (picked[e]) continue;
      picked[e] = true;
      const auto& [u, v, w] = edges[e];
      (void)w;
      heavy.events.push_back(EdgeDeleteEvent{u, v});
    }
    sched.push_back(std::move(heavy));
  }
  std::vector<double> baseline;
  std::size_t steps = 0;
  {
    AnytimeEngine engine(g, framed);
    const RunResult r = engine.run(sched);
    baseline = r.closeness;
    steps = r.stats.rc_steps;
  }
  // Snapshot cadence 4 and a crash at the top of step 7: the newest
  // completed snapshot is step 4 (pre-batch), so the rollback replay
  // window spans the step-5 heavy ingest, its settling, and step 6.
  const std::size_t late = std::min(steps - 1, std::size_t{7});
  constexpr int kRepeats = 5;
  double rollback_seconds = 0.0;
  std::size_t rollback_at_step = 0;
  {
    EngineConfig cfg = framed;
    cfg.recovery_policy = {{RecoveryPolicy::kRollback, 0}};
    cfg.checkpoint_every = 4;
    cfg.transport.retry_backoff = std::chrono::microseconds(1);
    cfg.faults.crashes.push_back({victim, late, rt::CrashPhase::kStepStart});
    std::vector<double> samples;
    for (int rep = 0; rep < kRepeats; ++rep) {
      AnytimeEngine engine(g, cfg);
      const RunResult r = engine.run(sched);
      if (r.stats.recovery_log.size() != 1 ||
          r.stats.recovery_log[0].kind != "rollback" ||
          r.stats.recovery_log[0].mttr_seconds <= 0.0) {
        std::fprintf(stderr, "FATAL: rollback recovery did not engage\n");
        return 1;
      }
      if (r.closeness != baseline) {
        std::fprintf(stderr, "FATAL: rollback recovery changed the result\n");
        return 1;
      }
      samples.push_back(r.stats.recovery_log[0].mttr_seconds);
      rollback_at_step = r.stats.recovery_log[0].at_step;
    }
    // Min, not median: wall-clock interference is strictly additive, so
    // the fastest repeat is the closest estimate of the recovery's own
    // cost -- and the most stable statistic a noisy CI runner can produce.
    rollback_seconds = *std::min_element(samples.begin(), samples.end());
  }
  std::printf("mttr (crash at step %zu of %zu, min of %d): rollback=%.3fms\n",
              late, steps, kRepeats, 1e3 * rollback_seconds);

  // CRC32 throughput: the per-payload cost the framed path adds twice
  // (once at the sender, once at admission).
  std::vector<std::size_t> crc_sizes{4096, 65536};
  std::vector<double> crc_gbps;
  for (const std::size_t sz : crc_sizes) {
    std::vector<std::byte> buf(sz);
    for (std::size_t i = 0; i < sz; ++i) {
      buf[i] = static_cast<std::byte>(i * 131 + 7);
    }
    const double ns = time_ns([&] { g_sink = g_sink + rt::crc32(buf); });
    crc_gbps.push_back(static_cast<double>(sz) / ns);  // bytes/ns == GB/s
  }
  std::printf("crc32 throughput: ");
  for (std::size_t i = 0; i < crc_sizes.size(); ++i) {
    std::printf("%zuKiB=%.2fGB/s ", crc_sizes[i] / 1024, crc_gbps[i]);
  }
  std::printf("\n");

  const std::string dir = env_str("AACC_OUT_DIR", "/tmp/aacc_bench");
  (void)std::system(("mkdir -p " + dir).c_str());
  std::ofstream json(dir + "/micro_faults.json");
  json << "{\"bench\":\"micro_faults\",\"n\":" << n << ",\"p\":" << p
       << ",\"cases\":[";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    if (i != 0) json << ',';
    json << "{\"label\":\"" << c.label << "\",\"bytes\":" << c.bytes
         << ",\"messages\":" << c.messages
         << ",\"frame_overhead_bytes\":" << c.frame_bytes
         << ",\"retransmits\":" << c.retransmits
         << ",\"modeled_network_seconds\":" << c.net_seconds
         << ",\"bytes_over_raw\":" << c.bytes_ratio
         << ",\"net_over_raw\":" << c.net_ratio;
    if (!c.stats_json.empty()) json << ",\"stats\":" << c.stats_json;
    json << '}';
  }
  json << "],\"mttr\":{\"crash_step\":" << late << ",\"rc_steps\":" << steps
       << ",\"repeats\":" << kRepeats
       << ",\"rollback_seconds\":" << rollback_seconds
       << ",\"rollback_at_step\":" << rollback_at_step;
  json << "},\"crc32\":[";
  for (std::size_t i = 0; i < crc_sizes.size(); ++i) {
    if (i != 0) json << ',';
    json << "{\"bytes\":" << crc_sizes[i] << ",\"gbps\":" << crc_gbps[i]
         << '}';
  }
  json << "]}\n";
  std::printf("[json] %s/micro_faults.json\n", dir.c_str());
  return 0;
}
