// Anytime query serving under churn (M9): sustained queries/sec against
// the double-buffered snapshots while an E1-style edge-addition stream
// drains through a live EngineSession. Readers never block the drain —
// publication is one atomic pointer swap — so the sustained rate is a
// direct measure of the snapshot read path.
//
// Sections:
//   1. single rank, 2 query threads of point lookups during ingest
//      (gate: >= 100k queries/sec sustained)
//   2. P ranks (default 4): the same churn, plus merged top-k / rank-of
//      latencies after close
//
// Output: micro_serve.json under AACC_OUT_DIR. `seconds_per_query` is the
// bench_diff-gated metric (lower is better; bench_diff gates increases).
#include <atomic>
#include <set>
#include <thread>
#include <utility>

#include "bench_util.hpp"
#include "serve/session.hpp"

namespace {

using namespace aacc;

struct ServeCase {
  Rank ranks = 1;
  double wall_seconds = 0;       // query measurement window
  std::uint64_t queries = 0;     // answered inside that window
  double qps = 0;
  double seconds_per_query = 0;
  double p99_query_seconds = 0;  // point-query p99 from the serve SLO histogram
  std::uint64_t publishes = 0;
  std::size_t rc_steps = 0;
  double topk_us = 0;            // post-close merged top-64 latency
  double rankof_us = 0;          // post-close rank-of latency
};

/// Feeds `batches` batches of unique random edges, then returns. Unique
/// because a duplicate add is a schedule error (apply_event asserts).
void feed_churn(serve::EngineSession& session, const Graph& g, VertexId n,
                int batches, std::size_t per_batch, std::uint64_t seed) {
  std::set<std::pair<VertexId, VertexId>> present;
  for (const auto& [u, v, w] : g.edges()) {
    (void)w;
    present.emplace(std::min(u, v), std::max(u, v));
  }
  Rng rng(seed);
  for (int b = 0; b < batches; ++b) {
    std::vector<Event> batch;
    while (batch.size() < per_batch) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      const auto v = static_cast<VertexId>(rng.next_below(n));
      if (u == v) continue;
      const auto key = std::make_pair(std::min(u, v), std::max(u, v));
      if (!present.insert(key).second) continue;
      batch.emplace_back(EdgeAddEvent{u, v, 1});
    }
    try {
      session.ingest(std::move(batch));
    } catch (const std::exception&) {
      return;  // session ended first (short run on a fast box)
    }
  }
}

ServeCase run_case(const bench::Scale& s, Rank ranks, int batches,
                   std::size_t per_batch) {
  Rng rng(s.seed);
  const Graph g = barabasi_albert(s.n, 2, rng);

  EngineConfig cfg;
  cfg.num_ranks = ranks;
  cfg.seed = s.seed;
  cfg.publish_every = 1;
  serve::EngineSession session(g, cfg);
  const serve::QueryView view = session.view();

  std::thread feeder([&session, &g, &s, batches, per_batch] {
    feed_churn(session, g, s.n, batches, per_batch, s.seed + 17);
  });

  // Wait for the first publish so the measured window only contains real
  // answers, then hammer point lookups from two threads while the churn
  // drains.
  while (view.top_k(1).entries.empty()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  const auto reader = [&view, &stop, &answered, n = s.n](std::uint64_t seed) {
    Rng qr(seed);
    std::uint64_t local = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto v = static_cast<VertexId>(qr.next_below(n));
      const auto r = view.point(v);
      (void)r;
      ++local;
    }
    answered.fetch_add(local, std::memory_order_relaxed);
  };
  Timer window;
  std::thread q1(reader, s.seed + 101);
  std::thread q2(reader, s.seed + 202);

  feeder.join();
  const RunResult r = session.close();
  const double elapsed = window.seconds();
  stop.store(true);
  q1.join();
  q2.join();

  ServeCase c;
  c.ranks = ranks;
  c.wall_seconds = elapsed;
  c.queries = answered.load();
  c.qps = static_cast<double>(c.queries) / elapsed;
  c.seconds_per_query = elapsed / static_cast<double>(std::max<std::uint64_t>(c.queries, 1));
  // Tail latency from the lock-free serve SLO histogram (every point query
  // of the run, not just the measured window; docs/OBSERVABILITY.md §Serve
  // latency SLOs). bench_diff-gated alongside seconds_per_query.
  c.p99_query_seconds = obs::histogram_quantile(session.slo().point, 0.99) / 1e9;
  c.publishes = r.metrics.counter_value("serve/publishes");
  c.rc_steps = r.stats.rc_steps;

  // Post-close merged-query latencies (exact final state, age 0).
  const int reps = 2000;
  Timer tk;
  for (int i = 0; i < reps; ++i) (void)view.top_k(64);
  c.topk_us = 1e6 * tk.seconds() / reps;
  Rng rr(s.seed + 303);
  Timer tr;
  for (int i = 0; i < reps; ++i) {
    (void)view.rank_of(static_cast<VertexId>(rr.next_below(s.n)));
  }
  c.rankof_us = 1e6 * tr.seconds() / reps;
  return c;
}

}  // namespace

int main() {
  using namespace aacc;
  const bench::Scale s = bench::read_scale(/*default_n=*/4000);
  const int batches = static_cast<int>(bench::scaled(24, s));
  const std::size_t per_batch = bench::scaled(64, s);
  const Rank p = static_cast<Rank>(std::min<int>(s.p, 4));

  std::printf("== micro_serve (n=%u, %d batches x %zu adds, 2 query threads) "
              "==\n",
              s.n, batches, per_batch);
  std::printf("%6s %10s %14s %14s %11s %9s %9s %10s %11s\n", "ranks", "wall_s",
              "queries", "queries/s", "us/query", "p99_us", "publishes",
              "topk_us", "rankof_us");

  std::vector<ServeCase> cases;
  cases.push_back(run_case(s, 1, batches, per_batch));
  cases.push_back(run_case(s, p, batches, per_batch));
  for (const ServeCase& c : cases) {
    std::printf("%6d %10.3f %14llu %14.0f %11.4f %9.2f %9llu %10.2f %11.2f\n",
                c.ranks, c.wall_seconds,
                static_cast<unsigned long long>(c.queries), c.qps,
                1e6 * c.seconds_per_query, 1e6 * c.p99_query_seconds,
                static_cast<unsigned long long>(c.publishes), c.topk_us,
                c.rankof_us);
  }

  // Acceptance gate (ISSUE: anytime query serving PR): a single-rank
  // session must sustain >= 100k point queries/sec while ingesting.
  const double gate_qps = cases[0].qps;
  std::printf("\ngate: single-rank sustained rate %.0f queries/s "
              "(need 100000)\n",
              gate_qps);
  if (gate_qps < 100000.0) {
    std::fprintf(stderr, "FATAL: %.0f queries/s < 100k gate\n", gate_qps);
    return 1;
  }

  const std::string dir = env_str("AACC_OUT_DIR", "/tmp/aacc_bench");
  (void)std::system(("mkdir -p " + dir).c_str());
  std::ofstream json(dir + "/micro_serve.json");
  json << "{\"bench\":\"micro_serve\",\"vertices\":" << s.n
       << ",\"batches\":" << batches << ",\"per_batch\":" << per_batch
       << ",\"cases\":[";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ServeCase& c = cases[i];
    if (i != 0) json << ',';
    json << "{\"ranks\":" << static_cast<int>(c.ranks)
         << ",\"wall_seconds\":" << c.wall_seconds
         << ",\"queries\":" << c.queries << ",\"queries_per_sec\":" << c.qps
         << ",\"seconds_per_query\":" << c.seconds_per_query
         << ",\"p99_query_seconds\":" << c.p99_query_seconds
         << ",\"publishes\":" << c.publishes << ",\"rc_steps\":" << c.rc_steps
         << ",\"topk_us\":" << c.topk_us << ",\"rankof_us\":" << c.rankof_us
         << '}';
  }
  json << "],\"gate_qps_p1\":" << gate_qps << "}\n";
  std::printf("[json] %s/micro_serve.json\n", dir.c_str());
  return 0;
}
