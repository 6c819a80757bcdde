// aacc — command-line front end.
//
//   aacc generate <ba|er|ws|rmat|grid|planted> [options] --out FILE
//   aacc info <graph-file>
//   aacc partition <graph-file> --parts K [--kind multilevel|bfs|hash|block|rr]
//   aacc analyze <graph-file> [--ranks N] [--top K] [--measure M] [--exact]
//   aacc run <graph-file> [--ranks N] [--events FILE] [--progress] [--top-k K]
//   aacc serve <graph-file> [--ranks N] [--mutations FILE] [--batch N]
//   aacc tail <events.ndjson>
//
// Graph files: .txt/.edges (edge list), .graph (METIS), .net (Pajek).
// `analyze` runs the distributed anytime anywhere engine;
// `--exact` cross-checks against the sequential reference. `run` streams the
// live anytime-progress feed (docs/OBSERVABILITY.md §Progress events) and
// `tail` replays a recorded NDJSON feed through the same renderer. `serve`
// opens a live EngineSession: NDJSON mutations stream in from --mutations
// while point/topk/rankof queries typed on stdin are answered from the
// published snapshots (docs/API.md §"Serving sessions").
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "aacc/aacc.hpp"
#include "graph/metrics.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace aacc;

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  [[nodiscard]] long get_int(const std::string& key, long fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : std::stol(it->second);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return flags.count(key) != 0;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const std::string key = a.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.flags.insert_or_assign(key, std::string(argv[++i]));
      } else {
        args.flags.insert_or_assign(key, std::string("1"));
      }
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  aacc generate <ba|er|ws|rmat|grid|planted> --n N [--m M] "
               "[--seed S] [--wmax W] --out FILE\n"
               "  aacc info <graph-file>\n"
               "  aacc partition <graph-file> --parts K [--kind KIND] [--seed S]\n"
               "  aacc analyze <graph-file> [--ranks N] [--top K] [--seed S]\n"
               "       [--measure closeness|harmonic] [--exact]\n"
               "       [--stats-json FILE] [--trace FILE] "
               "[--dv-budget BYTES|auto]\n"
               "       [--recovery-policy LADDER] [--checkpoint-every N]\n"
               "  aacc run <graph-file> [--ranks N] [--seed S] [--top-k K]\n"
               "       [--events FILE] [--progress] [--trace FILE]\n"
               "       [--dv-budget BYTES|auto]\n"
               "       [--recovery-policy LADDER] [--checkpoint-every N]\n"
               "  aacc serve <graph-file> [--ranks N] [--seed S] "
               "[--mutations FILE]\n"
               "       [--batch N] [--publish-every K] [--max-lag K] "
               "[--top-k K]\n"
               "       [--events FILE] [--recovery-policy LADDER] "
               "[--checkpoint-every N]\n"
               "  aacc tail <events.ndjson>\n"
               "\n"
               "serve reads NDJSON mutations ({\"op\":\"add_edge\",...};\n"
               "{\"op\":\"commit\"} flushes a batch, else every N lines) and\n"
               "answers queries from stdin: point V | topk K | rankof V |\n"
               "stats | quit. Every answer carries its publishing step, age\n"
               "in RC steps and the convergence estimators.\n"
               "\n"
               "LADDER is a comma list of recovery rungs tried in order when\n"
               "a rank dies (docs/FAULTS.md §Recovery policy ladder), each\n"
               "rollback|degrade with an optional :budget (uses per run,\n"
               "0 = unlimited), e.g. rollback:2,degrade.\n"
               "\n"
               "--dv-budget caps per-rank dense DV memory: rows over the\n"
               "budget are demoted to a delta-compressed cold form (results\n"
               "are bit-identical; DESIGN.md §Tiered DV storage). BYTES\n"
               "accepts a plain number or k/m/g suffix; `auto` targets a\n"
               "quarter of physical memory split across ranks; 0 (default)\n"
               "keeps every row dense.\n");
  return 2;
}

/// Parses `--recovery-policy rollback:2,degrade` into config rungs.
/// Throws std::runtime_error on an unknown rung name or malformed budget;
/// EngineConfig::validate() later rejects empty or repeated ladders.
void apply_recovery_policy(const std::string& spec, EngineConfig& cfg) {
  cfg.recovery_policy.clear();
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    std::string rung = spec.substr(pos, comma - pos);
    pos = comma + 1;
    std::size_t budget = 0;
    if (const std::size_t colon = rung.find(':'); colon != std::string::npos) {
      budget = static_cast<std::size_t>(std::stoul(rung.substr(colon + 1)));
      rung.resize(colon);
    }
    RecoveryPolicy policy;
    if (rung == "rollback") policy = RecoveryPolicy::kRollback;
    else if (rung == "degrade" || rung == "degraded") policy = RecoveryPolicy::kDegrade;
    else throw std::runtime_error("unknown recovery rung '" + rung +
                                  "' (want rollback|degrade)");
    cfg.recovery_policy.push_back({policy, budget});
  }
}

/// Parses `--dv-budget 64m` / `--dv-budget auto` into per-rank bytes.
/// `auto` targets a quarter of physical memory split evenly across ranks
/// (floored at kMinDvBudgetBytes); plain numbers take an optional k/m/g
/// suffix. Throws std::runtime_error on malformed input; the value itself
/// is still vetted by EngineConfig::validate().
std::uint64_t parse_dv_budget(const std::string& spec, Rank ranks) {
  if (spec == "auto") {
    const long pages = sysconf(_SC_PHYS_PAGES);
    const long page = sysconf(_SC_PAGE_SIZE);
    if (pages <= 0 || page <= 0) {
      throw std::runtime_error("--dv-budget auto: cannot query physical memory");
    }
    const std::uint64_t phys =
        static_cast<std::uint64_t>(pages) * static_cast<std::uint64_t>(page);
    return std::max<std::uint64_t>(
        phys / 4 / static_cast<std::uint64_t>(std::max(ranks, Rank{1})),
        kMinDvBudgetBytes);
  }
  std::size_t used = 0;
  const std::uint64_t value = std::stoull(spec, &used);
  std::uint64_t scale = 1;
  if (used < spec.size()) {
    if (used + 1 != spec.size()) {
      throw std::runtime_error("--dv-budget: malformed byte count '" + spec +
                               "' (want BYTES[k|m|g] or auto)");
    }
    switch (spec[used]) {
      case 'k': case 'K': scale = 1ull << 10; break;
      case 'm': case 'M': scale = 1ull << 20; break;
      case 'g': case 'G': scale = 1ull << 30; break;
      default:
        throw std::runtime_error("--dv-budget: unknown suffix '" +
                                 spec.substr(used) + "' (want k, m or g)");
    }
  }
  return value * scale;
}

/// Shared by `run` and `analyze`: the fault-tolerance knobs.
void apply_recovery_flags(const Args& args, EngineConfig& cfg) {
  if (args.has("recovery-policy")) {
    apply_recovery_policy(args.get("recovery-policy", ""), cfg);
  }
  if (args.has("checkpoint-every")) {
    cfg.checkpoint_every =
        static_cast<std::size_t>(args.get_int("checkpoint-every", 0));
  }
}

/// One line per progress event, shared by `run --progress` and `tail` so a
/// live run and a replayed feed look identical.
void render_event(const obs::ProgressEvent& ev) {
  if (ev.phase == "ia") {
    std::printf("[ia     ] step %-4zu settled %llu/%llu  dirty %.1f%%\n",
                ev.step, static_cast<unsigned long long>(ev.settled),
                static_cast<unsigned long long>(ev.columns),
                100.0 * ev.dirty_fraction);
  } else if (ev.phase == "rc_step") {
    std::printf(
        "[rc %4zu] dirty %5.1f%%  relax %-9llu poison %-7llu repair %-7llu",
        ev.step, 100.0 * ev.dirty_fraction,
        static_cast<unsigned long long>(ev.relaxations),
        static_cast<unsigned long long>(ev.poisons),
        static_cast<unsigned long long>(ev.repairs));
    if (ev.exchange_wait_seconds > 0) {
      std::printf("  xwait %6.2fms", 1e3 * ev.exchange_wait_seconds);
    }
    if (ev.dv_cold_bytes > 0 || ev.dv_demotions > 0) {
      std::printf("  dv %.1f/%.1fMB hot/cold  promo %llu",
                  static_cast<double>(ev.dv_resident_bytes) / 1e6,
                  static_cast<double>(ev.dv_cold_bytes) / 1e6,
                  static_cast<unsigned long long>(ev.dv_promotions));
    }
    if (ev.has_serve) {
      std::printf("  serve %lluq age %llu",
                  static_cast<unsigned long long>(ev.serve_queries),
                  static_cast<unsigned long long>(ev.snapshot_age_steps));
    }
    if (ev.has_estimators) {
      std::printf("  top-k overlap %.3f  tau %+.3f", ev.topk_overlap,
                  ev.kendall_tau);
    }
    std::printf("\n");
  } else if (ev.phase == "recovery") {
    std::printf("[recover] %s at step %zu (recovery #%llu)\n",
                ev.detail.c_str(), ev.step,
                static_cast<unsigned long long>(ev.recoveries));
  } else if (ev.phase == "done") {
    std::printf("[done   ] %zu rc steps  %llu bytes  %llu retransmits  "
                "%llu recoveries\n",
                ev.step, static_cast<unsigned long long>(ev.bytes),
                static_cast<unsigned long long>(ev.retransmits),
                static_cast<unsigned long long>(ev.recoveries));
    if (ev.has_estimators) {
      std::printf("          final vs last step: top-k overlap %.3f  "
                  "tau %+.3f\n",
                  ev.topk_overlap, ev.kendall_tau);
    }
  } else {
    std::printf("[%s] step %zu\n", ev.phase.c_str(), ev.step);
  }
  std::fflush(stdout);
}

int cmd_run(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const Graph g = load_graph(args.positional[1]);

  EngineConfig cfg;
  cfg.num_ranks = static_cast<Rank>(args.get_int("ranks", 8));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.progress.top_k = static_cast<std::size_t>(args.get_int("top-k", 32));
  if (args.has("dv-budget")) {
    cfg.dv_budget_bytes =
        parse_dv_budget(args.get("dv-budget", "0"), cfg.num_ranks);
  }
  apply_recovery_flags(args, cfg);
  if (args.has("events")) cfg.progress.path = args.get("events", "");
  if (args.has("trace")) {
    cfg.trace.enabled = true;
    cfg.trace.path = args.get("trace", "trace.json");
  }
  // Live rendering is the default purpose of `run`: render unless the user
  // asked only for a file feed.
  if (args.has("progress") || !args.has("events")) {
    cfg.progress.callback = render_event;
  }

  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  std::printf("engine: %d ranks\n%s\n", cfg.num_ranks, r.stats.summary().c_str());
  if (!cfg.progress.path.empty()) {
    std::printf("events: %s\n", cfg.progress.path.c_str());
  }
  if (cfg.trace.enabled) {
    std::printf("trace: %s (%zu events)\n", cfg.trace.path.c_str(),
                r.trace.events.size());
  }
  const auto best = top_k(r.harmonic, cfg.progress.top_k);
  std::printf("%-8s %-10s %s\n", "rank", "vertex", "harmonic");
  for (std::size_t i = 0; i < best.size() && i < 10; ++i) {
    std::printf("%-8zu %-10u %.6g\n", i + 1, best[i], r.harmonic[best[i]]);
  }
  return 0;
}

/// One-line staleness contract suffix shared by every serve answer.
void print_meta(const serve::ResponseMeta& m) {
  std::printf("  [step %zu/%zu age %zu%s%s", m.step, m.engine_step,
              m.age_steps, m.stale ? " STALE" : "",
              m.degraded ? " degraded" : "");
  if (m.has_estimators) {
    std::printf("  overlap %.3f tau %+.3f", m.topk_overlap, m.kendall_tau);
  }
  std::printf("]\n");
}

int cmd_serve(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const Graph g = load_graph(args.positional[1]);

  EngineConfig cfg;
  cfg.num_ranks = static_cast<Rank>(args.get_int("ranks", 8));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.publish_every =
      static_cast<std::size_t>(args.get_int("publish-every", 1));
  cfg.max_snapshot_lag = static_cast<std::size_t>(args.get_int("max-lag", 0));
  cfg.progress.top_k = static_cast<std::size_t>(args.get_int("top-k", 32));
  if (args.has("dv-budget")) {
    cfg.dv_budget_bytes =
        parse_dv_budget(args.get("dv-budget", "0"), cfg.num_ranks);
  }
  apply_recovery_flags(args, cfg);
  if (args.has("events")) cfg.progress.path = args.get("events", "");

  serve::EngineSession session(g, cfg);
  const serve::QueryView view = session.view();
  std::printf("serving %u vertices on %d ranks — point V | topk K | "
              "rankof V | stats | quit\n",
              g.num_vertices(), cfg.num_ranks);

  // The feeder streams NDJSON mutations into the session while the REPL
  // below answers queries: the two never synchronize, which is the point.
  std::atomic<bool> feeding{args.has("mutations")};
  std::atomic<std::size_t> fed{0};
  std::atomic<std::size_t> rejected{0};
  std::thread feeder;
  if (args.has("mutations")) {
    const std::string path = args.get("mutations", "");
    const auto cap = static_cast<std::size_t>(args.get_int("batch", 64));
    feeder = std::thread([&session, &feeding, &fed, &rejected, path, cap] {
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
        feeding.store(false);
        return;
      }
      std::vector<Event> batch;
      const auto flush = [&] {
        if (batch.empty()) return;
        const std::size_t size = batch.size();
        try {
          session.ingest(std::move(batch));
          fed.fetch_add(size);
        } catch (const std::exception& e) {
          // A contract violation (e.g. a misnumbered vertex add) or the
          // session ended under us (quit before the file drained).
          rejected.fetch_add(size);
          std::fprintf(stderr, "feed: batch rejected: %s\n", e.what());
        }
        batch = {};
      };
      std::string line;
      serve::StreamCommand cmd;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (!serve::parse_mutation_line(line, cmd)) {
          rejected.fetch_add(1);
          continue;
        }
        if (cmd.commit) {
          flush();
          continue;
        }
        batch.push_back(cmd.event);
        if (batch.size() >= cap) flush();
      }
      flush();
      feeding.store(false);
    });
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream is(line);
    std::string op;
    is >> op;
    if (op.empty()) continue;
    if (op == "quit" || op == "exit") break;
    if (op == "point" || op == "rankof") {
      VertexId v = 0;
      if (!(is >> v)) {
        std::printf("usage: %s <vertex-id>\n", op.c_str());
        continue;
      }
      if (op == "point") {
        const auto r = view.point(v);
        if (r.found) {
          std::printf("v %-10u closeness %.6g  harmonic %.6g", v, r.closeness,
                      r.harmonic);
        } else {
          std::printf("v %-10u not in any snapshot", v);
        }
        print_meta(r.meta);
      } else {
        const auto r = view.rank_of(v);
        if (r.found) {
          std::printf("v %-10u rank %zu  closeness %.6g", v, r.rank,
                      r.closeness);
        } else {
          std::printf("v %-10u not in any snapshot", v);
        }
        print_meta(r.meta);
      }
    } else if (op == "topk") {
      std::size_t k = 10;
      is >> k;
      const auto r = view.top_k(k);
      for (std::size_t i = 0; i < r.entries.size(); ++i) {
        std::printf("%-4zu v %-10u %.6g\n", i + 1, r.entries[i].v,
                    r.entries[i].closeness);
      }
      std::printf("%zu of %zu requested", r.entries.size(), k);
      print_meta(r.meta);
    } else if (op == "stats") {
      std::printf("queries %llu  ingested %zu event(s), %zu rejected  "
                  "feed %s\n",
                  static_cast<unsigned long long>(session.queries_answered()),
                  fed.load(), rejected.load(),
                  feeding.load() ? "streaming" : "drained");
      const serve::SloSnapshot slo = session.slo();
      const auto line = [](const char* kind, const obs::Histogram& h) {
        if (h.count == 0) return;
        std::printf("slo: %-7s p50 %8.1fus  p95 %8.1fus  p99 %8.1fus  "
                    "(%llu queries)\n",
                    kind, obs::histogram_quantile(h, 0.50) / 1e3,
                    obs::histogram_quantile(h, 0.95) / 1e3,
                    obs::histogram_quantile(h, 0.99) / 1e3,
                    static_cast<unsigned long long>(h.count));
      };
      line("point", slo.point);
      line("topk", slo.top_k);
      line("rankof", slo.rank_of);
    } else {
      std::printf("commands: point V | topk K | rankof V | stats | quit\n");
    }
    std::fflush(stdout);
  }

  if (feeder.joinable()) feeder.join();
  const RunResult r = session.close();
  std::printf("%s\n", r.stats.summary().c_str());
  std::printf("serve: %llu queries  %llu publishes  %llu stale  "
              "%zu event(s) ingested\n",
              static_cast<unsigned long long>(
                  r.metrics.counter_value("serve/queries")),
              static_cast<unsigned long long>(
                  r.metrics.counter_value("serve/publishes")),
              static_cast<unsigned long long>(
                  r.metrics.counter_value("serve/stale_responses")),
              fed.load());
  const auto best = top_k(r.closeness, std::min<std::size_t>(10, cfg.progress.top_k));
  std::printf("%-8s %-10s %s\n", "rank", "vertex", "closeness");
  for (std::size_t i = 0; i < best.size(); ++i) {
    std::printf("%-8zu %-10u %.6g\n", i + 1, best[i], r.closeness[best[i]]);
  }
  return 0;
}

int cmd_tail(const Args& args) {
  if (args.positional.size() < 2) return usage();
  std::ifstream in(args.positional[1]);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", args.positional[1].c_str());
    return 1;
  }
  std::string line;
  std::size_t rendered = 0;
  std::size_t malformed = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    obs::ProgressEvent ev;
    if (!obs::parse_progress_event(line, ev)) {
      ++malformed;
      continue;
    }
    render_event(ev);
    ++rendered;
  }
  if (malformed > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed line(s)\n", malformed);
  }
  std::printf("%zu event(s)\n", rendered);
  return rendered > 0 ? 0 : 1;
}

int cmd_generate(const Args& args) {
  if (args.positional.size() < 2 || !args.has("out")) return usage();
  const std::string kind = args.positional[1];
  const auto n = static_cast<VertexId>(args.get_int("n", 1000));
  const auto m = static_cast<std::size_t>(args.get_int("m", 3 * n));
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  WeightRange wr{1, static_cast<Weight>(args.get_int("wmax", 1))};

  Graph g;
  if (kind == "ba") {
    g = barabasi_albert(n, static_cast<unsigned>(args.get_int("k", 2)), rng, wr);
  } else if (kind == "er") {
    g = erdos_renyi(n, m, rng, wr);
  } else if (kind == "ws") {
    g = watts_strogatz(n, static_cast<unsigned>(args.get_int("k", 3)),
                       std::stod(args.get("beta", "0.1")), rng, wr);
  } else if (kind == "rmat") {
    unsigned scale = 1;
    while ((VertexId{1} << scale) < n) ++scale;
    g = rmat(scale, m, 0.57, 0.19, 0.19, rng, wr);
  } else if (kind == "grid") {
    const auto side = static_cast<VertexId>(args.get_int("rows", 32));
    g = grid2d(side, static_cast<VertexId>(args.get_int("cols", side)), rng, wr);
  } else if (kind == "planted") {
    g = planted_partition(n, static_cast<unsigned>(args.get_int("k", 8)),
                          std::stod(args.get("pin", "0.05")),
                          std::stod(args.get("pout", "0.002")), rng, wr);
  } else {
    return usage();
  }
  save_graph(g, args.get("out", ""));
  std::printf("wrote %u vertices, %zu edges to %s\n", g.num_vertices(),
              g.num_edges(), args.get("out", "").c_str());
  return 0;
}

int cmd_info(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const Graph g = load_graph(args.positional[1]);
  const auto comps = connected_components(g);
  std::printf("vertices:       %u (%u alive)\n", g.num_vertices(), g.num_alive());
  std::printf("edges:          %zu\n", g.num_edges());
  std::printf("components:     %u\n", comps.count);
  const double alpha = power_law_alpha_mle(g);
  if (alpha > 0) std::printf("power-law alpha %.2f (MLE)\n", alpha);
  return 0;
}

int cmd_partition(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const Graph g = load_graph(args.positional[1]);
  const auto k = static_cast<Rank>(args.get_int("parts", 8));
  const std::string kind_name = args.get("kind", "multilevel");
  PartitionerKind kind = PartitionerKind::kMultilevel;
  if (kind_name == "bfs") kind = PartitionerKind::kBfs;
  else if (kind_name == "hash") kind = PartitionerKind::kHash;
  else if (kind_name == "block") kind = PartitionerKind::kBlock;
  else if (kind_name == "rr") kind = PartitionerKind::kRoundRobin;
  else if (kind_name != "multilevel") return usage();

  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  Timer t;
  const Partition p = partition_graph(g, k, kind, rng);
  const auto m = evaluate_partition(g, p);
  std::printf("%s partition into %d parts in %.3fs\n", kind_name.c_str(), k,
              t.seconds());
  std::printf("cut edges:  %zu of %zu (%.1f%%)\n", m.cut_edges, g.num_edges(),
              100.0 * static_cast<double>(m.cut_edges) /
                  static_cast<double>(std::max<std::size_t>(g.num_edges(), 1)));
  std::printf("balance:    max %zu / min %zu (imbalance %.3f)\n", m.max_part,
              m.min_part, m.imbalance);
  return 0;
}

int cmd_analyze(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const Graph g = load_graph(args.positional[1]);
  const auto ranks = static_cast<Rank>(args.get_int("ranks", 8));
  const auto top = static_cast<std::size_t>(args.get_int("top", 10));
  const std::string measure = args.get("measure", "closeness");
  if (measure != "closeness" && measure != "harmonic") return usage();

  Timer t;
  EngineConfig cfg;
  cfg.num_ranks = ranks;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (args.has("dv-budget")) {
    cfg.dv_budget_bytes =
        parse_dv_budget(args.get("dv-budget", "0"), cfg.num_ranks);
  }
  apply_recovery_flags(args, cfg);
  if (args.has("trace")) {
    cfg.trace.enabled = true;
    cfg.trace.path = args.get("trace", "trace.json");
  }
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  const std::vector<double>& scores =
      measure == "harmonic" ? r.harmonic : r.closeness;
  std::printf("engine: %d ranks\n%s\n", ranks, r.stats.summary().c_str());
  if (args.has("stats-json")) {
    const std::string path = args.get("stats-json", "stats.json");
    if (!write_stats_json(path, r.stats)) {
      std::fprintf(stderr, "error: could not write %s\n", path.c_str());
      return 1;
    }
    std::printf("stats json: %s\n", path.c_str());
  }
  if (cfg.trace.enabled) {
    std::printf("trace: %s (%zu events)\n", cfg.trace.path.c_str(),
                r.trace.events.size());
  }
  if (args.has("exact")) {
    const auto exact =
        measure == "harmonic" ? harmonic_exact(g) : closeness_exact(g);
    double max_diff = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      max_diff = std::max(max_diff, std::abs(exact[v] - scores[v]));
    }
    std::printf("cross-check vs sequential reference: max diff %.3g\n",
                max_diff);
  }
  std::printf("%s computed in %.3fs\n", measure.c_str(), t.seconds());
  std::printf("%-8s %-10s %s\n", "rank", "vertex", measure.c_str());
  const auto best = top_k(scores, top);
  for (std::size_t i = 0; i < best.size(); ++i) {
    std::printf("%-8zu %-10u %.6g\n", i + 1, best[i], scores[best[i]]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const Args args = parse(argc, argv);
  const std::string cmd = args.positional.empty() ? "" : args.positional[0];
  try {
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "partition") return cmd_partition(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "tail") return cmd_tail(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
