// Shared harness for the per-figure benchmark binaries.
//
// Every figure binary prints (a) a human-readable table mirroring the
// paper's plotted series and (b) a CSV file next to it under
// AACC_OUT_DIR (default /tmp/aacc_bench). Scale knobs:
//   AACC_N     base graph size        (default per figure)
//   AACC_P     logical processors     (default 16, the paper's count)
//   AACC_SEED  RNG seed               (default 1)
//   AACC_SCALE multiply change-batch sizes (default 1.0)
//   AACC_RECV_TIMEOUT_MS  recv watchdog for the bench configs (default 0 =
//              disabled: benches are fault-free, and the watchdog's default
//              2-minute trip can fire spuriously on oversubscribed CI boxes)
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"

namespace aacc::bench {

struct Scale {
  VertexId n;
  Rank p;
  std::uint64_t seed;
  double batch_scale;
};

inline Scale read_scale(VertexId default_n) {
  Scale s;
  s.n = static_cast<VertexId>(env_int("AACC_N", default_n));
  s.p = static_cast<Rank>(env_int("AACC_P", 16));
  s.seed = static_cast<std::uint64_t>(env_int("AACC_SEED", 1));
  s.batch_scale = env_double("AACC_SCALE", 1.0);
  return s;
}

inline std::size_t scaled(std::size_t base, const Scale& s) {
  return static_cast<std::size_t>(static_cast<double>(base) * s.batch_scale);
}

/// Base workload mirroring the paper: undirected scale-free graph.
inline Graph base_graph(const Scale& s, unsigned edges_per_vertex = 2) {
  Rng rng(s.seed);
  return barabasi_albert(s.n, edges_per_vertex, rng);
}

/// A batch of new vertices with explicit community structure, standing in
/// for the paper's batches extracted from a larger graph with Pajek:
/// we *generate* a community-structured graph among the newcomers (so that
/// CutEdge-PS has structure to exploit, exactly as in the paper's setup)
/// and attach each newcomer to the existing graph preferentially.
inline std::vector<Event> community_vertex_batch(const Graph& base,
                                                 VertexId count,
                                                 unsigned communities,
                                                 Rng& rng) {
  const VertexId n0 = base.num_vertices();
  // Degree-proportional attachment pool from the existing graph.
  std::vector<VertexId> pool;
  pool.reserve(2 * base.num_edges());
  for (const auto& [u, v, w] : base.edges()) {
    (void)w;
    pool.push_back(u);
    pool.push_back(v);
  }
  const VertexId per = std::max<VertexId>(count / communities, 2);
  std::vector<Event> events;
  events.reserve(count);
  for (VertexId i = 0; i < count; ++i) {
    VertexAddEvent ev;
    ev.id = n0 + i;
    const VertexId community_base = (i / per) * per;
    // Two intra-community edges (to the community head and the previous
    // member) plus one preferential edge into the base graph.
    if (i > community_base) {
      ev.edges.emplace_back(n0 + i - 1, 1);
      if (i > community_base + 1 && rng.next_bool(0.7)) {
        ev.edges.emplace_back(n0 + community_base, 1);
      }
    }
    ev.edges.emplace_back(pool[rng.next_below(pool.size())], 1);
    events.emplace_back(std::move(ev));
  }
  return events;
}

/// One experiment measurement.
struct Row {
  std::string label;
  double x = 0;
  double wall_seconds = 0;
  double modeled_seconds = 0;
  double mbytes = 0;
  std::size_t rc_steps = 0;
  double extra = 0;    // figure-specific column (e.g. new cut edges)
  double poisons = 0;  // invalidated entries (deletion figures)
  /// Full RunStats::to_json object for the measurement (canonical schema,
  /// EXPERIMENTS.md); embedded verbatim in the per-bench JSON file.
  std::string stats_json;
};

class Table {
 public:
  Table(std::string name, std::string x_name, std::string extra_name = "")
      : name_(std::move(name)), x_(std::move(x_name)), extra_(std::move(extra_name)) {}

  void add(Row row) { rows_.push_back(std::move(row)); }

  void print_and_save() const {
    std::printf("\n== %s ==\n", name_.c_str());
    std::printf("%-16s %10s %12s %14s %10s %9s", "series", x_.c_str(),
                "wall_s", "modeled_s", "MB_sent", "rc_steps");
    if (!extra_.empty()) std::printf(" %14s", extra_.c_str());
    std::printf("\n");
    for (const Row& r : rows_) {
      std::printf("%-16s %10.0f %12.3f %14.4f %10.2f %9zu", r.label.c_str(),
                  r.x, r.wall_seconds, r.modeled_seconds, r.mbytes, r.rc_steps);
      if (!extra_.empty()) std::printf(" %14.1f", r.extra);
      std::printf("\n");
    }
    const std::string dir = env_str("AACC_OUT_DIR", "/tmp/aacc_bench");
    (void)std::system(("mkdir -p " + dir).c_str());
    std::ofstream csv(dir + "/" + name_ + ".csv");
    csv << "series," << x_ << ",wall_s,modeled_s,mbytes,rc_steps";
    if (!extra_.empty()) csv << ',' << extra_;
    csv << '\n';
    for (const Row& r : rows_) {
      csv << r.label << ',' << r.x << ',' << r.wall_seconds << ','
          << r.modeled_seconds << ',' << r.mbytes << ',' << r.rc_steps;
      if (!extra_.empty()) csv << ',' << r.extra;
      csv << '\n';
    }
    std::printf("[csv] %s/%s.csv\n", dir.c_str(), name_.c_str());

    // Machine-readable mirror of the CSV (schema: EXPERIMENTS.md).
    std::ofstream json(dir + "/" + name_ + ".json");
    json << "{\"bench\":\"" << name_ << "\",\"x_name\":\"" << x_ << "\"";
    if (!extra_.empty()) json << ",\"extra_name\":\"" << extra_ << "\"";
    json << ",\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      if (i != 0) json << ',';
      json << "{\"series\":\"" << r.label << "\",\"x\":" << r.x
           << ",\"wall_s\":" << r.wall_seconds
           << ",\"modeled_s\":" << r.modeled_seconds
           << ",\"mbytes\":" << r.mbytes << ",\"rc_steps\":" << r.rc_steps
           << ",\"poisons\":" << r.poisons;
      if (!extra_.empty()) json << ",\"extra\":" << r.extra;
      if (!r.stats_json.empty()) json << ",\"stats\":" << r.stats_json;
      json << '}';
    }
    json << "]}\n";
    std::printf("[json] %s/%s.json\n", dir.c_str(), name_.c_str());
  }

 private:
  std::string name_;
  std::string x_;
  std::string extra_;
  std::vector<Row> rows_;
};

inline Row measure(const std::string& label, double x, const Graph& g,
                   const EventSchedule& sched, const EngineConfig& cfg) {
  Timer t;
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run(sched);
  Row row;
  row.label = label;
  row.x = x;
  row.wall_seconds = t.seconds();
  row.modeled_seconds = r.stats.modeled_makespan_seconds;
  row.mbytes = static_cast<double>(r.stats.total_bytes) / 1e6;
  row.rc_steps = r.stats.rc_steps;
  row.extra = static_cast<double>(r.stats.cut_edges_final) -
              static_cast<double>(r.stats.cut_edges_initial);
  for (const StepStats& s : r.stats.steps) {
    row.poisons += static_cast<double>(s.poisons);
  }
  row.stats_json = r.stats.to_json(/*include_steps=*/false);
  return row;
}

inline Row measure_baseline(const std::string& label, double x, const Graph& g,
                            const EventSchedule& sched, const EngineConfig& cfg) {
  Timer t;
  const RunResult r = run_baseline_restart(g, sched, cfg);
  Row row;
  row.label = label;
  row.x = x;
  row.wall_seconds = t.seconds();
  row.modeled_seconds = r.stats.modeled_makespan_seconds;
  row.mbytes = static_cast<double>(r.stats.total_bytes) / 1e6;
  row.rc_steps = r.stats.rc_steps;
  row.stats_json = r.stats.to_json(/*include_steps=*/false);
  return row;
}

/// Recv-watchdog budget for bench configs: AACC_RECV_TIMEOUT_MS, default 0
/// (disabled). Benches run fault-free transports, so a watchdog trip can
/// only be a false positive from an oversubscribed machine descheduling a
/// rank thread past the default 2-minute deadline.
inline std::chrono::milliseconds watchdog_timeout() {
  return std::chrono::milliseconds(env_int("AACC_RECV_TIMEOUT_MS", 0));
}

inline EngineConfig make_cfg(const Scale& s, AssignStrategy assign) {
  EngineConfig cfg;
  cfg.num_ranks = s.p;
  cfg.seed = s.seed;
  cfg.assign = assign;
  cfg.transport.recv_timeout = watchdog_timeout();
  return cfg;
}

/// Edge-addition mode for a figure. `paper_default` is what the figure's
/// original experiment used; AACC_EAGER=0/1 overrides.
inline EdgeAddMode read_add_mode(bool paper_default_eager) {
  return env_int("AACC_EAGER", paper_default_eager ? 1 : 0) != 0
             ? EdgeAddMode::kEager
             : EdgeAddMode::kSeeded;
}

}  // namespace aacc::bench
