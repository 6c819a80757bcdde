#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "core/metric_catalog.hpp"

namespace aacc {

namespace {

// Writes `items` between `open` and `close`, comma-separated, one fn(item)
// each.
template <class C, class Fn>
void write_list(std::ostream& os, char open, const C& items, char close,
                Fn fn) {
  os << open;
  bool first = true;
  for (const auto& item : items) {
    if (!first) os << ",";
    first = false;
    fn(item);
  }
  os << close;
}

void write_irregular(std::ostream& os, metrics::Irregular which,
                     const RunStats& s) {
  switch (which) {
    case metrics::Irregular::kNone:
      break;
    case metrics::Irregular::kCpuByPhase:
      write_list(os, '{', s.cpu_by_phase, '}', [&](const auto& phase) {
        obs::write_json_string(os, phase.first);
        os << ":";
        obs::write_json_number(os, phase.second);
      });
      break;
    case metrics::Irregular::kBlockedOnByRank:
      write_list(os, '[', s.rc_blocked_on_by_rank, ']', [&](const auto& r) {
        obs::JsonObject o{os};
        o.key("rank") << r.first;
        obs::write_json_number(o.key("seconds"), r.second);
        os << "}";
      });
      break;
    case metrics::Irregular::kHistograms:
      write_list(os, '{', s.histogram_summary, '}', [&](const auto& h) {
        obs::write_json_string(os, h.first);
        os << ":";
        obs::JsonObject o{os};
        o.key("count") << h.second.count;
        o.key("sum") << h.second.sum;
        obs::write_json_number(o.key("p50"), h.second.p50);
        obs::write_json_number(o.key("p95"), h.second.p95);
        obs::write_json_number(o.key("p99"), h.second.p99);
        os << "}";
      });
      break;
    case metrics::Irregular::kRecoveryLog:
      write_list(os, '[', s.recovery_log, ']', [&](const RecoveryRecord& r) {
        obs::JsonObject o{os};
        obs::write_json_string(o.key("kind"), r.kind);
        o.key("at_step") << r.at_step;
        obs::write_json_number(o.key("mttr_seconds"), r.mttr_seconds);
        os << "}";
      });
      break;
  }
}

}  // namespace

void RunStats::accumulate(const RunStats& other) {
  for (const metrics::Metric& m : metrics::kCatalog) {
    metrics::each(m.run.member, [&](auto p) {
      this->*p = m.runs == metrics::Runs::kLatest ? other.*p
                                                  : this->*p + other.*p;
    });
  }
  for (const auto& [phase, secs] : other.cpu_by_phase) {
    cpu_by_phase[phase] += secs;
  }
  for (const auto& [rank, secs] : other.rc_blocked_on_by_rank) {
    rc_blocked_on_by_rank[rank] += secs;
  }
  histogram_summary = other.histogram_summary;  // registry is cumulative
  recovery_log.insert(recovery_log.end(), other.recovery_log.begin(),
                      other.recovery_log.end());
  steps.insert(steps.end(), other.steps.begin(), other.steps.end());
}

void RunStats::to_json(std::ostream& os, bool include_steps) const {
  obs::JsonObject top{os};
  obs::JsonObject nested{os};
  const char* group = nullptr;
  for (const metrics::Metric& m : metrics::kCatalog) {
    if (m.run.key == nullptr) continue;
    if (m.run_group != group) {
      if (group != nullptr) os << "}";
      if (m.run_group != nullptr) top.key(m.run_group);
      nested.sep = '{';
      group = m.run_group;
    }
    obs::JsonObject& o = group != nullptr ? nested : top;
    if (m.irregular != metrics::Irregular::kNone) {
      write_irregular(o.key(m.run.key), m.irregular, *this);
    } else {
      metrics::write_view(o, m.run, *this);
    }
  }
  if (group != nullptr) os << "}";
  if (include_steps) {
    write_list(top.key("steps"), '[', steps, ']', [&](const StepStats& st) {
      obs::JsonObject o{os};
      o.key("step") << st.step;
      for (const metrics::Metric& m : metrics::kCatalog) {
        metrics::write_view(o, m.step, st);
      }
      os << "}";
    });
  }
  os << "}";
}

std::string RunStats::to_json(bool include_steps) const {
  std::ostringstream os;
  to_json(os, include_steps);
  return os.str();
}

std::string RunStats::summary() const {
  std::uint64_t relaxations = 0;
  std::uint64_t poisons = 0;
  std::uint64_t repairs = 0;
  for (const StepStats& s : steps) {
    relaxations += s.relaxations;
    poisons += s.poisons;
    repairs += s.repairs;
  }
  char buf[512];
  std::ostringstream os;
  std::snprintf(buf, sizeof(buf),
                "wall %.3f s  (dd %.3f s)  cpu %.3f s  modeled makespan %.3f s\n",
                wall_seconds, dd_seconds, total_cpu_seconds,
                modeled_makespan_seconds);
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "rc steps %zu  relaxations %llu  poisons %llu  repairs %llu\n",
                rc_steps, static_cast<unsigned long long>(relaxations),
                static_cast<unsigned long long>(poisons),
                static_cast<unsigned long long>(repairs));
  os << buf;
  std::snprintf(
      buf, sizeof(buf),
      "traffic %.2f MB in %llu msgs  modeled net %.3f s (serialized)\n",
      static_cast<double>(total_bytes) / 1e6,
      static_cast<unsigned long long>(total_messages),
      modeled_network_seconds_serialized);
  os << buf;
  if (retransmits > 0 || frame_overhead_bytes > 0 || recoveries > 0) {
    std::snprintf(buf, sizeof(buf),
                  "transport: frame overhead %llu B  retransmits %llu  "
                  "recoveries %zu\n",
                  static_cast<unsigned long long>(frame_overhead_bytes),
                  static_cast<unsigned long long>(retransmits), recoveries);
    os << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "cut edges %zu -> %zu  imbalance %.3f  drain cpu %.3f s",
                cut_edges_initial, cut_edges_final, imbalance_final,
                rc_drain_cpu_seconds);
  os << buf;
  return os.str();
}

bool write_stats_json(const std::string& path, const RunStats& stats) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  stats.to_json(os);
  os << '\n';
  return static_cast<bool>(os);
}

}  // namespace aacc
