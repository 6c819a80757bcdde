#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "core/engine.hpp"

namespace aacc {

namespace {

void jdouble(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

void jstring(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

void RunStats::to_json(std::ostream& os, bool include_steps) const {
  os << "{\"wall_seconds\":";
  jdouble(os, wall_seconds);
  os << ",\"dd_seconds\":";
  jdouble(os, dd_seconds);
  os << ",\"total_cpu_seconds\":";
  jdouble(os, total_cpu_seconds);
  os << ",\"max_rank_cpu_seconds\":";
  jdouble(os, max_rank_cpu_seconds);
  os << ",\"modeled_makespan_seconds\":";
  jdouble(os, modeled_makespan_seconds);
  os << ",\"cpu_by_phase\":{";
  bool first = true;
  for (const auto& [phase, secs] : cpu_by_phase) {
    if (!first) os << ",";
    first = false;
    jstring(os, phase);
    os << ":";
    jdouble(os, secs);
  }
  os << "},\"total_bytes\":" << total_bytes
     << ",\"total_messages\":" << total_messages
     << ",\"frame_overhead_bytes\":" << frame_overhead_bytes
     << ",\"retransmits\":" << retransmits
     << ",\"modeled_network_seconds\":{\"serialized\":";
  jdouble(os, modeled_network_seconds_serialized);
  os << ",\"shifted\":";
  jdouble(os, modeled_network_seconds_shifted);
  os << ",\"flood\":";
  jdouble(os, modeled_network_seconds_flood);
  os << "},\"rc_steps\":" << rc_steps << ",\"rc_drain_cpu_seconds\":";
  jdouble(os, rc_drain_cpu_seconds);
  os << ",\"rc_drain_modeled_seconds\":";
  jdouble(os, rc_drain_modeled_seconds);
  os << ",\"rc_exchange_wait_seconds\":";
  jdouble(os, rc_exchange_wait_seconds);
  os << ",\"rc_blocked_on_seconds\":";
  jdouble(os, rc_blocked_on_seconds);
  os << ",\"rc_blocked_on\":[";
  first = true;
  for (const auto& [rank, secs] : rc_blocked_on_by_rank) {
    if (!first) os << ",";
    first = false;
    os << "{\"rank\":" << rank << ",\"seconds\":";
    jdouble(os, secs);
    os << "}";
  }
  os << "],\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histogram_summary) {
    if (!first) os << ",";
    first = false;
    jstring(os, name);
    os << ":{\"count\":" << h.count << ",\"sum\":" << h.sum << ",\"p50\":";
    jdouble(os, h.p50);
    os << ",\"p95\":";
    jdouble(os, h.p95);
    os << ",\"p99\":";
    jdouble(os, h.p99);
    os << "}";
  }
  os << "},\"recoveries\":" << recoveries << ",\"recovery_log\":[";
  for (std::size_t i = 0; i < recovery_log.size(); ++i) {
    const RecoveryRecord& r = recovery_log[i];
    if (i != 0) os << ",";
    os << "{\"kind\":";
    jstring(os, r.kind);
    os << ",\"at_step\":" << r.at_step << ",\"mttr_seconds\":";
    jdouble(os, r.mttr_seconds);
    os << "}";
  }
  os << "],\"invariant_violations\":" << invariant_violations
     << ",\"cut_edges_initial\":" << cut_edges_initial
     << ",\"cut_edges_final\":" << cut_edges_final << ",\"imbalance_final\":";
  jdouble(os, imbalance_final);
  os << ",\"dv_resident_bytes\":" << dv_resident_bytes
     << ",\"dv_cold_bytes\":" << dv_cold_bytes
     << ",\"dv_promotions\":" << dv_promotions
     << ",\"dv_demotions\":" << dv_demotions << ",\"dv_decode_seconds\":";
  jdouble(os, dv_decode_seconds);
  if (include_steps) {
    os << ",\"steps\":[";
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const StepStats& s = steps[i];
      if (i != 0) os << ",";
      os << "{\"step\":" << s.step << ",\"bytes\":" << s.bytes
         << ",\"max_cpu_seconds\":";
      jdouble(os, s.max_cpu_seconds);
      os << ",\"sum_cpu_seconds\":";
      jdouble(os, s.sum_cpu_seconds);
      os << ",\"relaxations\":" << s.relaxations
         << ",\"poisons\":" << s.poisons << ",\"repairs\":" << s.repairs
         << ",\"sum_drain_cpu_seconds\":";
      jdouble(os, s.sum_drain_cpu_seconds);
      os << ",\"max_drain_modeled_seconds\":";
      jdouble(os, s.max_drain_modeled_seconds);
      os << ",\"sum_exchange_wait_seconds\":";
      jdouble(os, s.sum_exchange_wait_seconds);
      os << ",\"blocked_on_rank\":" << s.blocked_on_rank
         << ",\"blocked_seconds\":";
      jdouble(os, s.max_blocked_seconds);
      os << "}";
    }
    os << "]";
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
                "cut edges %zu -> %zu  imbalance %.3f  drain cpu %.3f s "
                "(modeled %.3f s)",
                cut_edges_initial, cut_edges_final, imbalance_final,
                rc_drain_cpu_seconds, rc_drain_modeled_seconds);
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
