#include "obs/causal.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace aacc::obs {

namespace {

constexpr double kEpsUs = 1e-9;

bool is_flow_instant(const CausalEvent& e) {
  return e.ph == 'i' && e.has_arg && e.arg_name == "flow";
}

/// Innermost-open-span timeline of one rank's main track: a list of
/// (ts, phase) change points, starting at ("idle", -inf). Spans that were
/// still open when the trace was cut simply extend to the end.
struct PhaseTimeline {
  std::vector<std::pair<double, std::string>> cps;

  [[nodiscard]] const std::string& phase_at(double ts) const {
    // Last change point with cp.ts <= ts.
    auto it = std::upper_bound(
        cps.begin(), cps.end(), ts,
        [](double t, const std::pair<double, std::string>& cp) {
          return t < cp.first;
        });
    return it == cps.begin() ? cps.front().second : std::prev(it)->second;
  }

  /// Adds per-phase durations of [a, b] (µs in, seconds out) into `agg`
  /// and returns the dominant phase of the interval.
  std::string attribute(double a, double b,
                        std::map<std::string, double>& agg) const {
    if (b <= a + kEpsUs) return "idle";
    auto it = std::upper_bound(
        cps.begin(), cps.end(), a,
        [](double t, const std::pair<double, std::string>& cp) {
          return t < cp.first;
        });
    std::size_t i = it == cps.begin() ? 0 : (it - cps.begin()) - 1;
    std::string dominant;
    double dominant_s = -1.0;
    double t = a;
    while (t < b) {
      const double next =
          i + 1 < cps.size() ? std::min(cps[i + 1].first, b) : b;
      const double secs = (next - t) / 1e6;
      const double total = (agg[cps[i].second] += secs);
      if (total > dominant_s) {
        dominant_s = total;
        dominant = cps[i].second;
      }
      t = next;
      ++i;
    }
    return dominant;
  }
};

struct StepWindow {
  double begin_us = std::numeric_limits<double>::infinity();
  double end_us = -std::numeric_limits<double>::infinity();
  std::int32_t straggler = -1;
};

}  // namespace

CausalAnalysis analyze_causal(const Trace& trace, bool wall_clock) {
  std::vector<CausalEvent> evs;
  evs.reserve(trace.events.size());
  for (const Trace::Entry& e : trace.events) {
    CausalEvent c;
    c.pid = e.pid;
    c.tid = e.tid;
    c.name = e.ev.name;
    c.ph = e.ev.kind == EventKind::kBegin  ? 'B'
           : e.ev.kind == EventKind::kEnd ? 'E'
                                          : 'i';
    c.ts_us = static_cast<double>(e.ev.ts_ns) / 1000.0;
    if (e.ev.arg_name != nullptr) {
      c.has_arg = true;
      c.arg_name = e.ev.arg_name;
      c.arg = e.ev.arg;
    }
    evs.push_back(std::move(c));
  }
  return analyze_causal(evs, wall_clock);
}

CausalAnalysis analyze_causal(const std::vector<CausalEvent>& events,
                              bool wall_clock) {
  CausalAnalysis a;
  a.events = events.size();
  a.wall_clock = wall_clock;

  // ---- flow edges: match recv ids against send ids -----------------
  std::unordered_map<std::uint64_t, std::size_t> send_by_id;
  bool recovery_seen = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const CausalEvent& e = events[i];
    if (e.ph == 'i' && e.name.rfind("recovery:", 0) == 0) recovery_seen = true;
    if (!is_flow_instant(e)) continue;
    if (e.name == "flow:send") {
      ++a.flow_sends;
      send_by_id.emplace(e.arg, i);
    }
  }
  std::unordered_set<std::uint64_t> matched_ids;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const CausalEvent& e = events[i];
    if (!is_flow_instant(e) || e.name != "flow:recv") continue;
    ++a.flow_recvs;
    const auto it = send_by_id.find(e.arg);
    if (it == send_by_id.end()) {
      ++a.unmatched_recvs;
      continue;
    }
    const CausalEvent& s = events[it->second];
    const FlowParts p = unpack_flow_id(e.arg);
    FlowEdge edge;
    edge.src_rank = s.pid;
    edge.dst_rank = e.pid;
    edge.attempt = p.attempt;
    edge.step = p.step;
    edge.seq = p.seq;
    edge.send_ts_us = s.ts_us;
    edge.recv_ts_us = e.ts_us;
    a.edges.push_back(edge);
    matched_ids.insert(e.arg);
  }
  a.matched_edges = a.edges.size();
  const std::size_t unmatched_sends =
      a.flow_sends >= matched_ids.size() ? a.flow_sends - matched_ids.size()
                                         : 0;
  // Recovery in the trace means unmatched sends were re-homed with their
  // shard (the receiver's attempt was abandoned or the peer died); with no
  // recovery anywhere they are genuinely dangling.
  (recovery_seen ? a.rehomed_sends : a.dangling_sends) = unmatched_sends;

  // Attribution needs cross-track comparable timestamps; logical ticks are
  // per-track, so only the edge accounting above is meaningful.
  if (!wall_clock) return a;

  // ---- per-rank main-track timelines and step windows --------------
  std::map<std::int32_t, PhaseTimeline> timelines;
  std::map<std::int32_t, std::vector<std::pair<double, std::size_t>>>
      recvs_by_rank;
  std::map<std::size_t, std::map<std::int32_t, StepWindow>> windows;
  {
    std::map<std::int32_t, std::vector<std::string>> stacks;
    std::map<std::int32_t, std::map<std::size_t, double>> open_steps;
    for (const CausalEvent& e : events) {
      if (e.pid == kDriverPid || e.tid != 0) continue;
      if (e.ph == 'B' || e.ph == 'E') {
        PhaseTimeline& tl = timelines[e.pid];
        if (tl.cps.empty()) {
          tl.cps.emplace_back(-std::numeric_limits<double>::infinity(),
                              "idle");
        }
        std::vector<std::string>& stack = stacks[e.pid];
        if (e.ph == 'B') {
          stack.push_back(e.name);
          tl.cps.emplace_back(e.ts_us, e.name);
          if (e.name == "rc_step" && e.has_arg) {
            open_steps[e.pid][static_cast<std::size_t>(e.arg)] = e.ts_us;
          }
        } else {
          if (!stack.empty()) stack.pop_back();
          tl.cps.emplace_back(e.ts_us,
                              stack.empty() ? "idle" : stack.back());
          if (e.name == "rc_step") {
            auto& open = open_steps[e.pid];
            if (!open.empty()) {
              const auto last = std::prev(open.end());
              StepWindow& w = windows[last->first][e.pid];
              w.begin_us = last->second;
              w.end_us = e.ts_us;
              open.erase(last);
            }
          }
        }
      }
    }
  }
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    recvs_by_rank[a.edges[i].dst_rank].emplace_back(a.edges[i].recv_ts_us, i);
  }
  for (auto& [rank, recvs] : recvs_by_rank) {
    std::sort(recvs.begin(), recvs.end());
  }

  // ---- backward critical-path walk per step ------------------------
  for (const auto& [step, ranks] : windows) {
    StepAttribution sa;
    sa.step = step;
    double t0 = std::numeric_limits<double>::infinity();
    double t1 = -std::numeric_limits<double>::infinity();
    for (const auto& [rank, w] : ranks) {
      t0 = std::min(t0, w.begin_us);
      if (w.end_us > t1) {
        t1 = w.end_us;
        sa.straggler = rank;
      }
    }
    if (!(t1 > t0)) continue;
    sa.makespan_seconds = (t1 - t0) / 1e6;

    // Latest matched recv on `rank` whose in-flight interval lies usefully
    // inside (t0, t): the hop that ended the rank's wait closest to t.
    const auto latest_recv = [&](std::int32_t rank, double t) -> const
        FlowEdge* {
      const auto it = recvs_by_rank.find(rank);
      if (it == recvs_by_rank.end()) return nullptr;
      const auto& recvs = it->second;
      auto pos = std::upper_bound(
          recvs.begin(), recvs.end(),
          std::make_pair(t, std::numeric_limits<std::size_t>::max()));
      while (pos != recvs.begin()) {
        --pos;
        const FlowEdge& e = a.edges[pos->second];
        if (e.recv_ts_us <= t0 + kEpsUs) break;
        if (e.src_rank != rank && e.src_rank != kDriverPid &&
            e.send_ts_us < t - kEpsUs) {
          return &e;
        }
      }
      return nullptr;
    };

    std::map<std::pair<std::int32_t, std::string>, double> agg;
    double t = t1;
    std::int32_t cur = sa.straggler;
    int hops = 0;
    while (t > t0 + kEpsUs && hops++ < 10000) {
      const FlowEdge* e = latest_recv(cur, t);
      if (e == nullptr) {
        // No incoming dependency: the rest of the window is this rank's
        // own compute/wait, partitioned by its span timeline.
        std::map<std::string, double> phases;
        const std::string dom = timelines[cur].attribute(t0, t, phases);
        for (const auto& [phase, secs] : phases) {
          agg[{cur, phase}] += secs;
        }
        sa.chain.push_back(PhaseCost{cur, dom, (t - t0) / 1e6});
        t = t0;
        break;
      }
      std::map<std::string, double> phases;
      const std::string dom = timelines[cur].attribute(e->recv_ts_us, t,
                                                       phases);
      for (const auto& [phase, secs] : phases) {
        agg[{cur, phase}] += secs;
      }
      if (t - e->recv_ts_us > kEpsUs) {
        sa.chain.push_back(PhaseCost{cur, dom, (t - e->recv_ts_us) / 1e6});
      }
      const double send_t = std::max(e->send_ts_us, t0);
      const double wire_s = (e->recv_ts_us - send_t) / 1e6;
      if (wire_s > 0) {
        agg[{e->src_rank, "wire"}] += wire_s;
        sa.chain.push_back(PhaseCost{e->src_rank, "wire", wire_s});
      }
      t = send_t;
      cur = e->src_rank;
      if (e->send_ts_us <= t0) break;
    }
    if (t > t0 + kEpsUs) {
      // Hop-cap safety valve: close the window on the current rank.
      std::map<std::string, double> phases;
      const std::string dom = timelines[cur].attribute(t0, t, phases);
      for (const auto& [phase, secs] : phases) agg[{cur, phase}] += secs;
      sa.chain.push_back(PhaseCost{cur, dom, (t - t0) / 1e6});
    }

    for (const auto& [key, secs] : agg) {
      sa.blocked_on.push_back(PhaseCost{key.first, key.second, secs});
      sa.critical_path_seconds += secs;
    }
    std::sort(sa.blocked_on.begin(), sa.blocked_on.end(),
              [](const PhaseCost& x, const PhaseCost& y) {
                if (x.seconds != y.seconds) return x.seconds > y.seconds;
                if (x.rank != y.rank) return x.rank < y.rank;
                return x.phase < y.phase;
              });
    std::reverse(sa.chain.begin(), sa.chain.end());  // chronological
    a.steps.push_back(std::move(sa));
  }
  return a;
}

// ------------------------------------------------- Chrome JSON re-parse

namespace {

bool extract_string(const std::string& line, const char* key,
                    std::string& out) {
  const std::string pat = std::string("\"") + key + "\":\"";
  const auto p = line.find(pat);
  if (p == std::string::npos) return false;
  std::string s;
  for (std::size_t i = p + pat.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      s.push_back(line[++i]);
    } else if (c == '"') {
      out = std::move(s);
      return true;
    } else {
      s.push_back(c);
    }
  }
  return false;
}

bool extract_number(const std::string& line, const char* key, double& out) {
  const std::string pat = std::string("\"") + key + "\":";
  const auto p = line.find(pat);
  if (p == std::string::npos) return false;
  const char* s = line.c_str() + p + pat.size();
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s;
}

}  // namespace

bool load_chrome_trace(std::istream& is, std::vector<CausalEvent>& out) {
  std::string line;
  bool any = false;
  while (std::getline(is, line)) {
    std::string ph;
    if (!extract_string(line, "ph", ph) || ph.size() != 1) continue;
    if (ph[0] != 'B' && ph[0] != 'E' && ph[0] != 'i') continue;
    CausalEvent e;
    e.ph = ph[0];
    if (!extract_string(line, "name", e.name)) continue;
    double v = 0;
    if (extract_number(line, "pid", v)) e.pid = static_cast<std::int32_t>(v);
    if (extract_number(line, "tid", v)) e.tid = static_cast<std::int32_t>(v);
    if (extract_number(line, "ts", v)) e.ts_us = v;
    const auto ap = line.find("\"args\":{\"");
    if (ap != std::string::npos) {
      const std::size_t key_start = ap + 9;
      const auto key_end = line.find('"', key_start);
      if (key_end != std::string::npos &&
          key_end + 1 < line.size() && line[key_end + 1] == ':') {
        e.arg_name = line.substr(key_start, key_end - key_start);
        const char* s = line.c_str() + key_end + 2;
        char* num_end = nullptr;
        const unsigned long long val = std::strtoull(s, &num_end, 10);
        if (num_end != s) {
          e.has_arg = true;
          e.arg = static_cast<std::uint64_t>(val);
        }
      }
    }
    out.push_back(std::move(e));
    any = true;
  }
  return any;
}

// ------------------------------------------------------------- reports

void write_attribution_json(std::ostream& os, const CausalAnalysis& a) {
  os << "{\"events\":" << a.events << ",\"wall_clock\":"
     << (a.wall_clock ? "true" : "false") << ",\"flow\":{\"sends\":"
     << a.flow_sends << ",\"recvs\":" << a.flow_recvs
     << ",\"matched_edges\":" << a.matched_edges
     << ",\"rehomed_sends\":" << a.rehomed_sends
     << ",\"dangling_sends\":" << a.dangling_sends
     << ",\"unmatched_recvs\":" << a.unmatched_recvs << "},\"steps\":[";
  bool first = true;
  for (const StepAttribution& s : a.steps) {
    if (!first) os << ",";
    first = false;
    os << "{\"step\":" << s.step << ",\"makespan_seconds\":";
    write_json_number(os, s.makespan_seconds);
    os << ",\"critical_path_seconds\":";
    write_json_number(os, s.critical_path_seconds);
    os << ",\"straggler\":" << s.straggler << ",\"blocked_on\":[";
    bool bf = true;
    for (const PhaseCost& c : s.blocked_on) {
      if (!bf) os << ",";
      bf = false;
      os << "{\"rank\":" << c.rank << ",\"phase\":";
      write_json_string(os, c.phase);
      os << ",\"seconds\":";
      write_json_number(os, c.seconds);
      os << "}";
    }
    os << "],\"chain\":[";
    bf = true;
    for (const PhaseCost& c : s.chain) {
      if (!bf) os << ",";
      bf = false;
      os << "{\"rank\":" << c.rank << ",\"phase\":";
      write_json_string(os, c.phase);
      os << ",\"seconds\":";
      write_json_number(os, c.seconds);
      os << "}";
    }
    os << "]}";
  }
  os << "]}";
}

void write_attribution_report(std::ostream& os, const CausalAnalysis& a,
                              std::size_t top_k) {
  char buf[128];
  os << "causal analysis: " << a.events << " events, " << a.flow_sends
     << " flow sends, " << a.flow_recvs << " flow recvs, "
     << a.matched_edges << " matched edges (" << a.rehomed_sends
     << " rehomed, " << a.dangling_sends << " dangling, "
     << a.unmatched_recvs << " unmatched recvs)\n";
  if (!a.wall_clock) {
    os << "logical-clock trace: per-step attribution skipped (tick "
          "timestamps are not comparable across ranks)\n";
    return;
  }
  if (a.steps.empty()) {
    os << "no rc_step spans found (was the run traced with flow stamping "
          "on?)\n";
    return;
  }
  std::vector<const StepAttribution*> order;
  order.reserve(a.steps.size());
  for (const StepAttribution& s : a.steps) order.push_back(&s);
  std::sort(order.begin(), order.end(),
            [](const StepAttribution* x, const StepAttribution* y) {
              if (x->makespan_seconds != y->makespan_seconds) {
                return x->makespan_seconds > y->makespan_seconds;
              }
              return x->step < y->step;
            });
  if (order.size() > top_k) order.resize(top_k);
  os << "top " << order.size() << " straggler chains by step makespan:\n";
  for (const StepAttribution* s : order) {
    std::snprintf(buf, sizeof(buf),
                  "step %zu: makespan %.3f ms, critical path %.3f ms, "
                  "straggler rank %d\n",
                  s->step, s->makespan_seconds * 1e3,
                  s->critical_path_seconds * 1e3, s->straggler);
    os << buf;
    const std::size_t show = std::min<std::size_t>(s->blocked_on.size(), 6);
    for (std::size_t i = 0; i < show; ++i) {
      const PhaseCost& c = s->blocked_on[i];
      std::snprintf(buf, sizeof(buf),
                    "  blocked on rank %d / phase %s for %.3f ms\n", c.rank,
                    c.phase.c_str(), c.seconds * 1e3);
      os << buf;
    }
    if (!s->chain.empty()) {
      os << "  chain:";
      for (const PhaseCost& c : s->chain) {
        std::snprintf(buf, sizeof(buf), " -> rank %d [%s %.3f ms]", c.rank,
                      c.phase.c_str(), c.seconds * 1e3);
        os << buf;
      }
      os << "\n";
    }
  }
}

}  // namespace aacc::obs
