#include "runtime/logp.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace aacc::rt {

double message_cost(const LogGPParams& p, std::uint64_t bytes) {
  // Sender overhead + wire occupancy + latency + receiver overhead.
  return p.o + static_cast<double>(bytes) * p.G + p.L + p.o;
}

namespace {

double broadcast_cost(const LogGPParams& p, std::uint64_t max_bytes, Rank world) {
  // Binomial tree: ceil(log2 P) sequential levels.
  int depth = 0;
  for (Rank span = 1; span < world; span *= 2) ++depth;
  return static_cast<double>(depth) * message_cost(p, max_bytes);
}

double all_to_all_cost(const LogGPParams& p, const std::vector<const MsgRecord*>& msgs,
                       SchedulePolicy policy, Rank world) {
  switch (policy) {
    case SchedulePolicy::kSerialized: {
      // One message on the wire at a time, g between consecutive sends.
      double t = 0.0;
      for (const MsgRecord* m : msgs) t += message_cost(p, m->bytes) + p.g;
      return t;
    }
    case SchedulePolicy::kShifted: {
      // Rounds s = 1..P-1; message src -> dst belongs to round
      // (dst - src) mod P. Round cost = slowest message in the round.
      std::vector<std::uint64_t> round_max(static_cast<std::size_t>(world), 0);
      for (const MsgRecord* m : msgs) {
        const auto s = static_cast<std::size_t>(
            ((m->dst - m->src) % world + world) % world);
        round_max[s] = std::max(round_max[s], m->bytes);
      }
      double t = 0.0;
      for (std::size_t s = 1; s < round_max.size(); ++s) {
        if (round_max[s] > 0) t += message_cost(p, round_max[s]) + p.g;
      }
      return t;
    }
    case SchedulePolicy::kFlood: {
      // All messages contend for one shared wire: total bytes serialize,
      // but per-rank send overheads overlap across ranks (take the max).
      std::uint64_t total_bytes = 0;
      std::vector<double> rank_overhead(static_cast<std::size_t>(world), 0.0);
      for (const MsgRecord* m : msgs) {
        total_bytes += m->bytes;
        rank_overhead[static_cast<std::size_t>(m->src)] += p.o + p.g;
      }
      const double max_overhead =
          *std::max_element(rank_overhead.begin(), rank_overhead.end());
      return max_overhead + static_cast<double>(total_bytes) * p.G + p.L + p.o;
    }
  }
  return 0.0;
}

}  // namespace

double modeled_network_seconds(const std::vector<MsgRecord>& log,
                               const LogGPParams& params, SchedulePolicy policy,
                               Rank world_size) {
  // Group by (op, kind); ops execute sequentially (SPMD collectives).
  std::map<std::pair<std::uint32_t, OpKind>, std::vector<const MsgRecord*>> groups;
  for (const MsgRecord& m : log) {
    groups[{m.op, m.kind}].push_back(&m);
  }
  double total = 0.0;
  for (const auto& [key, msgs] : groups) {
    switch (key.second) {
      case OpKind::kAllToAll:
        total += all_to_all_cost(params, msgs, policy, world_size);
        break;
      case OpKind::kBroadcast:
      case OpKind::kReduce: {
        std::uint64_t max_bytes = 0;
        for (const MsgRecord* m : msgs) max_bytes = std::max(max_bytes, m->bytes);
        total += broadcast_cost(params, max_bytes, world_size);
        break;
      }
      case OpKind::kPointToPoint:
        for (const MsgRecord* m : msgs) total += message_cost(params, m->bytes);
        break;
    }
  }
  return total;
}

}  // namespace aacc::rt
