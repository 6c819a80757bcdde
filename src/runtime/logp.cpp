#include "runtime/logp.hpp"

#include <algorithm>
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

double all_to_all_cost(const LogGPParams& p,
                       const std::vector<const MsgRecord*>& msgs) {
  // The paper's schedule: one message on the wire at a time — O(P^2)
  // steps, no contention — with g between consecutive sends.
  double t = 0.0;
  for (const MsgRecord* m : msgs) t += message_cost(p, m->bytes) + p.g;
  return t;
}

}  // namespace

double modeled_network_seconds(const std::vector<MsgRecord>& log,
                               const LogGPParams& params, Rank world_size) {
  // Group by (op, kind); ops execute sequentially (SPMD collectives).
  std::map<std::pair<std::uint32_t, OpKind>, std::vector<const MsgRecord*>> groups;
  for (const MsgRecord& m : log) {
    groups[{m.op, m.kind}].push_back(&m);
  }
  double total = 0.0;
  for (const auto& [key, msgs] : groups) {
    switch (key.second) {
      case OpKind::kAllToAll:
        total += all_to_all_cost(params, msgs);
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
