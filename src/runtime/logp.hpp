// LogGP network cost model.
//
// The paper analyses every phase under LogP (Culler et al.) and runs on a
// 1 Gb/s Ethernet cluster. On this single machine, communication is memcpy
// through mailboxes, so "communication time" must be *modeled*: every
// message's byte count is recorded, and these functions replay the log
// under LogGP (LogP + per-byte Gap for long messages) with the paper's
// personalized all-to-all schedule: exactly one message traverses the
// network at any time (serialize the network to avoid flooding).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace aacc::rt {

struct LogGPParams {
  double L = 50e-6;  ///< end-to-end latency (s): small-message Ethernet RTT/2
  double o = 5e-6;   ///< per-message CPU overhead at sender and receiver (s)
  double g = 10e-6;  ///< minimum gap between consecutive messages (s)
  double G = 8e-9;   ///< per-byte gap (s/byte): 1 Gb/s wire = 8 ns/byte
};

enum class OpKind : std::uint8_t {
  kPointToPoint,
  kAllToAll,
  kBroadcast,
  kReduce,
};

/// One recorded message. `op` groups messages of a single collective call
/// (all ranks issue collectives in the same order, so op sequence numbers
/// agree across ranks).
struct MsgRecord {
  std::uint32_t op = 0;
  OpKind kind = OpKind::kPointToPoint;
  Rank src = 0;
  Rank dst = 0;
  std::uint64_t bytes = 0;
};

/// Cost of a single message occupying the wire.
double message_cost(const LogGPParams& p, std::uint64_t bytes);

/// Replays a merged message log and returns modeled network seconds. The
/// log may be unsorted; records are grouped by (op, kind).
double modeled_network_seconds(const std::vector<MsgRecord>& log,
                               const LogGPParams& params, Rank world_size);

}  // namespace aacc::rt
