// Deterministic fault injection and the runtime fault model.
//
// A FaultPlan describes, from a single RNG seed, which transport frames are
// dropped, duplicated, delayed, or bit-corrupted, and which rank crashes at
// which RC step. The FaultInjector evaluates the plan as a *pure hash* of
// (seed, src, dst, seqno, attempt): the fate of every frame is fixed before
// the run starts and is independent of thread interleaving, so a chaos run
// is reproducible even though rank threads race.
//
// Frames beyond `fault_attempt_limit` retransmissions are always delivered
// cleanly — the adversary has bounded power per frame, which is what makes
// the sender's bounded retry loop sufficient for eventual delivery.
//
// See docs/FAULTS.md for the full fault model and recovery state machine.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace aacc::rt {

// ------------------------------------------------------------ typed errors

/// Base of every transport-level failure the hardened runtime can raise.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A timed recv expired without a matching message.
class TimeoutError : public TransportError {
 public:
  using TransportError::TransportError;
};

/// A frame failed its CRC check and the retry budget is exhausted.
class CorruptFrameError : public TransportError {
 public:
  using TransportError::TransportError;
};

/// A blocking wait was interrupted because a peer rank was marked failed.
class PeerFailedError : public TransportError {
 public:
  PeerFailedError(Rank peer, const std::string& what)
      : TransportError(what), peer_(peer) {}
  [[nodiscard]] Rank peer() const { return peer_; }

 private:
  Rank peer_;
};

/// The mailbox was shut down (poison token) while a wait was pending.
class MailboxClosedError : public TransportError {
 public:
  using TransportError::TransportError;
};

/// Thrown by the injector's crash hook inside rank code: simulates the
/// process dying at a chosen RC step. Deliberately NOT a TransportError —
/// the supervisor classifies it as a root failure, not collateral.
class InjectedCrash : public std::runtime_error {
 public:
  InjectedCrash(Rank rank, std::size_t step)
      : std::runtime_error("injected crash: rank " + std::to_string(rank) +
                           " at RC step " + std::to_string(step)),
        rank_(rank), step_(step) {}
  [[nodiscard]] Rank rank() const { return rank_; }
  [[nodiscard]] std::size_t step() const { return step_; }

 private:
  Rank rank_;
  std::size_t step_;
};

// --------------------------------------------------------------- transport

/// Reliable-transport knobs (Comm/Mailbox). Default OFF: the fault-free
/// fast path is byte-identical to the unhardened runtime (zero cost when
/// disabled). Installing a FaultInjector on a World forces `reliable` on.
struct TransportConfig {
  /// Frame every payload as [seqno u32][crc32 u32][payload]: CRC validation,
  /// per-(src,dst) sequence numbers with receive-side dedup and in-order
  /// delivery, and sender retry with exponential backoff.
  bool reliable = false;
  /// Attempts per frame before the sender raises CorruptFrameError.
  std::uint32_t max_retries = 16;
  /// Every blocking recv fails with TimeoutError after this long; a wedged
  /// rank can never hang the binary. 0 disables (tests only).
  std::chrono::milliseconds recv_timeout{120000};
  /// Base retransmit backoff; doubles per attempt (capped at 64x), then
  /// scaled by a deterministic per-frame jitter factor in [0.5, 1.5) —
  /// splitmix64 of (seed, src, dst, seqno, attempt), the same scheme as
  /// frame fates — so the senders of a dropped all-to-all round do not
  /// retransmit in lockstep (see retry_backoff_jitter).
  std::chrono::microseconds retry_backoff{20};
};

/// Deterministic jitter factor in [0.5, 1.5) for retransmit attempt
/// `attempt` of frame (src, dst, seqno). Pure function of its arguments —
/// two calls with the same tuple always agree, so chaos runs stay
/// reproducible while concurrent senders spread out their retry storms.
[[nodiscard]] double retry_backoff_jitter(std::uint64_t seed, Rank src,
                                          Rank dst, std::uint32_t seqno,
                                          std::uint32_t attempt);

// ---------------------------------------------------------- health model

/// Peer-health deadlines for the supervision layer (docs/FAULTS.md
/// §Health supervision). While a rank blocks waiting for a named peer's
/// frame, the elapsed wait is attributed to that peer and escalates its
/// observed state straggler -> suspect -> dead. Crossing `dead_after`
/// *declares* the peer dead: the waiter marks it failed and raises
/// PeerFailedError immediately instead of burning the full recv_timeout on
/// a TimeoutError. Disabled by default: the fault-free path then takes a
/// single branch per wait.
struct HealthConfig {
  bool enabled = false;
  /// A peer silent this long while awaited is a straggler (telemetry only).
  std::chrono::milliseconds straggler_after{100};
  /// A peer silent this long is a suspect (trace instant + counter).
  std::chrono::milliseconds suspect_after{500};
  /// A peer silent this long is declared dead (PeerFailedError raised and
  /// the rank is marked failed world-wide). Must stay below the transport
  /// recv_timeout or the watchdog wins the race and the declaration never
  /// happens.
  std::chrono::milliseconds dead_after{2000};
};

/// Escalation ladder of a peer as seen by one observer rank.
enum class PeerState : std::uint8_t { kOk, kStraggler, kSuspect, kDead };

/// Per-peer health ledger kept by each Comm endpoint: cumulative awaited
/// silence and the highest escalation state reached. When the silence was
/// observed under the reliable transport, the record also names the exact
/// awaited message — the flow step the observer was in and the next frame
/// seqno it expected from the peer — so a PeerFailedError can say which
/// message is stuck, not just which peer (docs/OBSERVABILITY.md §Causal
/// flows).
struct PeerHealth {
  double waited_seconds = 0.0;
  PeerState state = PeerState::kOk;
  bool has_awaited = false;          ///< awaited_* below are meaningful
  std::uint32_t awaited_step = 0;    ///< observer's RC step at escalation
  std::uint32_t awaited_seq = 0;     ///< next frame seqno expected from peer
};

// ------------------------------------------------------------- fault plan

enum class FrameFate : std::uint8_t {
  kDeliver,
  kDrop,       ///< frame vanishes on the wire
  kDuplicate,  ///< frame arrives twice
  kDelay,      ///< frame is held and delivered late (reordered)
  kCorrupt,    ///< one byte of the frame is flipped in flight
};

/// Where inside an RC step a scheduled death fires.
enum class CrashPhase : std::uint8_t {
  /// At the top of the step, before the first collective — every survivor
  /// then parks in that step's exchange with an identical cursor.
  kStepStart,
  /// Inside the exchange, after its all-to-all returns and before the dirty
  /// flags retire: survivors have received and apply the dying rank's
  /// payload and abort at the next collective, while its recovery stash
  /// still holds those entries dirty, so they are re-sent after recovery.
  kMidExchange,
};

/// One scheduled rank death.
struct CrashPoint {
  Rank rank = 0;
  std::size_t at_step = 0;  ///< RC step at which the rank dies
  CrashPhase phase = CrashPhase::kStepStart;
};

struct FaultPlan {
  std::uint64_t seed = 0;
  // Per-frame probabilities, evaluated in this order; must sum to <= 1.
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  double corrupt = 0.0;
  /// Attempts 0..limit-1 of a frame may be faulted; later retransmits are
  /// always clean (bounded adversary — guarantees eventual delivery).
  std::uint32_t fault_attempt_limit = 3;
  std::vector<CrashPoint> crashes;

  [[nodiscard]] bool any_message_faults() const {
    return drop > 0.0 || duplicate > 0.0 || delay > 0.0 || corrupt > 0.0;
  }
  [[nodiscard]] bool any() const {
    return any_message_faults() || !crashes.empty();
  }
};

/// Evaluates a FaultPlan. Thread-safe: fate() is a pure function of its
/// arguments plus the seed; the counters are atomics; crash points fire
/// once (the fired flag survives supervisor relaunches, so a recovered run
/// does not re-kill the same rank at the same step during replay).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Fate of attempt `attempt` of frame (src, dst, seqno). Counts the
  /// returned fault in the matching counter.
  FrameFate fate(Rank src, Rank dst, std::uint32_t seqno, std::uint32_t attempt);

  /// Deterministic byte offset to flip for a kCorrupt fate.
  [[nodiscard]] std::size_t corrupt_offset(Rank src, Rank dst,
                                           std::uint32_t seqno,
                                           std::uint32_t attempt,
                                           std::size_t frame_size) const;

  /// One-shot crash hook, polled by rank code at each RC step boundary
  /// (kStepStart) and inside the exchange once its all-to-all has returned
  /// (kMidExchange). Only points matching `phase` are considered.
  bool should_crash(Rank rank, std::size_t step,
                    CrashPhase phase = CrashPhase::kStepStart);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  struct Counters {
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> duplicated{0};
    std::atomic<std::uint64_t> delayed{0};
    std::atomic<std::uint64_t> corrupted{0};
    std::atomic<std::uint64_t> crashes{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  [[nodiscard]] std::uint64_t frame_hash(Rank src, Rank dst, std::uint32_t seqno,
                                         std::uint32_t attempt) const;

  FaultPlan plan_;
  Counters counters_;
  std::vector<std::unique_ptr<std::atomic<bool>>> crash_fired_;
};

}  // namespace aacc::rt
