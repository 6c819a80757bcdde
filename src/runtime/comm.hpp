// Message-passing runtime: a World of P logical processors (threads), each
// holding a Comm endpoint. This is the repository's MPI substitute (see
// DESIGN.md): rank code is SPMD, communicates only through serialized
// messages, and all collectives are built from point-to-point sends so that
// byte counts and message counts are exact.
//
// Collectives provided (mirroring the subset the paper uses):
//   * barrier            — tree reduce + tree broadcast of an empty token
//   * broadcast          — binomial tree from a root
//   * all_to_all         — personalized all-to-all using the shift schedule
//   * all_reduce (sum/max/or)
//
// Every Comm records a per-rank ledger (bytes, messages, per-phase thread
// CPU seconds) and appends to a message log that logp.hpp replays to model
// network time under the paper's serialized schedule.
//
// Fault tolerance (docs/FAULTS.md): with TransportConfig::reliable on (or a
// FaultInjector installed), every payload travels as a checksummed frame
// with a per-(src,dst) sequence number; admission validates the CRC, drops
// duplicates, and reorders out-of-order frames; senders retry with
// exponential backoff. Every blocking wait goes through a timed path, a
// failed rank interrupts its peers' waits (PeerFailedError instead of a
// deadlock), and run_contained() reports per-rank failures without
// unwinding the driver.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"
#include "runtime/faults.hpp"
#include "runtime/logp.hpp"

namespace aacc::rt {

inline constexpr Rank kAnySource = -1;

struct Message {
  Rank src = 0;
  std::int32_t tag = 0;
  std::vector<std::byte> payload;
};

/// Reliable-frame layout: [seqno u32][crc u32][payload]. The CRC covers
/// (src, tag, seqno, payload), so header corruption is detected too.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Encodes a payload into a wire frame (exposed for frame-rejection tests).
[[nodiscard]] std::vector<std::byte> encode_frame(
    Rank src, std::int32_t tag, std::uint32_t seqno,
    std::span<const std::byte> payload);

/// Thread-safe mailbox with (source, tag) matching and per-sender FIFO.
class Mailbox {
 public:
  enum class TakeStatus : std::uint8_t {
    kOk,
    kTimeout,      ///< deadline expired with no matching message
    kClosed,       ///< poison token: mailbox shut down
    kInterrupted,  ///< a peer rank was marked failed
  };
  struct TakeResult {
    TakeStatus status = TakeStatus::kOk;
    Message msg;
  };

  enum class AdmitStatus : std::uint8_t {
    kAccepted,   ///< in-order (or buffered out-of-order) delivery
    kDuplicate,  ///< seqno already seen; frame discarded
    kCorrupt,    ///< CRC mismatch or truncated header; frame discarded
  };

  /// Unframed fast path (TransportConfig::reliable off).
  void put(Message m);

  /// Reliable path: validates the frame CRC, dedups on the per-source
  /// sequence number, and delivers in order (out-of-order frames are held
  /// in a reorder buffer until the gap fills). Runs on the *sender's*
  /// thread — it models the receiving NIC, so the sender learns the
  /// admission verdict synchronously and can retry without an ack round
  /// trip that would deadlock symmetric exchanges.
  AdmitStatus admit_frame(Rank src, std::int32_t tag,
                          std::vector<std::byte> frame);

  /// Blocks until a message matching (src or kAnySource, tag) is available.
  /// Throws MailboxClosedError if the mailbox is poisoned or interrupted.
  Message take(Rank src, std::int32_t tag);

  /// Timed wait. A non-positive timeout waits indefinitely (still
  /// interruptible via poison()/interrupt()). Matching messages already
  /// queued are drained before an interrupt fires.
  TakeResult take_for(Rank src, std::int32_t tag,
                      std::chrono::milliseconds timeout);

  /// Shutdown token: every pending and future wait returns kClosed.
  void poison();

  /// Sticky wake-up for peer-failure propagation: waits that would block
  /// return kInterrupted (queued matches still drain first).
  void interrupt();

  /// Clears queue, sequence streams, and poison/interrupt flags (start of a
  /// World run).
  void reset();

  /// Non-blocking check for a pending match (recv's failed-peer path).
  [[nodiscard]] bool has(Rank src, std::int32_t tag);

  /// Next frame seqno this mailbox expects from `src` (reliable transport
  /// only) — i.e. the seq of the message a stuck receiver is awaiting.
  /// Used by health supervision to name the exact stuck message.
  [[nodiscard]] std::uint32_t next_expected_seq(Rank src);

 private:
  struct Stream {
    std::uint32_t next = 0;                  ///< next expected seqno
    std::map<std::uint32_t, Message> held;   ///< out-of-order reorder buffer
  };

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  std::map<Rank, Stream> streams_;
  bool closed_ = false;
  bool interrupted_ = false;
};

/// Per-rank accounting.
struct RankLedger {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  /// Reliable-transport costs (zero when TransportConfig::reliable is off):
  /// frame-header bytes included in bytes_sent, and retransmitted frames
  /// included in messages_sent.
  std::uint64_t frame_overhead_bytes = 0;
  std::uint64_t retransmits = 0;
  /// Health-supervision escalations observed by this rank (zero when
  /// HealthConfig::enabled is off): peers that crossed the straggler /
  /// suspect deadline while awaited, and peers this rank declared dead.
  std::uint64_t health_stragglers = 0;
  std::uint64_t health_suspects = 0;
  std::uint64_t health_dead_declared = 0;
  /// Thread-CPU seconds spent computing, keyed by phase label.
  std::map<std::string, double> cpu_seconds;

  [[nodiscard]] double total_cpu_seconds() const {
    double t = 0.0;
    for (const auto& [k, v] : cpu_seconds) t += v;
    return t;
  }
};

class World;

/// Recv-side wait telemetry of one or more all-to-alls (Comm::all_to_all):
/// total wall seconds blocked in recvs, and the longest single blocked
/// interval with the peer whose arrival ended it (-1 until a recv blocked).
struct ExchangeWait {
  double seconds = 0.0;
  double blocked_on_seconds = 0.0;
  Rank blocked_on_peer = -1;
};

/// A rank's endpoint. Not thread-safe; owned by exactly one rank thread.
class Comm {
 public:
  Comm(World* world, Rank rank);

  [[nodiscard]] Rank rank() const { return rank_; }
  [[nodiscard]] Rank size() const;

  /// Point-to-point. send() never blocks; recv() blocks until a match, the
  /// transport timeout (TimeoutError), a peer failure (PeerFailedError), or
  /// shutdown (MailboxClosedError).
  void send(Rank dst, std::int32_t tag, std::vector<std::byte> payload);
  Message recv(Rank src, std::int32_t tag);

  void barrier();

  /// Binomial-tree broadcast; every rank (root included) returns the buffer.
  ///
  /// `replica` (optional) marks the payload as replicated data the caller
  /// can reconstruct locally (e.g. the change feed every rank already holds
  /// in its schedule). When the tree parent has failed before forwarding,
  /// the wait would otherwise be stuck forever; with a replica the rank
  /// substitutes its local copy and keeps forwarding down the tree, so
  /// every survivor completes the broadcast and parks in the next dense
  /// collective with coherent cursors (docs/FAULTS.md §Recovery policy
  /// ladder).
  std::vector<std::byte> broadcast(std::vector<std::byte> buf, Rank root,
                                   const std::vector<std::byte>* replica =
                                       nullptr);

  /// Personalized all-to-all: out[r] goes to rank r (out[rank()] is returned
  /// untouched). Returns in[r] = payload from rank r. Shift schedule with
  /// one message in flight: round s sends to rank + s, then blocks on the
  /// recv from rank - s. Naming the source keeps failure attribution exact:
  /// a wait aborts only when *that* peer died. When `wait` is non-null, each
  /// recv's blocked wall time is added to it.
  std::vector<std::vector<std::byte>> all_to_all(
      std::vector<std::vector<std::byte>> out, ExchangeWait* wait = nullptr);

  /// Gather: every rank contributes a buffer; the root returns all P
  /// buffers (indexed by source rank), other ranks return empty.
  std::vector<std::vector<std::byte>> gather(std::vector<std::byte> buf,
                                             Rank root);

  std::uint64_t all_reduce_sum(std::uint64_t value);
  std::uint64_t all_reduce_max(std::uint64_t value);
  bool all_reduce_or(bool value);

  /// Switches the CPU-accounting phase label; time since the last boundary
  /// is charged to the previous phase.
  void set_phase(const std::string& phase);
  /// Charges CPU seconds spent on this rank's behalf by other threads (an
  /// intra-rank worker pool) to the current phase.
  void charge_cpu(double seconds);

  [[nodiscard]] const RankLedger& ledger() const { return ledger_; }

  /// This rank's view of each peer's health (empty until the first
  /// supervised wait when HealthConfig::enabled, always empty otherwise).
  /// waited_seconds accumulates the silence attributed to the peer across
  /// awaited waits; state is the highest escalation reached (an arrival
  /// resets it to kOk).
  [[nodiscard]] const std::vector<PeerHealth>& peer_health() const {
    return peer_health_;
  }

  /// Sets the RC step that health supervision names when a wait on a
  /// peer stalls. Called by the engine at the top of each RC step.
  void set_rc_step(std::uint32_t step) { rc_step_ = step; }

 private:
  friend class World;

  std::uint64_t all_reduce(std::uint64_t value,
                           const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& op);
  /// Single egress point: every send — user p2p and collective fan-out —
  /// funnels through here so transport hardening and fault injection cover
  /// all traffic uniformly.
  void put_message(Rank dst, std::int32_t tag, std::vector<std::byte> payload,
                   OpKind kind, std::uint32_t op_id);
  void put_reliable(Rank dst, std::int32_t tag, std::vector<std::byte> payload,
                    OpKind kind, std::uint32_t op_id);
  void charge_send(Rank dst, std::int32_t tag, std::uint64_t wire_bytes,
                   OpKind kind, std::uint32_t op_id, bool retransmit);
  /// Releases frames held back by kDelay injection (to one destination, or
  /// all). Called on the next send to the same destination — after the new
  /// frame, producing genuine reordering — at every recv, and at rank exit.
  void flush_delayed(Rank dst);
  void flush_all_delayed();
  /// Health supervision (HealthConfig::enabled): attributes `delta` more
  /// seconds of awaited silence to `peer` (its current await now totalling
  /// `elapsed` seconds) and escalates its state through straggler ->
  /// suspect, recording a trace instant and a ledger count per escalation.
  /// Returns true once the peer crossed dead_after — the caller then
  /// declares it dead world-wide and aborts the wait.
  bool escalate_peer(Rank peer, double elapsed_seconds, double delta_seconds);
  void note_peer_ok(Rank peer);
  void account_cpu();
  void log_message(OpKind kind, Rank dst, std::uint64_t bytes, std::uint32_t op_id);
  [[nodiscard]] double thread_cpu_seconds() const;

  World* world_;
  Rank rank_;
  /// This rank's main trace track (null = tracing off). Installed by
  /// World::run_contained from the World's tracer; written only by the
  /// rank thread that owns this Comm.
  obs::TraceTrack* trace_ = nullptr;
  RankLedger ledger_;
  std::string phase_ = "init";
  double last_cpu_mark_ = 0.0;
  std::uint32_t op_seq_ = 0;  // collective sequence number (SPMD lockstep)
  /// Reliable transport: next outbound seqno per destination, and frames
  /// held in "the network" by delay injection.
  std::vector<std::uint32_t> next_seq_;
  struct DelayedFrame {
    std::int32_t tag;
    std::vector<std::byte> frame;
  };
  std::unordered_map<Rank, std::vector<DelayedFrame>> delayed_;
  /// The RC step the engine says we are in (set_rc_step).
  std::uint32_t rc_step_ = 0;
  /// Per-peer health ledger (sized lazily on the first supervised wait).
  std::vector<PeerHealth> peer_health_;
};

/// Spawns P rank threads, runs fn(Comm&) on each, joins, and keeps the
/// merged ledgers/logs for post-run analysis. Exceptions thrown by rank
/// code are rethrown from run(); run_contained() reports them instead.
class World {
 public:
  /// Per-rank outcome of a contained run.
  struct RunReport {
    /// One entry per rank; null where the rank completed normally.
    std::vector<std::exception_ptr> errors;
    /// Ranks with a non-null error, ascending.
    std::vector<Rank> failed;
    [[nodiscard]] bool ok() const { return failed.empty(); }
  };

  explicit World(Rank size, LogGPParams params = {},
                 TransportConfig transport = {});

  /// Runs one SPMD program. May be called repeatedly; ledgers accumulate.
  /// If any rank throws, rethrows one error (preferring a root cause over
  /// collateral PeerFailedError).
  void run(const std::function<void(Comm&)>& fn);

  /// Supervised variant: rank failures are contained and reported, the
  /// World survives, and surviving ranks fail fast (PeerFailedError) on
  /// their next blocking wait instead of deadlocking.
  RunReport run_contained(const std::function<void(Comm&)>& fn);

  /// Installs a fault injector (non-owning; must outlive runs). Forces the
  /// reliable transport on — faults act on wire frames.
  void install_faults(FaultInjector* injector);

  /// Installs a span tracer (non-owning; must outlive runs; null to
  /// detach). Each run's Comms then record per-message transport instants
  /// on their rank's main track.
  void install_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Arms peer-health supervision for subsequent runs: awaited silence is
  /// attributed per peer and escalates straggler -> suspect -> dead
  /// (docs/FAULTS.md §Health supervision).
  void install_health(const HealthConfig& health) { health_ = health; }
  [[nodiscard]] const HealthConfig& health() const { return health_; }

  /// Marks a rank failed mid-run and interrupts every blocking wait.
  void mark_failed(Rank r);

  /// Health-supervision verdict: declares `r` dead as observed by `by`
  /// (marks it failed and records the declaration). Idempotent — a rank
  /// already failed or declared is not re-declared, so racing observers
  /// produce one declaration.
  void declare_dead(Rank r, Rank by);

  /// Ranks declared dead by health supervision during the current/last
  /// run_contained (cleared at each run start). The supervisor treats
  /// these as root failures even when the rank never raised an error
  /// itself (a wedged peer has no exception to report).
  [[nodiscard]] std::vector<Rank> declared_dead() const;
  [[nodiscard]] bool any_failed() const {
    return any_failed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::vector<Rank> failed_ranks() const;

  [[nodiscard]] Rank size() const { return size_; }
  [[nodiscard]] const LogGPParams& params() const { return params_; }
  [[nodiscard]] const TransportConfig& transport() const { return transport_; }
  [[nodiscard]] FaultInjector* injector() const { return injector_; }

  /// Per-rank ledgers, merged message log, and modeled network time.
  [[nodiscard]] const std::vector<RankLedger>& ledgers() const { return ledgers_; }
  [[nodiscard]] const std::vector<MsgRecord>& message_log() const { return log_; }
  [[nodiscard]] double modeled_network_seconds() const;

  /// Max over ranks of compute CPU seconds.
  [[nodiscard]] double max_rank_cpu_seconds() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  [[nodiscard]] std::uint64_t total_messages() const;

  /// Resets ledgers and the message log (between experiment repetitions).
  void reset_accounting();

 private:
  friend class Comm;

  Mailbox& mailbox(Rank r) { return *mailboxes_[static_cast<std::size_t>(r)]; }
  void append_log(const MsgRecord& m);

  Rank size_;
  LogGPParams params_;
  TransportConfig transport_;
  HealthConfig health_;
  FaultInjector* injector_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<RankLedger> ledgers_;
  std::vector<MsgRecord> log_;
  std::mutex log_mu_;
  std::atomic<bool> any_failed_{false};
  mutable std::mutex failed_mu_;
  std::vector<Rank> failed_;
  std::vector<Rank> declared_dead_;  // guarded by failed_mu_
};

}  // namespace aacc::rt
