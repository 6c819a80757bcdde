#include "runtime/comm.hpp"

#include <algorithm>
#include <ctime>
#include <sstream>
#include <thread>

#include "runtime/serialize.hpp"

namespace aacc::rt {

// ----------------------------------------------------------------- framing

namespace {

std::uint32_t frame_checksum(Rank src, std::int32_t tag, std::uint32_t seqno,
                             std::span<const std::byte> payload) {
  // CRC over the logical header (src, tag, seqno) then the payload: a
  // flipped header byte or a truncation is as detectable as a payload flip.
  std::uint32_t crc = crc32_init();
  const std::uint32_t fields[3] = {static_cast<std::uint32_t>(src),
                                   static_cast<std::uint32_t>(tag), seqno};
  crc = crc32_update(
      crc, std::as_bytes(std::span<const std::uint32_t>(fields, 3)));
  crc = crc32_update(crc, payload);
  return crc32_final(crc);
}

}  // namespace

std::vector<std::byte> encode_frame(Rank src, std::int32_t tag,
                                    std::uint32_t seqno,
                                    std::span<const std::byte> payload) {
  ByteWriter w;
  w.write(seqno);
  w.write(frame_checksum(src, tag, seqno, payload));
  w.write_bytes(payload);
  return w.take();
}

// ---------------------------------------------------------------- Mailbox

void Mailbox::put(Message m) {
  {
    const std::lock_guard lock(mu_);
    queue_.push_back(std::move(m));
  }
  cv_.notify_all();
}

Mailbox::AdmitStatus Mailbox::admit_frame(Rank src, std::int32_t tag,
                                          std::vector<std::byte> frame) {
  if (frame.size() < kFrameHeaderBytes) return AdmitStatus::kCorrupt;
  std::uint32_t seqno = 0;
  std::uint32_t crc = 0;
  std::memcpy(&seqno, frame.data(), sizeof(seqno));
  std::memcpy(&crc, frame.data() + sizeof(seqno), sizeof(crc));
  const std::span<const std::byte> payload(frame.data() + kFrameHeaderBytes,
                                           frame.size() - kFrameHeaderBytes);
  if (crc != frame_checksum(src, tag, seqno, payload)) {
    return AdmitStatus::kCorrupt;
  }

  bool delivered = false;
  {
    const std::lock_guard lock(mu_);
    Stream& st = streams_[src];
    if (seqno < st.next || st.held.count(seqno) != 0) {
      return AdmitStatus::kDuplicate;
    }
    Message m{src, tag, std::vector<std::byte>(payload.begin(), payload.end())};
    if (seqno == st.next) {
      queue_.push_back(std::move(m));
      ++st.next;
      delivered = true;
      // Drain any buffered successors the gap was hiding.
      for (auto it = st.held.find(st.next); it != st.held.end();
           it = st.held.find(st.next)) {
        queue_.push_back(std::move(it->second));
        st.held.erase(it);
        ++st.next;
      }
    } else {
      st.held.emplace(seqno, std::move(m));
    }
  }
  if (delivered) cv_.notify_all();
  return AdmitStatus::kAccepted;
}

Message Mailbox::take(Rank src, std::int32_t tag) {
  auto res = take_for(src, tag, std::chrono::milliseconds{0});
  switch (res.status) {
    case TakeStatus::kOk:
      return std::move(res.msg);
    case TakeStatus::kClosed:
      throw MailboxClosedError("mailbox poisoned while waiting");
    default:
      throw MailboxClosedError("mailbox wait interrupted");
  }
}

Mailbox::TakeResult Mailbox::take_for(Rank src, std::int32_t tag,
                                      std::chrono::milliseconds timeout) {
  const bool timed = timeout.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock lock(mu_);
  for (;;) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->tag == tag && (src == kAnySource || it->src == src)) {
        TakeResult res{TakeStatus::kOk, std::move(*it)};
        queue_.erase(it);
        return res;
      }
    }
    // Only after draining queued matches: shutdown and interrupt verdicts.
    // The interrupt is consumed (the mailbox has a single owner thread):
    // the caller decides whether its wait is genuinely stuck on a failed
    // peer or should resume; a later mark_failed interrupts again.
    if (closed_) return {TakeStatus::kClosed, {}};
    if (interrupted_) {
      interrupted_ = false;
      return {TakeStatus::kInterrupted, {}};
    }
    if (timed) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        // Re-scan once: a message may have raced the timeout.
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
          if (it->tag == tag && (src == kAnySource || it->src == src)) {
            TakeResult res{TakeStatus::kOk, std::move(*it)};
            queue_.erase(it);
            return res;
          }
        }
        return {TakeStatus::kTimeout, {}};
      }
    } else {
      cv_.wait(lock);
    }
  }
}

void Mailbox::poison() {
  {
    const std::lock_guard lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

void Mailbox::interrupt() {
  {
    const std::lock_guard lock(mu_);
    interrupted_ = true;
  }
  cv_.notify_all();
}

void Mailbox::reset() {
  const std::lock_guard lock(mu_);
  queue_.clear();
  streams_.clear();
  closed_ = false;
  interrupted_ = false;
}

bool Mailbox::has(Rank src, std::int32_t tag) {
  const std::lock_guard lock(mu_);
  for (const Message& m : queue_) {
    if (m.tag == tag && (src == kAnySource || m.src == src)) return true;
  }
  return false;
}

std::uint32_t Mailbox::next_expected_seq(Rank src) {
  const std::lock_guard lock(mu_);
  const auto it = streams_.find(src);
  return it == streams_.end() ? 0 : it->second.next;
}

// ------------------------------------------------------------------- Comm

namespace {

// Tag layout: user tags are non-negative; collectives use negative tags
// derived from the per-rank collective sequence number, which stays in
// lockstep across ranks because collectives are SPMD.
constexpr std::int32_t collective_tag(std::uint32_t op_seq) {
  return -1 - static_cast<std::int32_t>(op_seq & 0x3fffffffU);
}

}  // namespace

Comm::Comm(World* world, Rank rank)
    : world_(world), rank_(rank) {
  last_cpu_mark_ = thread_cpu_seconds();
  if (world_->transport().reliable) {
    next_seq_.assign(static_cast<std::size_t>(world_->size()), 0);
  }
}

Rank Comm::size() const { return world_->size(); }

double Comm::thread_cpu_seconds() const {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void Comm::account_cpu() {
  const double now = thread_cpu_seconds();
  ledger_.cpu_seconds[phase_] += now - last_cpu_mark_;
  last_cpu_mark_ = now;
}

void Comm::set_phase(const std::string& phase) {
  account_cpu();
  phase_ = phase;
}

void Comm::charge_cpu(double seconds) { ledger_.cpu_seconds[phase_] += seconds; }

void Comm::log_message(OpKind kind, Rank dst, std::uint64_t bytes,
                       std::uint32_t op_id) {
  world_->append_log(MsgRecord{op_id, kind, rank_, dst, bytes});
}

void Comm::charge_send(Rank dst, std::int32_t tag, std::uint64_t wire_bytes,
                       OpKind kind, std::uint32_t op_id, bool retransmit) {
  ledger_.bytes_sent += wire_bytes;
  ++ledger_.messages_sent;
  if (retransmit) ++ledger_.retransmits;
  if (trace_ != nullptr) {
    // One instant per wire frame on this rank's track. The name encodes
    // kind (retransmits override it — they are the rare, interesting case)
    // and the arg carries the wire size.
    static constexpr const char* kKindName[] = {"msg:p2p", "msg:a2a",
                                                "msg:bcast", "msg:reduce"};
    trace_->instant(retransmit ? "msg:retransmit"
                               : kKindName[static_cast<std::size_t>(kind)],
                    "bytes", wire_bytes);
  }
  if (tag >= 0 || kind != OpKind::kPointToPoint) {
    // Collective traffic carries its op id; plain p2p with a negative tag
    // (reserved) stays unlogged, matching the unhardened path.
    log_message(kind, dst, wire_bytes, op_id);
  }
}

void Comm::put_message(Rank dst, std::int32_t tag,
                       std::vector<std::byte> payload, OpKind kind,
                       std::uint32_t op_id) {
  if (world_->transport().reliable) {
    put_reliable(dst, tag, std::move(payload), kind, op_id);
    return;
  }
  charge_send(dst, tag, payload.size(), kind, op_id, false);
  world_->mailbox(dst).put(Message{rank_, tag, std::move(payload)});
}

void Comm::put_reliable(Rank dst, std::int32_t tag,
                        std::vector<std::byte> payload, OpKind kind,
                        std::uint32_t op_id) {
  if (next_seq_.empty()) {
    // Transport was enabled after this Comm was built (install_faults
    // between runs); size lazily.
    next_seq_.assign(static_cast<std::size_t>(size()), 0);
  }
  const std::uint32_t seq = next_seq_[static_cast<std::size_t>(dst)]++;
  FaultInjector* inj = world_->injector();
  Mailbox& box = world_->mailbox(dst);
  const TransportConfig& tc = world_->transport();

  for (std::uint32_t attempt = 0; attempt < tc.max_retries; ++attempt) {
    auto frame = encode_frame(rank_, tag, seq, payload);
    const FrameFate fate =
        inj != nullptr ? inj->fate(rank_, dst, seq, attempt) : FrameFate::kDeliver;
    ledger_.frame_overhead_bytes += kFrameHeaderBytes;
    charge_send(dst, tag, frame.size(), kind, op_id, attempt > 0);

    if (fate == FrameFate::kDrop) {
      // The frame never reaches the receiver's NIC; back off and retry.
    } else if (fate == FrameFate::kDelay) {
      // Held "in the network": delivered after the next frame to this
      // destination (genuine reordering) or at the next recv/rank exit.
      delayed_[dst].push_back(DelayedFrame{tag, std::move(frame)});
      return;
    } else {
      if (fate == FrameFate::kCorrupt) {
        const std::size_t off =
            inj->corrupt_offset(rank_, dst, seq, attempt, frame.size());
        frame[off] ^= std::byte{0x40};
      }
      const bool duplicate = fate == FrameFate::kDuplicate;
      std::vector<std::byte> copy;
      if (duplicate) copy = frame;
      const auto verdict = box.admit_frame(rank_, tag, std::move(frame));
      if (duplicate) {
        // The duplicate is wire traffic too; the receiver's seqno dedup
        // discards it.
        charge_send(dst, tag, copy.size(), kind, op_id, true);
        ledger_.frame_overhead_bytes += kFrameHeaderBytes;
        (void)box.admit_frame(rank_, tag, std::move(copy));
      }
      if (verdict != Mailbox::AdmitStatus::kCorrupt) {
        flush_delayed(dst);
        return;
      }
    }
    // Exponential backoff with deterministic per-frame jitter: when a
    // faulted round drops many frames at once, every sender would otherwise
    // wake on the same schedule and retransmit in lockstep. The jitter is a
    // pure hash of (seed, src, dst, seqno, attempt) — the same scheme as
    // the frame fates — so chaos runs stay reproducible.
    const auto shift = std::min<std::uint32_t>(attempt, 6);
    const double jitter = retry_backoff_jitter(
        inj != nullptr ? inj->plan().seed : 0, rank_, dst, seq, attempt);
    std::this_thread::sleep_for(std::chrono::duration_cast<
                                std::chrono::nanoseconds>(
        tc.retry_backoff * (1U << shift) * jitter));
  }
  std::ostringstream os;
  os << "rank " << rank_ << ": frame (dst=" << dst << ", tag=" << tag
     << ", seq=" << seq << ") rejected after " << tc.max_retries
     << " attempts";
  throw CorruptFrameError(os.str());
}

void Comm::flush_delayed(Rank dst) {
  const auto it = delayed_.find(dst);
  if (it == delayed_.end()) return;
  auto frames = std::move(it->second);
  delayed_.erase(it);
  for (auto& f : frames) {
    // Held frames are intact: admission can only accept or dedup them.
    (void)world_->mailbox(dst).admit_frame(rank_, f.tag, std::move(f.frame));
  }
}

void Comm::flush_all_delayed() {
  while (!delayed_.empty()) flush_delayed(delayed_.begin()->first);
}

void Comm::send(Rank dst, std::int32_t tag, std::vector<std::byte> payload) {
  AACC_CHECK(dst >= 0 && dst < size());
  account_cpu();
  put_message(dst, tag, std::move(payload), OpKind::kPointToPoint, 0);
}

bool Comm::escalate_peer(Rank peer, double elapsed_seconds,
                         double delta_seconds) {
  if (peer_health_.empty()) {
    peer_health_.resize(static_cast<std::size_t>(size()));
  }
  PeerHealth& ph = peer_health_[static_cast<std::size_t>(peer)];
  ph.waited_seconds += delta_seconds;
  if (world_->transport().reliable) {
    // Keep the silence record pointed at the exact awaited message while
    // the wait drags on, so even a straggler escalation names it.
    ph.has_awaited = true;
    ph.awaited_step = rc_step_;
    ph.awaited_seq = world_->mailbox(rank_).next_expected_seq(peer);
  }
  const HealthConfig& hc = world_->health();
  const auto threshold = [](std::chrono::milliseconds ms) {
    return static_cast<double>(ms.count()) * 1e-3;
  };
  if (static_cast<int>(ph.state) < static_cast<int>(PeerState::kStraggler) &&
      elapsed_seconds >= threshold(hc.straggler_after)) {
    ph.state = PeerState::kStraggler;
    ++ledger_.health_stragglers;
    if (trace_ != nullptr) {
      trace_->instant("health:straggler", "peer",
                      static_cast<std::uint64_t>(peer));
    }
  }
  if (static_cast<int>(ph.state) < static_cast<int>(PeerState::kSuspect) &&
      elapsed_seconds >= threshold(hc.suspect_after)) {
    ph.state = PeerState::kSuspect;
    ++ledger_.health_suspects;
    if (trace_ != nullptr) {
      trace_->instant("health:suspect", "peer",
                      static_cast<std::uint64_t>(peer));
    }
  }
  return static_cast<int>(ph.state) < static_cast<int>(PeerState::kDead) &&
         elapsed_seconds >= threshold(hc.dead_after);
}

void Comm::note_peer_ok(Rank peer) {
  if (peer_health_.empty()) return;
  peer_health_[static_cast<std::size_t>(peer)].state = PeerState::kOk;
}

Message Comm::recv(Rank src, std::int32_t tag) {
  account_cpu();
  flush_all_delayed();
  const auto timeout = world_->transport().recv_timeout;
  const HealthConfig& hc = world_->health();
  // Abort only a wait that is genuinely stuck: the awaited sender (or,
  // for an any-source wait, anyone) is dead. A wait on a live peer
  // resumes — its message is still coming, and letting every survivor
  // run until it actually needs a dead rank is what parks them all in
  // the same collective with identical cursors (docs/FAULTS.md).
  const auto throw_if_stuck = [&] {
    const auto failed = world_->failed_ranks();
    const bool stuck =
        src == kAnySource
            ? !failed.empty()
            : std::find(failed.begin(), failed.end(), src) != failed.end();
    if (!stuck) return failed.empty();
    // Attribute the abort to the earliest failure, not the awaited peer: a
    // collaterally-dead src is a symptom, and the supervisor's root
    // classification reads this peer as the cascade's origin.
    std::ostringstream os;
    os << "rank " << rank_ << ": wait for (src=" << src << ", tag=" << tag
       << ") aborted; rank " << failed.front() << " failed first";
    throw PeerFailedError(failed.front(), os.str());
  };
  const bool timed = timeout.count() > 0;
  const auto wait_started = std::chrono::steady_clock::now();
  const auto deadline = wait_started + timeout;
  double attributed = 0.0;  // seconds of this await already charged to peers
  for (;;) {
    // Checked before every wait, not just on interrupt delivery: the
    // mailbox interrupt is one-shot, and this rank may have consumed it
    // inside an earlier (resumed) wait before reaching the recv that is
    // actually stuck on the failed peer. Queued matches still win — a
    // rank's sends all happen before it can be marked failed, so a
    // message already admitted must be drained, not abandoned.
    if (world_->any_failed() && !world_->mailbox(rank_).has(src, tag)) {
      (void)throw_if_stuck();
    }
    // Health supervision slices the blocking wait at straggler_after
    // granularity so awaited silence can be attributed and escalated
    // before the transport watchdog fires; with supervision off the slice
    // IS the watchdog timeout and the legacy behavior is unchanged.
    std::chrono::milliseconds slice = timeout;
    if (hc.enabled) {
      slice = timed ? std::min(slice, hc.straggler_after) : hc.straggler_after;
    }
    auto res = world_->mailbox(rank_).take_for(src, tag, slice);
    switch (res.status) {
      case Mailbox::TakeStatus::kOk: {
        if (hc.enabled) note_peer_ok(res.msg.src);
        ledger_.bytes_received += res.msg.payload.size();
        ++ledger_.messages_received;
        return std::move(res.msg);
      }
      case Mailbox::TakeStatus::kInterrupted: {
        if (!throw_if_stuck()) continue;  // awaited peer is alive; re-wait
        // Interrupted outside the mark_failed protocol (direct
        // Mailbox::interrupt, e.g. from a test): treat as shutdown.
        throw MailboxClosedError("rank " + std::to_string(rank_) +
                                 ": wait interrupted with no failed rank");
      }
      case Mailbox::TakeStatus::kClosed:
        throw MailboxClosedError("rank " + std::to_string(rank_) +
                                 ": mailbox closed while receiving");
      case Mailbox::TakeStatus::kTimeout: {
        const auto now = std::chrono::steady_clock::now();
        if (hc.enabled) {
          const double elapsed =
              std::chrono::duration<double>(now - wait_started).count();
          const double delta = elapsed - attributed;
          attributed = elapsed;
          // Attribute the silence to the named source; an any-source wait
          // has no one to blame.
          if (src != kAnySource && escalate_peer(src, elapsed, delta)) {
            PeerHealth& vh = peer_health_[static_cast<std::size_t>(src)];
            vh.state = PeerState::kDead;
            // Name the exact stuck message: the RC step this rank is in
            // (SPMD lockstep, so the peer was sending for the same
            // step) and the next frame seqno expected from it. Only the
            // reliable transport has per-peer seqno streams to consult.
            const bool rel = world_->transport().reliable;
            vh.has_awaited = rel;
            vh.awaited_step = rc_step_;
            vh.awaited_seq =
                rel ? world_->mailbox(rank_).next_expected_seq(src) : 0;
            ++ledger_.health_dead_declared;
            if (trace_ != nullptr) {
              trace_->instant("health:dead", "peer",
                              static_cast<std::uint64_t>(src));
            }
            world_->declare_dead(src, rank_);
            std::ostringstream os;
            os << "rank " << rank_ << ": peer " << src
               << " declared dead by health supervision after "
               << hc.dead_after.count() << " ms of silence on (src=" << src
               << ", tag=" << tag << ")";
            if (rel) {
              os << ", stuck awaiting flow (step=" << vh.awaited_step
                 << ", seq=" << vh.awaited_seq << ") from it";
            }
            throw PeerFailedError(src, os.str());
          }
        }
        if (!timed || now < deadline) continue;  // only a health slice expired
        std::ostringstream os;
        os << "rank " << rank_ << ": recv (src=" << src << ", tag=" << tag
           << ") timed out after " << timeout.count() << " ms";
        throw TimeoutError(os.str());
      }
    }
  }
}

std::vector<std::byte> Comm::broadcast(std::vector<std::byte> buf, Rank root,
                                       const std::vector<std::byte>* replica) {
  const Rank P = size();
  const std::int32_t tag = collective_tag(op_seq_);
  const std::uint32_t op = op_seq_++;
  const Rank vr = ((rank_ - root) % P + P) % P;  // virtual rank, root at 0

  if (vr != 0) {
    // The binomial-tree parent is vr with its highest bit cleared. Naming
    // it (instead of kAnySource) lets an interrupted wait distinguish "my
    // parent died" from "some unrelated rank died while my copy is still
    // in flight" — survivors of a crash must drain in-flight broadcasts
    // and park in the next dense collective (docs/FAULTS.md).
    Rank span = 1;
    while (span * 2 <= vr) span *= 2;
    const Rank parent = (vr - span + root) % P;
    try {
      Message m = recv(parent, tag);
      buf = std::move(m.payload);
    } catch (const PeerFailedError&) {
      // The parent died without forwarding. For replicated payloads the
      // content is reconstructible locally; substitute it and keep the
      // tree going so siblings below this rank don't starve too — the
      // whole surviving tree then finishes the broadcast and stops at the
      // *next* collective, which is what keeps survivor cursors coherent
      // for the recovery stash (docs/FAULTS.md §Recovery policy
      // ladder).
      if (replica == nullptr) throw;
      buf = *replica;
    }
  }
  // Forward down the binomial tree: vr sends to vr + 2^s for every s with
  // 2^s > vr (vr = 0 sends to 1, 2, 4, ...).
  for (Rank span = 1; span < P; span *= 2) {
    if (vr < span && vr + span < P) {
      const Rank dst = (vr + span + root) % P;
      put_message(dst, tag, buf, OpKind::kBroadcast, op);
    }
  }
  return buf;
}

std::vector<std::vector<std::byte>> Comm::all_to_all(
    std::vector<std::vector<std::byte>> out, ExchangeWait* wait) {
  const Rank P = size();
  AACC_CHECK(static_cast<Rank>(out.size()) == P);
  const std::int32_t tag = collective_tag(op_seq_);
  const std::uint32_t op = op_seq_++;
  std::vector<std::vector<std::byte>> in(static_cast<std::size_t>(P));
  in[static_cast<std::size_t>(rank_)] =
      std::move(out[static_cast<std::size_t>(rank_)]);
  for (Rank s = 1; s < P; ++s) {
    const Rank dst = (rank_ + s) % P;
    const Rank src = (rank_ - s + P) % P;
    put_message(dst, tag, std::move(out[static_cast<std::size_t>(dst)]),
                OpKind::kAllToAll, op);
    const auto t0 = std::chrono::steady_clock::now();
    Message m = recv(src, tag);
    if (wait != nullptr) {
      const double waited =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      wait->seconds += waited;
      // Live blocked-on attribution: the peer whose arrival ended the
      // longest single blocked interval is who this rank was waiting for.
      if (waited > wait->blocked_on_seconds) {
        wait->blocked_on_seconds = waited;
        wait->blocked_on_peer = src;
      }
    }
    in[static_cast<std::size_t>(src)] = std::move(m.payload);
  }
  return in;
}

std::vector<std::vector<std::byte>> Comm::gather(std::vector<std::byte> buf,
                                                 Rank root) {
  const Rank P = size();
  const std::int32_t tag = collective_tag(op_seq_);
  const std::uint32_t op = op_seq_++;
  std::vector<std::vector<std::byte>> out;
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(P));
    out[static_cast<std::size_t>(root)] = std::move(buf);
    for (Rank q = 0; q < P; ++q) {
      if (q == root) continue;
      Message m = recv(q, tag);
      out[static_cast<std::size_t>(q)] = std::move(m.payload);
    }
  } else {
    put_message(root, tag, std::move(buf), OpKind::kReduce, op);
  }
  return out;
}

std::uint64_t Comm::all_reduce(
    std::uint64_t value,
    const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& op) {
  const Rank P = size();
  const std::int32_t tag = collective_tag(op_seq_);
  const std::uint32_t opid = op_seq_++;

  // Binomial-tree reduce to rank 0.
  for (Rank span = 1; span < P; span *= 2) {
    if ((rank_ & span) != 0) {
      ByteWriter w;
      w.write(value);
      put_message(rank_ - span, tag, w.take(), OpKind::kReduce, opid);
      break;
    }
    if (rank_ + span < P) {
      Message m = recv(rank_ + span, tag);
      ByteReader r(m.payload);
      value = op(value, r.read<std::uint64_t>());
    }
  }
  // Broadcast the result back down.
  ByteWriter w;
  w.write(value);
  auto buf = broadcast(w.take(), 0);
  ByteReader r(buf);
  return r.read<std::uint64_t>();
}

std::uint64_t Comm::all_reduce_sum(std::uint64_t value) {
  return all_reduce(value, [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

std::uint64_t Comm::all_reduce_max(std::uint64_t value) {
  return all_reduce(value,
                    [](std::uint64_t a, std::uint64_t b) { return a > b ? a : b; });
}

bool Comm::all_reduce_or(bool value) {
  return all_reduce_sum(value ? 1 : 0) != 0;
}

void Comm::barrier() { (void)all_reduce_sum(0); }

// ------------------------------------------------------------------ World

World::World(Rank size, LogGPParams params, TransportConfig transport)
    : size_(size), params_(params), transport_(transport) {
  AACC_CHECK(size >= 1);
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (Rank r = 0; r < size; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  ledgers_.resize(static_cast<std::size_t>(size));
}

void World::install_faults(FaultInjector* injector) {
  injector_ = injector;
  if (injector_ != nullptr) transport_.reliable = true;
}

void World::mark_failed(Rank r) {
  {
    // Insertion order is failure order: front() is the first rank to die,
    // so interrupted waits attribute their PeerFailedError to the root
    // cause rather than a collateral casualty. Idempotent — a rank can be
    // declared dead by health supervision and then fail on its own.
    const std::lock_guard lock(failed_mu_);
    if (std::find(failed_.begin(), failed_.end(), r) != failed_.end()) return;
    failed_.push_back(r);
  }
  any_failed_.store(true, std::memory_order_release);
  for (auto& box : mailboxes_) box->interrupt();
}

void World::declare_dead(Rank r, Rank by) {
  {
    const std::lock_guard lock(failed_mu_);
    // One declaration per rank per run, and none for a rank that already
    // failed on its own (its real error is the better root cause).
    if (std::find(failed_.begin(), failed_.end(), r) != failed_.end()) return;
    if (std::find(declared_dead_.begin(), declared_dead_.end(), r) !=
        declared_dead_.end()) {
      return;
    }
    declared_dead_.push_back(r);
  }
  (void)by;  // attribution lives in the declarer's ledger/trace
  mark_failed(r);
}

std::vector<Rank> World::failed_ranks() const {
  const std::lock_guard lock(failed_mu_);
  return failed_;
}

std::vector<Rank> World::declared_dead() const {
  const std::lock_guard lock(failed_mu_);
  return declared_dead_;
}

void World::run(const std::function<void(Comm&)>& fn) {
  const RunReport report = run_contained(fn);
  if (report.ok()) return;
  // Prefer a root cause: collateral PeerFailedError just says "someone else
  // died first".
  for (const Rank r : report.failed) {
    const auto& e = report.errors[static_cast<std::size_t>(r)];
    try {
      std::rethrow_exception(e);
    } catch (const PeerFailedError&) {
      continue;
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  std::rethrow_exception(report.errors[static_cast<std::size_t>(report.failed.front())]);
}

World::RunReport World::run_contained(const std::function<void(Comm&)>& fn) {
  // Fresh failure state and transport streams: Comm seqnos restart at zero
  // each run, and a failed previous run may have left undelivered frames.
  any_failed_.store(false, std::memory_order_release);
  {
    const std::lock_guard lock(failed_mu_);
    failed_.clear();
    declared_dead_.clear();
  }
  for (auto& box : mailboxes_) box->reset();

  std::vector<std::thread> threads;
  RunReport report;
  report.errors.resize(static_cast<std::size_t>(size_));
  std::vector<std::unique_ptr<Comm>> comms(static_cast<std::size_t>(size_));
  for (Rank r = 0; r < size_; ++r) {
    comms[static_cast<std::size_t>(r)] = std::make_unique<Comm>(this, r);
    if (tracer_ != nullptr) {
      comms[static_cast<std::size_t>(r)]->trace_ = &tracer_->track(r);
    }
  }
  threads.reserve(static_cast<std::size_t>(size_));
  for (Rank r = 0; r < size_; ++r) {
    threads.emplace_back([&, r] {
      Comm& comm = *comms[static_cast<std::size_t>(r)];
      // The Comm was constructed on the driver thread; CPU accounting must
      // baseline against *this* thread's clock.
      comm.last_cpu_mark_ = comm.thread_cpu_seconds();
      try {
        fn(comm);
        // Frames still held by delay injection leave the NIC now; a crashed
        // rank (exception path) loses them, like real in-flight traffic.
        comm.flush_all_delayed();
        comm.account_cpu();
      } catch (...) {
        report.errors[static_cast<std::size_t>(r)] = std::current_exception();
        // Wake every peer blocked on this rank: they fail fast with
        // PeerFailedError instead of deadlocking (or timing out).
        mark_failed(r);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Merge ledgers before error propagation so partial accounting survives.
  for (Rank r = 0; r < size_; ++r) {
    const RankLedger& src = comms[static_cast<std::size_t>(r)]->ledger();
    RankLedger& dst = ledgers_[static_cast<std::size_t>(r)];
    dst.bytes_sent += src.bytes_sent;
    dst.bytes_received += src.bytes_received;
    dst.messages_sent += src.messages_sent;
    dst.messages_received += src.messages_received;
    dst.frame_overhead_bytes += src.frame_overhead_bytes;
    dst.retransmits += src.retransmits;
    dst.health_stragglers += src.health_stragglers;
    dst.health_suspects += src.health_suspects;
    dst.health_dead_declared += src.health_dead_declared;
    for (const auto& [phase, secs] : src.cpu_seconds) {
      dst.cpu_seconds[phase] += secs;
    }
  }
  for (Rank r = 0; r < size_; ++r) {
    if (report.errors[static_cast<std::size_t>(r)]) report.failed.push_back(r);
  }
  return report;
}

void World::append_log(const MsgRecord& m) {
  const std::lock_guard lock(log_mu_);
  log_.push_back(m);
}

double World::modeled_network_seconds() const {
  return rt::modeled_network_seconds(log_, params_, size_);
}

double World::max_rank_cpu_seconds() const {
  double t = 0.0;
  for (const auto& l : ledgers_) t = std::max(t, l.total_cpu_seconds());
  return t;
}

std::uint64_t World::total_bytes() const {
  std::uint64_t b = 0;
  for (const auto& l : ledgers_) b += l.bytes_sent;
  return b;
}

std::uint64_t World::total_messages() const {
  std::uint64_t m = 0;
  for (const auto& l : ledgers_) m += l.messages_sent;
  return m;
}

void World::reset_accounting() {
  for (auto& l : ledgers_) l = RankLedger{};
  const std::lock_guard lock(log_mu_);
  log_.clear();
}

}  // namespace aacc::rt
