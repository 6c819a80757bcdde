// Transport hardening and fault injection: frame integrity, mailbox
// dedup/reorder/timeouts, deterministic injector, crash containment, and
// exactness of the reliable transport under a hostile wire.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "runtime/comm.hpp"
#include "runtime/serialize.hpp"

namespace aacc::rt {
namespace {

std::vector<std::byte> payload_of(std::uint64_t v) {
  ByteWriter w;
  w.write(v);
  return w.take();
}

std::uint64_t value_of(const Message& m) {
  ByteReader r(m.payload);
  return r.read<std::uint64_t>();
}

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjector, FatesAreAPureFunctionOfTheSeed) {
  FaultPlan plan;
  plan.seed = 77;
  plan.drop = 0.2;
  plan.duplicate = 0.2;
  plan.delay = 0.2;
  plan.corrupt = 0.2;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (std::uint32_t seq = 0; seq < 200; ++seq) {
    for (std::uint32_t attempt = 0; attempt < 4; ++attempt) {
      EXPECT_EQ(a.fate(0, 1, seq, attempt), b.fate(0, 1, seq, attempt));
    }
  }
  // A different seed must not reproduce the same fate sequence.
  plan.seed = 78;
  FaultInjector c(plan);
  bool differs = false;
  for (std::uint32_t seq = 0; seq < 200 && !differs; ++seq) {
    differs = a.fate(1, 0, seq, 0) != c.fate(1, 0, seq, 0);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, AttemptLimitBoundsTheAdversary) {
  FaultPlan plan;
  plan.drop = 1.0;  // every in-budget attempt is dropped
  plan.fault_attempt_limit = 3;
  FaultInjector inj(plan);
  for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
    EXPECT_EQ(inj.fate(0, 1, 5, attempt), FrameFate::kDrop);
  }
  // Beyond the limit the frame always goes through: bounded retries suffice.
  EXPECT_EQ(inj.fate(0, 1, 5, 3), FrameFate::kDeliver);
  EXPECT_EQ(inj.counters().dropped.load(), 3u);
}

TEST(FaultInjector, RejectsImpossibleProbabilities) {
  FaultPlan plan;
  plan.drop = 0.8;
  plan.corrupt = 0.5;
  EXPECT_THROW(FaultInjector{plan}, std::logic_error);
}

TEST(FaultInjector, CrashPointFiresExactlyOnce) {
  FaultPlan plan;
  plan.crashes.push_back({2, 4});
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.should_crash(2, 3));
  EXPECT_FALSE(inj.should_crash(1, 4));
  EXPECT_TRUE(inj.should_crash(2, 4));
  // One-shot: a recovered run replaying step 4 must not re-kill rank 2.
  EXPECT_FALSE(inj.should_crash(2, 4));
  EXPECT_EQ(inj.counters().crashes.load(), 1u);
}

TEST(FaultInjector, CorruptOffsetStaysInsideTheFrame) {
  FaultPlan plan;
  plan.corrupt = 1.0;
  FaultInjector inj(plan);
  for (std::uint32_t seq = 0; seq < 64; ++seq) {
    EXPECT_LT(inj.corrupt_offset(0, 1, seq, 0, 13), 13u);
  }
}

// --------------------------------------------------------- retry jitter

TEST(RetryJitter, IsAPureFunctionOfTheFrameTuple) {
  // Reproducibility contract: the backoff schedule of a faulted run is a
  // pure function of (seed, src, dst, seqno, attempt), so re-running a
  // chaos seed replays the identical retry storm.
  for (std::uint32_t attempt = 0; attempt < 8; ++attempt) {
    EXPECT_EQ(retry_backoff_jitter(42, 0, 1, 7, attempt),
              retry_backoff_jitter(42, 0, 1, 7, attempt));
  }
}

TEST(RetryJitter, StaysInTheHalfOpenUnitBand) {
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 0xFFFFFFFFFFFFFFFFull}) {
    for (std::uint32_t seq = 0; seq < 32; ++seq) {
      for (std::uint32_t attempt = 0; attempt < 8; ++attempt) {
        const double j = retry_backoff_jitter(seed, 2, 3, seq, attempt);
        EXPECT_GE(j, 0.5);
        EXPECT_LT(j, 1.5);
      }
    }
  }
}

TEST(RetryJitter, SpreadsAcrossAttemptsAndPeers) {
  // The whole point: concurrent senders (and successive attempts of one
  // sender) must not share a factor, or the retry storm stays in lockstep.
  const double base = retry_backoff_jitter(7, 0, 1, 0, 0);
  bool attempt_varies = false;
  for (std::uint32_t attempt = 1; attempt < 8; ++attempt) {
    if (retry_backoff_jitter(7, 0, 1, 0, attempt) != base) {
      attempt_varies = true;
    }
  }
  EXPECT_TRUE(attempt_varies);
  bool peer_varies = false;
  for (Rank src = 0; src < 8; ++src) {
    if (retry_backoff_jitter(7, src, 1, 0, 0) != base) peer_varies = true;
  }
  EXPECT_TRUE(peer_varies);
}

// ------------------------------------------------------- frame admission

TEST(Frame, CorruptedByteIsRejected) {
  const auto payload = payload_of(0xDEADBEEF);
  Mailbox mb;
  for (std::size_t flip = 0; flip < kFrameHeaderBytes + payload.size(); ++flip) {
    auto frame = encode_frame(3, 7, 0, payload);
    frame[flip] ^= std::byte{0x01};
    EXPECT_EQ(mb.admit_frame(3, 7, std::move(frame)),
              Mailbox::AdmitStatus::kCorrupt)
        << "flip at byte " << flip;
  }
  EXPECT_FALSE(mb.has(3, 7));
}

TEST(Frame, TruncatedFrameIsRejected) {
  auto frame = encode_frame(0, 1, 0, payload_of(42));
  Mailbox mb;
  for (std::size_t len = 0; len < kFrameHeaderBytes; ++len) {
    auto cut = frame;
    cut.resize(len);
    EXPECT_EQ(mb.admit_frame(0, 1, std::move(cut)),
              Mailbox::AdmitStatus::kCorrupt);
  }
  // Truncating the payload breaks the CRC too.
  auto cut = frame;
  cut.pop_back();
  EXPECT_EQ(mb.admit_frame(0, 1, std::move(cut)),
            Mailbox::AdmitStatus::kCorrupt);
}

TEST(Frame, CrcCoversHeaderFields) {
  // The checksum binds (src, tag, seqno): replaying a valid frame under a
  // different identity must fail validation, not deliver.
  auto frame = encode_frame(2, 9, 0, payload_of(1));
  Mailbox mb;
  EXPECT_EQ(mb.admit_frame(4, 9, std::move(frame)),
            Mailbox::AdmitStatus::kCorrupt);
}

TEST(Frame, DuplicateSeqnoIsDropped) {
  Mailbox mb;
  auto frame = encode_frame(1, 5, 0, payload_of(10));
  EXPECT_EQ(mb.admit_frame(1, 5, frame), Mailbox::AdmitStatus::kAccepted);
  EXPECT_EQ(mb.admit_frame(1, 5, frame), Mailbox::AdmitStatus::kDuplicate);
  EXPECT_EQ(value_of(mb.take(1, 5)), 10u);
  EXPECT_FALSE(mb.has(1, 5));
}

TEST(Frame, OutOfOrderFramesDeliverInOrder) {
  Mailbox mb;
  EXPECT_EQ(mb.admit_frame(1, 5, encode_frame(1, 5, 2, payload_of(2))),
            Mailbox::AdmitStatus::kAccepted);
  EXPECT_EQ(mb.admit_frame(1, 5, encode_frame(1, 5, 1, payload_of(1))),
            Mailbox::AdmitStatus::kAccepted);
  EXPECT_FALSE(mb.has(1, 5));  // held until the gap fills
  EXPECT_EQ(mb.admit_frame(1, 5, encode_frame(1, 5, 0, payload_of(0))),
            Mailbox::AdmitStatus::kAccepted);
  EXPECT_EQ(value_of(mb.take(1, 5)), 0u);
  EXPECT_EQ(value_of(mb.take(1, 5)), 1u);
  EXPECT_EQ(value_of(mb.take(1, 5)), 2u);
  // A stale retransmit of an already-delivered seqno is still a duplicate.
  EXPECT_EQ(mb.admit_frame(1, 5, encode_frame(1, 5, 1, payload_of(1))),
            Mailbox::AdmitStatus::kDuplicate);
}

// --------------------------------------------------------- mailbox waits

TEST(Mailbox, TakeForTimesOutWithoutAMatch) {
  Mailbox mb;
  mb.put({0, 3, payload_of(1)});  // wrong tag: must not satisfy the wait
  const auto res = mb.take_for(0, 4, std::chrono::milliseconds(30));
  EXPECT_EQ(res.status, Mailbox::TakeStatus::kTimeout);
}

TEST(Mailbox, PoisonTokenUnblocksAPendingWait) {
  Mailbox mb;
  std::thread waiter([&] {
    EXPECT_THROW((void)mb.take(0, 1), MailboxClosedError);
  });
  mb.poison();
  waiter.join();
  // Future waits observe the token immediately.
  EXPECT_EQ(mb.take_for(0, 1, std::chrono::milliseconds(0)).status,
            Mailbox::TakeStatus::kClosed);
}

TEST(Mailbox, InterruptDrainsQueuedMatchesFirst) {
  Mailbox mb;
  mb.put({2, 8, payload_of(5)});
  mb.interrupt();
  const auto first = mb.take_for(2, 8, std::chrono::milliseconds(0));
  ASSERT_EQ(first.status, Mailbox::TakeStatus::kOk);
  EXPECT_EQ(value_of(first.msg), 5u);
  EXPECT_EQ(mb.take_for(2, 8, std::chrono::milliseconds(0)).status,
            Mailbox::TakeStatus::kInterrupted);
}

// ------------------------------------------------- transport end to end

TransportConfig reliable_transport() {
  TransportConfig t;
  t.reliable = true;
  t.recv_timeout = std::chrono::milliseconds(30000);
  t.retry_backoff = std::chrono::microseconds(1);
  return t;
}

TEST(Transport, CollectivesAreExactUnderMessageFaults) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.drop = 0.10;
  plan.duplicate = 0.05;
  plan.delay = 0.10;
  plan.corrupt = 0.10;
  FaultInjector inj(plan);

  const Rank P = 4;
  World world(P, {}, reliable_transport());
  world.install_faults(&inj);

  std::vector<int> failures(static_cast<std::size_t>(P), 0);
  world.run([&](Comm& comm) {
    for (int round = 0; round < 20; ++round) {
      std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(P));
      for (Rank q = 0; q < P; ++q) {
        out[static_cast<std::size_t>(q)] = payload_of(
            static_cast<std::uint64_t>(round * 10000 + comm.rank() * 100 + q));
      }
      auto in = comm.all_to_all(std::move(out));
      for (Rank q = 0; q < P; ++q) {
        ByteReader r(in[static_cast<std::size_t>(q)]);
        if (r.read<std::uint64_t>() !=
            static_cast<std::uint64_t>(round * 10000 + q * 100 + comm.rank())) {
          ++failures[static_cast<std::size_t>(comm.rank())];
        }
      }
      const auto sum =
          comm.all_reduce_sum(static_cast<std::uint64_t>(comm.rank()));
      if (sum != static_cast<std::uint64_t>(P) * (P - 1) / 2) {
        ++failures[static_cast<std::size_t>(comm.rank())];
      }
    }
  });
  for (const int f : failures) EXPECT_EQ(f, 0);
  // The plan is aggressive enough that some frames must have been faulted
  // and repaired.
  const auto& c = inj.counters();
  EXPECT_GT(c.dropped.load() + c.duplicated.load() + c.delayed.load() +
                c.corrupted.load(),
            0u);
  std::uint64_t retransmits = 0;
  for (const auto& ledger : world.ledgers()) retransmits += ledger.retransmits;
  EXPECT_GT(retransmits, 0u);
}

TEST(Transport, TimedRecvRaisesTimeoutError) {
  TransportConfig t;
  t.recv_timeout = std::chrono::milliseconds(50);
  World world(2, {}, t);
  EXPECT_THROW(world.run([&](Comm& comm) {
    if (comm.rank() == 0) (void)comm.recv(1, 99);  // never sent
  }),
               TimeoutError);
}

TEST(Transport, FrameOverheadIsZeroWhenDisabled) {
  World world(2);  // default transport: reliable off
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 9, std::vector<std::byte>(64));
    if (comm.rank() == 1) (void)comm.recv(0, 9);
  });
  EXPECT_EQ(world.ledgers()[0].bytes_sent, 64u);
  EXPECT_EQ(world.ledgers()[0].frame_overhead_bytes, 0u);
  EXPECT_EQ(world.ledgers()[0].retransmits, 0u);
}

TEST(Transport, FrameOverheadIsChargedWhenEnabled) {
  World world(2, {}, reliable_transport());
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 9, std::vector<std::byte>(64));
    if (comm.rank() == 1) (void)comm.recv(0, 9);
  });
  EXPECT_EQ(world.ledgers()[0].bytes_sent, 64u + kFrameHeaderBytes);
  EXPECT_EQ(world.ledgers()[0].frame_overhead_bytes, kFrameHeaderBytes);
}

// ------------------------------------------------------- crash containment

TEST(World, ContainedRunReportsTheFailedRankAndSurvives) {
  World world(3);
  const auto report = world.run_contained([&](Comm& comm) {
    comm.barrier();
    if (comm.rank() == 1) throw InjectedCrash(1, 0);
    comm.barrier();  // survivors block here until interrupted
  });
  ASSERT_FALSE(report.ok());
  // Rank 1 is the root cause; ranks 0/2 die collaterally (PeerFailedError)
  // instead of deadlocking in the barrier.
  bool root_seen = false;
  for (const Rank r : report.failed) {
    try {
      std::rethrow_exception(report.errors[static_cast<std::size_t>(r)]);
    } catch (const InjectedCrash& e) {
      EXPECT_EQ(r, 1);
      EXPECT_EQ(e.rank(), 1);
      root_seen = true;
    } catch (const PeerFailedError& e) {
      EXPECT_EQ(e.peer(), 1);
    }
  }
  EXPECT_TRUE(root_seen);

  // The World is reusable: the next contained run starts clean.
  const auto second = world.run_contained([&](Comm& comm) { comm.barrier(); });
  EXPECT_TRUE(second.ok());
}

TEST(World, HealthSupervisionDeclaresAWedgedPeerDead) {
  // A peer that wedges without crashing never raises its own error; the
  // only way out is the observer-side escalation ladder (docs/FAULTS.md
  // §Health supervision): straggler -> suspect -> dead, then a declaration
  // that marks the rank failed world-wide.
  World world(2);
  HealthConfig hc;
  hc.enabled = true;
  hc.straggler_after = std::chrono::milliseconds(10);
  hc.suspect_after = std::chrono::milliseconds(20);
  hc.dead_after = std::chrono::milliseconds(60);
  world.install_health(hc);
  const auto report = world.run_contained([&](Comm& comm) {
    if (comm.rank() == 1) {
      // Wedged: never sends, never crashes.
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      return;
    }
    try {
      (void)comm.recv(1, 5);
      FAIL() << "recv from the wedged peer should not complete";
    } catch (const PeerFailedError& e) {
      EXPECT_EQ(e.peer(), 1);
      throw;
    }
  });
  ASSERT_FALSE(report.ok());
  const auto declared = world.declared_dead();
  ASSERT_EQ(declared.size(), 1u);
  EXPECT_EQ(declared[0], 1);
  EXPECT_GE(world.ledgers()[0].health_dead_declared, 1u);
}

TEST(World, RunPrefersTheRootCauseOverCollateralErrors) {
  World world(4);
  try {
    world.run([&](Comm& comm) {
      comm.barrier();
      if (comm.rank() == 2) throw InjectedCrash(2, 7);
      comm.barrier();
    });
    FAIL() << "run must rethrow";
  } catch (const InjectedCrash& e) {
    EXPECT_EQ(e.rank(), 2);
    EXPECT_EQ(e.step(), 7u);
  }
}

// ------------------------------------------- silence names the stuck flow

TEST(HealthFlow, DeathMessageNamesTheAwaitedFlow) {
  // PeerFailedError from a health declaration under the reliable
  // transport names the exact message the observer was stuck on (RC step +
  // next expected frame seqno from that peer).
  TransportConfig tc;
  tc.reliable = true;
  tc.recv_timeout = std::chrono::milliseconds(30000);
  tc.retry_backoff = std::chrono::microseconds(1);
  World world(2, {}, tc);
  HealthConfig hc;
  hc.enabled = true;
  hc.straggler_after = std::chrono::milliseconds(10);
  hc.suspect_after = std::chrono::milliseconds(20);
  hc.dead_after = std::chrono::milliseconds(60);
  world.install_health(hc);
  const auto report = world.run_contained([&](Comm& comm) {
    if (comm.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      return;
    }
    (void)comm.recv(1, 5);
  });
  ASSERT_FALSE(report.ok());
  bool saw_flow = false;
  for (const Rank r : report.failed) {
    try {
      std::rethrow_exception(report.errors[static_cast<std::size_t>(r)]);
    } catch (const PeerFailedError& e) {
      EXPECT_EQ(e.peer(), 1);
      const std::string what = e.what();
      EXPECT_NE(what.find("stuck awaiting flow (step="), std::string::npos)
          << what;
      saw_flow = true;
    } catch (...) {
    }
  }
  EXPECT_TRUE(saw_flow);
}

}  // namespace
}  // namespace aacc::rt
