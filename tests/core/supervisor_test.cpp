// The recovery supervisor on its own: fake rank views, hand-built run
// reports, no rank world and no threads. Pins rollback's batch cursor,
// failure classification, the degraded start and the MTTR probe; the
// rung-budget ladder walk is covered end to end by chaos_matrix_test's
// Ladder cases.
#include <gtest/gtest.h>

#include "common/timer.hpp"
#include "core/supervisor.hpp"
#include "runtime/faults.hpp"

namespace aacc {
namespace {

using Blob = std::vector<std::byte>;

/// A blob whose v2 header passes validate_blob_header, tagged so tests can
/// tell blobs apart.
Blob blob_tagged(std::uint8_t tag) {
  return {std::byte{kCkptMagic0}, std::byte{kCkptMagic1},
          std::byte{kCkptVersion2}, std::byte{tag}};
}

/// One rank as a failed attempt left it.
struct FakeRank {
  std::size_t step = 0;
  std::size_t batch = 0;
  std::uint64_t vertices_added = 0;
  std::vector<Rank> owner;
  Blob state;
};

std::vector<std::optional<Supervisor::RankView>> views_of(
    const std::vector<FakeRank>& ranks) {
  std::vector<std::optional<Supervisor::RankView>> out;
  for (const FakeRank& r : ranks) {
    out.push_back(Supervisor::RankView{r.step, r.batch, r.vertices_added,
                                       r.owner, [&r] { return r.state; }});
  }
  return out;
}

/// A world of `P` fakes stopped at (step, batch) over one owner map.
std::vector<FakeRank> fakes(Rank P, std::size_t step, std::size_t batch,
                            const std::vector<Rank>& owner) {
  std::vector<FakeRank> out(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    const auto tag = static_cast<std::uint8_t>(100 + r);
    out[static_cast<std::size_t>(r)] = {step, batch, 40, owner,
                                        blob_tagged(tag)};
  }
  return out;
}

/// A run report: `crashed` died of injected crashes, `collateral` saw a
/// failed peer.
rt::World::RunReport report_of(Rank P, const std::vector<Rank>& crashed,
                               const std::vector<Rank>& collateral = {}) {
  rt::World::RunReport report;
  report.errors.resize(static_cast<std::size_t>(P));
  for (const Rank r : crashed) {
    report.errors[static_cast<std::size_t>(r)] =
        std::make_exception_ptr(rt::InjectedCrash(r, 3));
  }
  const Rank peer = crashed.empty() ? 0 : crashed[0];
  for (const Rank r : collateral) {
    report.errors[static_cast<std::size_t>(r)] =
        std::make_exception_ptr(rt::PeerFailedError(peer, "peer failed"));
  }
  for (Rank r = 0; r < P; ++r) {
    if (report.errors[static_cast<std::size_t>(r)]) report.failed.push_back(r);
  }
  return report;
}

/// Batches at steps 0..5, one each.
EventSchedule one_batch_per_step() {
  EventSchedule s;
  for (std::size_t step = 0; step < 6; ++step) s.push_back({step, {}});
  return s;
}

EngineConfig config(Rank P, RecoveryPolicy rung) {
  EngineConfig cfg;
  cfg.num_ranks = P;
  cfg.recovery_policy = {{rung, 0}};
  return cfg;
}

RankEngine::Init prepared(const Supervisor& sup, Rank me) {
  RankEngine::Init init;
  init.me = me;
  sup.prepare(init);
  return init;
}

const RankEngine::Edges kEdges;

TEST(SupervisorRollback, ResumesAfterTheNewestCommonSnapshot) {
  const EngineConfig cfg = config(2, RecoveryPolicy::kRollback);
  PeriodicCheckpoints periodic(2);
  periodic.store(0, 2, blob_tagged(20));
  periodic.store(0, 4, blob_tagged(40));
  periodic.store(1, 2, blob_tagged(21));
  Supervisor sup(cfg, {{0, 1}, &kEdges}, nullptr, &periodic);

  // Two batches land at step 2: the cursor after step 2 is batch 4.
  const EventSchedule schedule{{0, {}}, {1, {}}, {2, {}}, {2, {}}, {3, {}},
                               {5, {}}};
  const auto rec = sup.recover(report_of(2, {1}, {0}), {},
                               views_of(fakes(2, 5, 5, {0, 1})), schedule);
  EXPECT_EQ(rec.rung, RecoveryPolicy::kRollback);
  EXPECT_EQ(rec.step, 2u);
  for (const Rank me : {0, 1}) {
    const RankEngine::Init init = prepared(sup, me);
    const auto& r = std::get<RankEngine::Restore>(init.start);
    EXPECT_EQ(*r.blob, blob_tagged(static_cast<std::uint8_t>(20 + me)));
    EXPECT_TRUE(r.poison_ranks.empty());
    EXPECT_EQ(init.start_step, 3u);
    EXPECT_EQ(init.start_batch, 4u);
    EXPECT_EQ(init.periodic, &periodic);
  }
  EXPECT_FALSE(sup.dead(1));  // the replay resurrects every seat
  EXPECT_EQ(sup.log()[0].at_step, 5u);  // the death step, not the restart
}

TEST(SupervisorRollback, RestartsFreshBeforeAnySnapshot) {
  const EngineConfig cfg = config(2, RecoveryPolicy::kRollback);
  PeriodicCheckpoints periodic(2);
  periodic.store(0, 2, blob_tagged(20));  // rank 1 never snapshotted
  Supervisor sup(cfg, {{1, 0}, &kEdges}, nullptr, &periodic);
  const auto rec = sup.recover(report_of(2, {0}, {1}), {},
                               views_of(fakes(2, 3, 1, {1, 0})),
                               one_batch_per_step());
  EXPECT_EQ(rec.step, 0u);
  const RankEngine::Init init = prepared(sup, 1);
  const auto& f = std::get<RankEngine::Fresh>(init.start);
  EXPECT_EQ(f.owner, (std::vector<Rank>{1, 0}));
  EXPECT_EQ(f.edges, &kEdges);
}

TEST(SupervisorClassify, UnionsHealthDeclaredDeaths) {
  // Rank 1 wedged: it returned no error, but health declared it dead. The
  // others only saw a failed peer.
  const EngineConfig cfg = config(3, RecoveryPolicy::kDegrade);
  Supervisor sup(cfg, {{}, &kEdges}, nullptr, nullptr);
  const std::vector<Rank> declared{1};
  const auto rec = sup.recover(report_of(3, {}, {0, 2}), declared,
                               views_of(fakes(3, 4, 2, {0, 1, 2})),
                               one_batch_per_step());
  EXPECT_EQ(rec.rung, RecoveryPolicy::kDegrade);
  EXPECT_TRUE(sup.dead(1));
  EXPECT_FALSE(sup.dead(0));
  EXPECT_TRUE(sup.degraded());
  EXPECT_TRUE(
      std::holds_alternative<RankEngine::Ghost>(prepared(sup, 1).start));
  const RankEngine::Init init = prepared(sup, 2);
  EXPECT_EQ(std::get<RankEngine::Restore>(init.start).poison_ranks,
            (std::vector<Rank>{1}));
  EXPECT_EQ(init.periodic, nullptr);  // degraded attempts take no snapshots
}

TEST(SupervisorClassify, NonRecoverableErrorsAreRethrown) {
  const EngineConfig cfg = config(3, RecoveryPolicy::kDegrade);
  const auto views = views_of(fakes(3, 4, 2, {0, 1, 2}));
  const EventSchedule schedule;

  // A bad checkpoint is a bug, not a death, even next to a real crash.
  rt::World::RunReport report = report_of(3, {0});
  report.errors[2] = std::make_exception_ptr(CheckpointError("bad blob"));
  report.failed = {0, 2};
  Supervisor a(cfg, {{}, &kEdges}, nullptr, nullptr);
  EXPECT_THROW(a.recover(report, {}, views, schedule), CheckpointError);

  // Only collateral and nothing declared: no root to recover from.
  Supervisor b(cfg, {{}, &kEdges}, nullptr, nullptr);
  EXPECT_THROW(b.recover(report_of(3, {}, {0, 1}), {}, views, schedule),
               rt::PeerFailedError);

  // The relaunch budget is spent: the root cause surfaces.
  EngineConfig capped = cfg;
  capped.max_recoveries = 0;
  Supervisor c(capped, {{}, &kEdges}, nullptr, nullptr);
  EXPECT_THROW(c.recover(report_of(3, {1}, {0, 2}), {}, views, schedule),
               rt::InjectedCrash);
  EXPECT_TRUE(c.log().empty());
}

TEST(SupervisorMttr, MarkBeforeTheDeathLeavesItUnmeasured) {
  const EngineConfig cfg = config(2, RecoveryPolicy::kDegrade);
  Supervisor sup(cfg, {{}, &kEdges}, nullptr, nullptr);
  sup.recover(report_of(2, {1}, {0}), {}, views_of(fakes(2, 4, 2, {0, 1})),
              one_batch_per_step());
  const RankEngine::Init init = prepared(sup, 0);
  ASSERT_NE(init.recovery_mark, nullptr);
  EXPECT_EQ(init.recovery_mark_step, 4u);
  init.recovery_mark->store(0);  // older than any death declaration
  sup.finish();
  EXPECT_EQ(sup.log()[0].mttr_seconds, -1.0);
}

TEST(SupervisorMttr, MarkAfterTheDeathIsMeasured) {
  const EngineConfig cfg = config(2, RecoveryPolicy::kDegrade);
  Supervisor sup(cfg, {{}, &kEdges}, nullptr, nullptr);
  sup.recover(report_of(2, {1}, {0}), {}, views_of(fakes(2, 4, 2, {0, 1})),
              one_batch_per_step());
  prepared(sup, 0).recovery_mark->store(steady_now_ns());
  sup.finish();
  EXPECT_GE(sup.log()[0].mttr_seconds, 0.0);
}

}  // namespace
}  // namespace aacc
