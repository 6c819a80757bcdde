// Fault-tolerance extension: checkpoint a run mid-analysis, destroy the
// world, resume in a fresh one, and converge to exactly the same result as
// an uninterrupted run.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace aacc {
namespace {

using test::expect_apsp_exact;
using test::grow_vertices;
using test::make_ba;
using test::make_er;

EngineConfig base_cfg(Rank P) {
  EngineConfig cfg;
  cfg.num_ranks = P;
  cfg.gather_apsp = true;
  return cfg;
}

TEST(Checkpoint, StaticRunSurvivesRestart) {
  const Graph g = make_ba(200, 2, 3);
  EngineConfig cfg = base_cfg(6);
  cfg.checkpoint_at_step = 1;  // well before convergence

  AnytimeEngine first(g, cfg);
  const RunResult interim = first.run();
  ASSERT_TRUE(interim.checkpoint.valid());
  EXPECT_EQ(interim.checkpoint.step, 1u);
  EXPECT_GT(interim.checkpoint.bytes(), 0u);

  AnytimeEngine resumed(g, interim.checkpoint, cfg);
  const RunResult final_result = resumed.run();
  expect_apsp_exact(g, final_result);
}

TEST(Checkpoint, PendingDirtyEntriesSurvive) {
  // Checkpoint immediately after IA results enter the loop (step 0): the
  // un-sent boundary rows must be carried by the blobs or the resumed run
  // would never converge to the global solution.
  const Graph g = make_er(150, 450, 5, WeightRange{1, 4});
  EngineConfig cfg = base_cfg(5);
  cfg.checkpoint_at_step = 0;

  AnytimeEngine first(g, cfg);
  const RunResult interim = first.run();
  ASSERT_TRUE(interim.checkpoint.valid());

  AnytimeEngine resumed(g, interim.checkpoint, cfg);
  const RunResult final_result = resumed.run();
  expect_apsp_exact(g, final_result);
}

TEST(Checkpoint, DynamicScheduleSplitsAcrossRestart) {
  const Graph g = make_ba(150, 2, 7);
  Rng rng(8);
  EventSchedule sched;
  sched.push_back({1, grow_vertices(g, 10, 2, rng)});
  Graph mid = g;
  apply_schedule(mid, sched);
  EventBatch late;
  late.at_step = 6;
  late.events = grow_vertices(mid, 10, 2, rng);
  apply_schedule(mid, {EventBatch{6, late.events}});
  sched.push_back(std::move(late));

  EngineConfig cfg = base_cfg(5);
  cfg.checkpoint_at_step = 3;  // after batch 1, before batch 2

  AnytimeEngine first(g, cfg);
  const RunResult interim = first.run(sched);
  ASSERT_TRUE(interim.checkpoint.valid());
  EXPECT_EQ(interim.checkpoint.next_batch, 1u);

  AnytimeEngine resumed(g, interim.checkpoint, cfg);
  const RunResult final_result = resumed.run(sched);
  expect_apsp_exact(mid, final_result);
}

TEST(Checkpoint, DeletionsWithPendingPoisonsSurvive) {
  const Graph g = make_er(120, 420, 9);
  Rng rng(10);
  EventSchedule sched;
  EventBatch batch;
  batch.at_step = 1;
  Graph cursor = g;
  for (int i = 0; i < 20; ++i) {
    const auto edges = cursor.edges();
    const auto& [u, v, w] = edges[rng.next_below(edges.size())];
    (void)w;
    cursor.remove_edge(u, v);
    batch.events.emplace_back(EdgeDeleteEvent{u, v});
  }
  sched.push_back(std::move(batch));

  EngineConfig cfg = base_cfg(6);
  cfg.checkpoint_at_step = 1;  // right at the deletion step

  AnytimeEngine first(g, cfg);
  const RunResult interim = first.run(sched);
  ASSERT_TRUE(interim.checkpoint.valid());

  AnytimeEngine resumed(g, interim.checkpoint, cfg);
  const RunResult final_result = resumed.run(sched);
  expect_apsp_exact(cursor, final_result);
}

TEST(Checkpoint, ResumedResultMatchesUninterruptedRun) {
  const Graph g = make_ba(180, 2, 11);
  Rng rng(12);
  EventSchedule sched;
  sched.push_back({2, grow_vertices(g, 12, 2, rng)});

  EngineConfig plain = base_cfg(4);
  AnytimeEngine straight(g, plain);
  const RunResult direct = straight.run(sched);

  EngineConfig cp = plain;
  cp.checkpoint_at_step = 2;
  AnytimeEngine first(g, cp);
  const RunResult interim = first.run(sched);
  AnytimeEngine resumed(g, interim.checkpoint, plain);
  const RunResult final_result = resumed.run(sched);

  ASSERT_EQ(direct.apsp.size(), final_result.apsp.size());
  for (VertexId u = 0; u < direct.apsp.size(); ++u) {
    EXPECT_EQ(direct.apsp[u], final_result.apsp[u]) << "row " << u;
  }
}

TEST(Checkpoint, LegacyV1BlobsAreRejected) {
  // Headerless (pre-v2) blobs are no longer decoded: the engine refuses
  // them up front with a typed error instead of misparsing them.
  const Graph g = make_er(150, 450, 21, WeightRange{1, 4});
  EngineConfig cfg = base_cfg(5);
  cfg.checkpoint_at_step = 1;

  AnytimeEngine first(g, cfg);
  const RunResult interim = first.run();
  ASSERT_TRUE(interim.checkpoint.valid());

  Checkpoint legacy = interim.checkpoint;
  for (auto& blob : legacy.rank_blobs) {
    blob.erase(blob.begin(), blob.begin() + kCkptHeaderBytes);
  }
  EXPECT_THROW(validate_checkpoint(legacy, 5), CheckpointError);
  EXPECT_THROW(AnytimeEngine(g, legacy, cfg), CheckpointError);
}

TEST(Checkpoint, WorldSizeMismatchRejected) {
  const Graph g = make_ba(80, 2, 13);
  EngineConfig cfg = base_cfg(4);
  cfg.checkpoint_at_step = 1;
  AnytimeEngine first(g, cfg);
  const RunResult interim = first.run();
  EngineConfig other = cfg;
  other.num_ranks = 8;
  EXPECT_THROW(AnytimeEngine(g, interim.checkpoint, other), std::logic_error);
}

// ----------------------------------- restore validation (typed errors)

/// A structurally plausible checkpoint for pure validation tests: v2
/// header, then filler.
Checkpoint tiny_checkpoint(Rank ranks) {
  std::vector<std::byte> blob(8, std::byte{0x01});
  blob[0] = std::byte{kCkptMagic0};
  blob[1] = std::byte{kCkptMagic1};
  blob[2] = std::byte{kCkptVersion2};
  Checkpoint ck;
  ck.num_ranks = ranks;
  ck.rank_blobs.assign(static_cast<std::size_t>(ranks), blob);
  return ck;
}

TEST(CheckpointValidation, RejectsEmptyAndMismatchedShapes) {
  EXPECT_THROW(validate_checkpoint(Checkpoint{}, 4), CheckpointError);

  Checkpoint wrong_count = tiny_checkpoint(4);
  wrong_count.rank_blobs.pop_back();
  EXPECT_THROW(validate_checkpoint(wrong_count, 4), CheckpointError);

  EXPECT_THROW(validate_checkpoint(tiny_checkpoint(4), 6), CheckpointError);

  Checkpoint empty_blob = tiny_checkpoint(3);
  empty_blob.rank_blobs[1].clear();
  EXPECT_THROW(validate_checkpoint(empty_blob, 3), CheckpointError);

  EXPECT_NO_THROW(validate_checkpoint(tiny_checkpoint(3), 3));
}

TEST(CheckpointValidation, RejectsUnknownVersionAndTruncatedHeader) {
  Checkpoint future = tiny_checkpoint(2);
  future.rank_blobs[0] = {std::byte{kCkptMagic0}, std::byte{kCkptMagic1},
                          std::byte{99}};
  EXPECT_THROW(validate_checkpoint(future, 2), CheckpointError);

  Checkpoint cut = tiny_checkpoint(2);
  cut.rank_blobs[0] = {std::byte{kCkptMagic0}, std::byte{kCkptMagic1}};
  EXPECT_THROW(validate_checkpoint(cut, 2), CheckpointError);
}

TEST(CheckpointValidation, TruncatedBlobFailsRestoreWithRankContext) {
  const Graph g = make_ba(80, 2, 15);
  EngineConfig cfg = base_cfg(3);
  cfg.checkpoint_at_step = 1;
  AnytimeEngine first(g, cfg);
  const RunResult interim = first.run();
  ASSERT_TRUE(interim.checkpoint.valid());

  // Deep truncation: the header validates, the bounds-checked reader
  // catches the cut mid-blob and the engine re-raises it typed.
  Checkpoint cut = interim.checkpoint;
  cut.rank_blobs[2].resize(cut.rank_blobs[2].size() / 2);
  AnytimeEngine resumed(g, cut, cfg);
  try {
    (void)resumed.run();
    FAIL() << "truncated blob must not restore";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos)
        << "error should carry rank context: " << e.what();
  }
}

TEST(CheckpointValidation, TrailingGarbageFailsRestore) {
  const Graph g = make_ba(80, 2, 16);
  EngineConfig cfg = base_cfg(3);
  cfg.checkpoint_at_step = 1;
  AnytimeEngine first(g, cfg);
  const RunResult interim = first.run();
  ASSERT_TRUE(interim.checkpoint.valid());

  Checkpoint padded = interim.checkpoint;
  padded.rank_blobs[0].push_back(std::byte{0x7F});
  AnytimeEngine resumed(g, padded, cfg);
  EXPECT_THROW((void)resumed.run(), CheckpointError);
}

TEST(Checkpoint, NoCheckpointPastConvergence) {
  const Graph g = make_ba(80, 2, 14);
  EngineConfig cfg = base_cfg(4);
  cfg.checkpoint_at_step = 500;  // never reached
  AnytimeEngine engine(g, cfg);
  const RunResult r = engine.run();
  EXPECT_FALSE(r.checkpoint.valid());
  expect_apsp_exact(g, r);
}

}  // namespace
}  // namespace aacc
