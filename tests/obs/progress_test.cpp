// The streaming progress feed (docs/OBSERVABILITY.md §Progress events):
// NDJSON round-trip and parser hardening, the file sink, and the engine
// integration — event coherence on a static run, bit-identity of results
// with the feed on/off, recovery events under injected crashes, and the
// bounded top-k quality snapshots.
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/closeness.hpp"
#include "obs/progress.hpp"
#include "test_util.hpp"

namespace aacc {
namespace {

using test::make_ba;
using test::make_er;

obs::ProgressEvent sample_event() {
  obs::ProgressEvent ev;
  ev.phase = "rc_step";
  ev.step = 7;
  ev.ranks = 4;
  ev.dirty = 123;
  ev.dirty_fraction = 0.125;
  ev.settled = 4567;
  ev.columns = 9000;
  ev.relaxations = 1000;
  ev.poisons = 17;
  ev.repairs = 9;
  ev.queue_sum = 321;
  ev.queue_max = 99;
  ev.bytes = 1u << 20;
  ev.retransmits = 3;
  ev.recoveries = 1;
  ev.has_estimators = true;
  ev.topk_overlap = 0.875;
  ev.kendall_tau = -0.25;
  ev.top = {5, 1, 9};
  return ev;
}

TEST(ProgressEvent, NdjsonRoundTrip) {
  const obs::ProgressEvent ev = sample_event();
  const std::string line = obs::to_ndjson(ev);
  // One line, no embedded newline (it is an NDJSON record).
  EXPECT_EQ(line.find('\n'), std::string::npos);

  obs::ProgressEvent back;
  ASSERT_TRUE(obs::parse_progress_event(line, back)) << line;
  EXPECT_EQ(back.phase, ev.phase);
  EXPECT_EQ(back.step, ev.step);
  EXPECT_EQ(back.ranks, ev.ranks);
  EXPECT_EQ(back.dirty, ev.dirty);
  EXPECT_DOUBLE_EQ(back.dirty_fraction, ev.dirty_fraction);
  EXPECT_EQ(back.settled, ev.settled);
  EXPECT_EQ(back.columns, ev.columns);
  EXPECT_EQ(back.relaxations, ev.relaxations);
  EXPECT_EQ(back.poisons, ev.poisons);
  EXPECT_EQ(back.repairs, ev.repairs);
  EXPECT_EQ(back.queue_sum, ev.queue_sum);
  EXPECT_EQ(back.queue_max, ev.queue_max);
  EXPECT_EQ(back.bytes, ev.bytes);
  EXPECT_EQ(back.retransmits, ev.retransmits);
  EXPECT_EQ(back.recoveries, ev.recoveries);
  ASSERT_TRUE(back.has_estimators);
  EXPECT_DOUBLE_EQ(back.topk_overlap, ev.topk_overlap);
  EXPECT_DOUBLE_EQ(back.kendall_tau, ev.kendall_tau);
  EXPECT_EQ(back.top, ev.top);
}

// Byte-exact v1 lines, the schema `aacc tail` and CI read: without the
// optional groups, with the serve and estimator groups, and a recovery
// event (detail, no top list).
TEST(ProgressEvent, GoldenNdjson) {
  obs::ProgressEvent ev;
  ev.phase = "rc_step";
  ev.step = 7;
  ev.ranks = 4;
  ev.dirty = 123;
  ev.dirty_fraction = 0.1;
  ev.settled = 4567;
  ev.columns = 9000;
  ev.relaxations = 1000;
  ev.poisons = 17;
  ev.repairs = 9;
  ev.queue_sum = 321;
  ev.queue_max = 99;
  ev.bytes = 1u << 20;
  ev.retransmits = 3;
  ev.exchange_wait_seconds = 0.03;
  ev.blocked_on_seconds = 0.015625;
  ev.blocked_on_rank = 2;
  ev.recoveries = 1;
  ev.dv_resident_bytes = 4096;
  ev.dv_cold_bytes = 512;
  ev.dv_promotions = 6;
  ev.dv_demotions = 8;
  ev.top = {5, 1, 9};
  EXPECT_EQ(obs::to_ndjson(ev),
      "{\"v\":1,\"phase\":\"rc_step\",\"step\":7,\"ranks\":4,\"dirty\":123,"
      "\"dirty_fraction\":0.10000000000000001,\"settled\":4567,"
      "\"columns\":9000,\"relaxations\":1000,\"poisons\":17,\"repairs\":9,"
      "\"queue_sum\":321,\"queue_max\":99,\"bytes\":1048576,"
      "\"retransmits\":3,\"exchange_wait_seconds\":0.029999999999999999,"
      "\"blocked_on_rank\":2,\"blocked_on_seconds\":0.015625,"
      "\"recoveries\":1,\"dv_resident_bytes\":4096,\"dv_cold_bytes\":512,"
      "\"dv_promotions\":6,\"dv_demotions\":8,\"top\":[5,1,9]}");
  ev.has_serve = true;
  ev.serve_queries = 250;
  ev.snapshot_age_steps = 2;
  ev.has_estimators = true;
  ev.topk_overlap = 0.875;
  ev.kendall_tau = -1.0 / 3.0;
  const std::string full = obs::to_ndjson(ev);
  EXPECT_EQ(full,
      "{\"v\":1,\"phase\":\"rc_step\",\"step\":7,\"ranks\":4,\"dirty\":123,"
      "\"dirty_fraction\":0.10000000000000001,\"settled\":4567,"
      "\"columns\":9000,\"relaxations\":1000,\"poisons\":17,\"repairs\":9,"
      "\"queue_sum\":321,\"queue_max\":99,\"bytes\":1048576,"
      "\"retransmits\":3,\"exchange_wait_seconds\":0.029999999999999999,"
      "\"blocked_on_rank\":2,\"blocked_on_seconds\":0.015625,"
      "\"recoveries\":1,\"dv_resident_bytes\":4096,\"dv_cold_bytes\":512,"
      "\"dv_promotions\":6,\"dv_demotions\":8,\"serve_queries\":250,"
      "\"snapshot_age_steps\":2,\"topk_overlap\":0.875,"
      "\"kendall_tau\":-0.33333333333333331,\"top\":[5,1,9]}");
  obs::ProgressEvent back;
  ASSERT_TRUE(obs::parse_progress_event(full, back));
  EXPECT_EQ(obs::to_ndjson(back), full);

  obs::ProgressEvent rec;
  rec.phase = "recovery";
  rec.step = 3;
  rec.ranks = 8;
  rec.recoveries = 2;
  rec.detail = "rollback";
  EXPECT_EQ(obs::to_ndjson(rec),
      "{\"v\":1,\"phase\":\"recovery\",\"step\":3,\"ranks\":8,\"dirty\":0,"
      "\"dirty_fraction\":0,\"settled\":0,\"columns\":0,\"relaxations\":0,"
      "\"poisons\":0,\"repairs\":0,\"queue_sum\":0,\"queue_max\":0,"
      "\"bytes\":0,\"retransmits\":0,\"exchange_wait_seconds\":0,"
      "\"blocked_on_rank\":-1,\"blocked_on_seconds\":0,\"recoveries\":2,"
      "\"dv_resident_bytes\":0,\"dv_cold_bytes\":0,\"dv_promotions\":0,"
      "\"dv_demotions\":0,\"detail\":\"rollback\"}");
}

TEST(ProgressEvent, RoundTripWithoutOptionalFields) {
  obs::ProgressEvent ev;
  ev.phase = "recovery";
  ev.step = 3;
  ev.ranks = 8;
  ev.recoveries = 2;
  ev.detail = "rollback";
  const std::string line = obs::to_ndjson(ev);
  obs::ProgressEvent back;
  ASSERT_TRUE(obs::parse_progress_event(line, back)) << line;
  EXPECT_EQ(back.phase, "recovery");
  EXPECT_EQ(back.detail, "rollback");
  EXPECT_FALSE(back.has_estimators);
  EXPECT_TRUE(back.top.empty());
}

TEST(ProgressEvent, ParserRejectsMalformedInput) {
  obs::ProgressEvent ev;
  EXPECT_FALSE(obs::parse_progress_event("", ev));
  EXPECT_FALSE(obs::parse_progress_event("not json", ev));
  EXPECT_FALSE(obs::parse_progress_event("{\"v\":1}", ev));  // no phase
  EXPECT_FALSE(obs::parse_progress_event("{\"phase\":\"ia\"}", ev));  // no v
  // A schema version from the future must be rejected, not misread.
  EXPECT_FALSE(
      obs::parse_progress_event("{\"v\":999,\"phase\":\"ia\",\"step\":0}", ev));
  // Trailing garbage after the document.
  EXPECT_FALSE(obs::parse_progress_event(
      "{\"v\":1,\"phase\":\"ia\",\"step\":0} trailing", ev));
  // Numbers from outside the writer (aacc tail reads any file): no
  // non-finite values, integer fields integral and in range for their type
  // (a 1e30 count used to be an undefined float-to-integer cast), and a
  // version in [1, kProgressSchemaVersion].
  for (const char* bad : {
           "{\"v\":1,\"phase\":\"ia\",\"dirty\":1e30}",
           "{\"v\":1,\"phase\":\"ia\",\"dirty\":18446744073709551616}",
           "{\"v\":1,\"phase\":\"ia\",\"dirty\":-1}",
           "{\"v\":1,\"phase\":\"ia\",\"dirty\":2.5}",
           "{\"v\":1,\"phase\":\"ia\",\"step\":1e300}",
           "{\"v\":1,\"phase\":\"ia\",\"ranks\":-3}",
           "{\"v\":1,\"phase\":\"ia\",\"ranks\":4294967296}",
           "{\"v\":1,\"phase\":\"ia\",\"blocked_on_rank\":1e19}",
           "{\"v\":1,\"phase\":\"ia\",\"dirty_fraction\":1e999}",
           "{\"v\":1,\"phase\":\"ia\",\"kendall_tau\":nan}",
           "{\"v\":1,\"phase\":\"ia\",\"topk_overlap\":-inf}",
           "{\"v\":1,\"phase\":\"ia\",\"top\":[1,4294967296]}",
           "{\"v\":1,\"phase\":\"ia\",\"top\":[0.5]}",
           "{\"v\":1,\"phase\":\"ia\",\"future\":1e999}",
           "{\"v\":-7,\"phase\":\"ia\"}",
           "{\"v\":0,\"phase\":\"ia\"}",
           "{\"v\":1.5,\"phase\":\"ia\"}",
       }) {
    EXPECT_FALSE(obs::parse_progress_event(bad, ev)) << bad;
  }
  // In-range extremes still parse.
  ASSERT_TRUE(obs::parse_progress_event(
      "{\"v\":1,\"phase\":\"ia\",\"dirty\":9007199254740992,"
      "\"blocked_on_rank\":-1,\"ranks\":2147483647}",
      ev));
  EXPECT_EQ(ev.dirty, 9007199254740992u);
  EXPECT_EQ(ev.ranks, 2147483647);
}

TEST(ProgressEvent, ParserToleratesUnknownFields) {
  // Forward compatibility inside one schema version: unknown fields are
  // skipped (objects, arrays, strings, numbers).
  obs::ProgressEvent ev;
  ASSERT_TRUE(obs::parse_progress_event(
      "{\"v\":1,\"phase\":\"rc_step\",\"step\":5,"
      "\"future\":{\"a\":[1,2,{\"b\":\"c\"}]},\"note\":\"hi\"}",
      ev));
  EXPECT_EQ(ev.phase, "rc_step");
  EXPECT_EQ(ev.step, 5u);
}

TEST(ProgressEvent, ExchangeWaitRoundTripsAndOldInflightDepthLinesParse) {
  obs::ProgressEvent ev;
  ev.phase = "rc_step";
  ev.step = 7;
  ev.exchange_wait_seconds = 0.03125;
  ev.blocked_on_rank = 2;
  ev.blocked_on_seconds = 0.015625;
  const std::string line = obs::to_ndjson(ev);
  EXPECT_NE(line.find("\"exchange_wait_seconds\":0.03125"), std::string::npos);
  obs::ProgressEvent back;
  ASSERT_TRUE(obs::parse_progress_event(line, back)) << line;
  EXPECT_EQ(back.exchange_wait_seconds, ev.exchange_wait_seconds);
  EXPECT_EQ(back.blocked_on_rank, ev.blocked_on_rank);
  EXPECT_EQ(back.blocked_on_seconds, ev.blocked_on_seconds);

  // Feeds written before the in-flight depth column was dropped still
  // carry "inflight_depth"; the unknown-field rule must skip it.
  obs::ProgressEvent old;
  ASSERT_TRUE(obs::parse_progress_event(
      "{\"v\":1,\"phase\":\"rc_step\",\"step\":3,"
      "\"exchange_wait_seconds\":0.5,\"inflight_depth\":1,"
      "\"blocked_on_rank\":1,\"blocked_on_seconds\":0.25}",
      old));
  EXPECT_EQ(old.step, 3u);
  EXPECT_EQ(old.exchange_wait_seconds, 0.5);
  EXPECT_EQ(old.blocked_on_rank, 1);
  EXPECT_EQ(old.blocked_on_seconds, 0.25);
}

TEST(ProgressSinks, FileSinkWritesParseableLines) {
  const std::string path = ::testing::TempDir() + "/progress_sink_test.ndjson";
  {
    obs::NdjsonFileSink sink(path);
    ASSERT_TRUE(sink.ok());
    sink.on_event(sample_event());
    obs::ProgressEvent second;
    second.phase = "done";
    second.step = 8;
    second.ranks = 4;
    sink.on_event(second);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  std::vector<std::string> lines;
  while (std::fgets(buf, sizeof buf, f) != nullptr) lines.emplace_back(buf);
  std::fclose(f);
  ASSERT_EQ(lines.size(), 2u);
  obs::ProgressEvent back;
  ASSERT_TRUE(obs::parse_progress_event(
      lines[0].substr(0, lines[0].size() - 1), back));
  EXPECT_EQ(back.phase, "rc_step");
  ASSERT_TRUE(obs::parse_progress_event(
      lines[1].substr(0, lines[1].size() - 1), back));
  EXPECT_EQ(back.phase, "done");
  std::remove(path.c_str());
}

TEST(ProgressSinks, BadPathDropsEventsWithoutFailing) {
  obs::NdjsonFileSink sink("/nonexistent-dir-aacc/progress.ndjson");
  EXPECT_FALSE(sink.ok());
  sink.on_event(sample_event());  // must not crash
}

// ------------------------------------------------- engine integration

std::vector<obs::ProgressEvent> run_with_feed(const Graph& g,
                                              EngineConfig cfg,
                                              RunResult* result = nullptr) {
  auto events = std::make_shared<std::vector<obs::ProgressEvent>>();
  // The contract guarantees serial invocation, so plain push_back is safe.
  cfg.progress.callback = [events](const obs::ProgressEvent& ev) {
    events->push_back(ev);
  };
  AnytimeEngine engine(g, cfg);
  RunResult r = engine.run();
  if (result != nullptr) *result = std::move(r);
  return *events;
}

TEST(ProgressFeed, StaticRunEmitsCoherentEventStream) {
  const Graph g = make_ba(220, 2, 11);
  EngineConfig cfg;
  cfg.num_ranks = 4;
  cfg.progress.top_k = 16;

  RunResult r;
  const auto events = run_with_feed(g, cfg, &r);
  ASSERT_GE(events.size(), 3u);

  // Shape: one IA event first, rc_step per step, one done event last.
  EXPECT_EQ(events.front().phase, "ia");
  EXPECT_EQ(events.back().phase, "done");
  std::size_t rc_events = 0;
  std::uint64_t prev_settled = 0;
  std::size_t expected_step = 0;
  for (const auto& ev : events) {
    EXPECT_EQ(ev.ranks, cfg.num_ranks);
    EXPECT_GE(ev.dirty_fraction, 0.0);
    EXPECT_LE(ev.dirty_fraction, 1.0);
    if (ev.phase == "rc_step") {
      EXPECT_EQ(ev.step, expected_step++);
      // Distances only shrink, so the settled count never decreases.
      EXPECT_GE(ev.settled, prev_settled);
      prev_settled = ev.settled;
      EXPECT_LE(ev.settled, ev.columns);
      EXPECT_FALSE(ev.top.empty());
      EXPECT_LE(ev.top.size(), cfg.progress.top_k);
      if (ev.has_estimators) {
        EXPECT_GE(ev.topk_overlap, 0.0);
        EXPECT_LE(ev.topk_overlap, 1.0);
        EXPECT_GE(ev.kendall_tau, -1.0);
        EXPECT_LE(ev.kendall_tau, 1.0);
      }
      ++rc_events;
    }
  }
  EXPECT_EQ(rc_events, r.stats.rc_steps);
  EXPECT_EQ(events.back().step, r.stats.rc_steps);
  EXPECT_EQ(events.back().bytes, r.stats.total_bytes);

  // By quiescence the ranking has stabilized: the last rc_step's top list
  // must equal the final exact top-k.
  const obs::ProgressEvent* last_rc = nullptr;
  for (const auto& ev : events) {
    if (ev.phase == "rc_step") last_rc = &ev;
  }
  ASSERT_NE(last_rc, nullptr);
  EXPECT_EQ(last_rc->top, top_k(r.harmonic, cfg.progress.top_k));
}

TEST(ProgressFeed, FeedDoesNotPerturbResults) {
  const Graph g = make_er(180, 540, 29, WeightRange{1, 4});
  EngineConfig cfg;
  cfg.num_ranks = 4;

  AnytimeEngine plain_engine(g, cfg);
  const RunResult plain = plain_engine.run();

  RunResult with_feed;
  const auto events = run_with_feed(g, cfg, &with_feed);
  EXPECT_FALSE(events.empty());

  // Bit-identical, not approximately equal.
  ASSERT_EQ(with_feed.closeness.size(), plain.closeness.size());
  for (VertexId v = 0; v < plain.closeness.size(); ++v) {
    ASSERT_EQ(with_feed.closeness[v], plain.closeness[v]) << "vertex " << v;
    ASSERT_EQ(with_feed.harmonic[v], plain.harmonic[v]) << "vertex " << v;
  }
  EXPECT_EQ(with_feed.stats.rc_steps, plain.stats.rc_steps);
}

TEST(ProgressFeed, ExchangeWaitReachesStatsAndFeed) {
  // Every multi-rank exchange blocks in recvs for some nonzero time, and
  // that wait is attributed to the peer whose arrival ended it.
  const Graph g = make_er(160, 480, 91, WeightRange{1, 5});
  EngineConfig cfg;
  cfg.num_ranks = 4;
  RunResult r;
  const auto events = run_with_feed(g, cfg, &r);

  EXPECT_GT(r.stats.rc_exchange_wait_seconds, 0.0);
  EXPECT_GT(r.stats.rc_blocked_on_seconds, 0.0);
  EXPECT_FALSE(r.stats.rc_blocked_on_by_rank.empty());
  double step_wait = 0.0;
  for (const StepStats& s : r.stats.steps) {
    step_wait += s.sum_exchange_wait_seconds;
    EXPECT_GE(s.blocked_on_rank, -1);
    EXPECT_LT(s.blocked_on_rank, cfg.num_ranks);
  }
  EXPECT_DOUBLE_EQ(step_wait, r.stats.rc_exchange_wait_seconds);

  bool saw_wait = false;
  for (const obs::ProgressEvent& ev : events) {
    if (ev.phase != "rc_step" || ev.exchange_wait_seconds <= 0) continue;
    saw_wait = true;
    EXPECT_GE(ev.blocked_on_rank, 0);
    EXPECT_LT(ev.blocked_on_rank, cfg.num_ranks);
    EXPECT_GT(ev.blocked_on_seconds, 0.0);
  }
  EXPECT_TRUE(saw_wait) << "no rc_step event carried the exchange wait";
}

TEST(ProgressFeed, RecoveryEventsUnderInjectedCrash) {
  const Graph g = make_er(130, 390, 13, WeightRange{1, 3});
  EngineConfig cfg;
  cfg.num_ranks = 4;
  cfg.checkpoint_every = 2;
  cfg.faults.crashes.push_back({1, 3});

  RunResult r;
  const auto events = run_with_feed(g, cfg, &r);
  ASSERT_EQ(r.stats.recoveries, 1u);

  std::size_t recovery_events = 0;
  for (const auto& ev : events) {
    if (ev.phase == "recovery") {
      EXPECT_EQ(ev.detail, "rollback");
      EXPECT_EQ(ev.recoveries, 1u);
      ++recovery_events;
    }
  }
  EXPECT_EQ(recovery_events, 1u);
  EXPECT_EQ(events.back().phase, "done");
  EXPECT_EQ(events.back().recoveries, 1u);
  // Post-recovery rc_step events carry the bumped recovery counter.
  bool saw_recovered_step = false;
  for (const auto& ev : events) {
    if (ev.phase == "rc_step" && ev.recoveries == 1u) {
      saw_recovered_step = true;
    }
  }
  EXPECT_TRUE(saw_recovered_step);
}

}  // namespace
}  // namespace aacc
