// The engine's metric catalog: every metric is declared once, in kCatalog
// below, and each view of it is derived by walking that table — the
// per-rank step record, StepStats and RunStats with their folds and
// RunStats::to_json / accumulate, the progress gather and its NDJSON
// codec, and the metrics registry (docs/OBSERVABILITY.md §Metrics
// catalog).
//
// Adding a metric means one catalog line plus one record site: a StepLocal
// field (bumped in RankEngine::counts_ or read in RankEngine::sample()), a
// rt::RankLedger counter, or a direct registry call for registry-only
// instruments.
//
// The table is header-only data (names, enums, member pointers), so the
// obs-layer NDJSON codec walks it without linking the core library.
#pragma once

#include <cstdint>
#include <type_traits>
#include <variant>

#include "core/engine.hpp"
#include "obs/json.hpp"
#include "obs/progress.hpp"
#include "runtime/comm.hpp"

namespace aacc {

/// One rank's counters at an RC step boundary (RankEngine::sample): running
/// totals, except the blocked-on pair, which covers this step only. The
/// StepStats field docs (engine.hpp) describe each quantity.
struct StepLocal {
  std::size_t step = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t relaxations = 0;
  std::uint64_t poisons = 0;
  std::uint64_t repairs = 0;
  double cpu_seconds = 0.0;
  double drain_cpu_seconds = 0.0;
  double exchange_wait_seconds = 0.0;
  double blocked_on_seconds = 0.0;
  std::int64_t blocked_on_rank = -1;  ///< -1 = never blocked
  std::uint64_t dv_resident_bytes = 0;
  std::uint64_t dv_cold_bytes = 0;
  std::uint64_t dv_spare_bytes = 0;
  std::uint64_t dv_promotions = 0;
  std::uint64_t dv_demotions = 0;
  double dv_decode_seconds = 0.0;
};

namespace metrics {

static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "counts share the uint64_t member alternative");

/// Registry instrument kind (informational for unregistered metrics).
enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
/// How one step's per-rank values combine on the driver, in rank order (so
/// double sums are bit-stable). kNone: not a per-rank value.
enum class Reduce : std::uint8_t {
  kNone,
  kSum,
  kMax,
  kMaxRank,  ///< max; the partner keeps the value reported with it
  kMaxSum,   ///< max; the partner takes the sum
};
/// How RunStats::accumulate folds a later run into a total.
enum class Runs : std::uint8_t { kSum, kLatest };
using enum Kind;
using enum Reduce;
/// RunStats JSON fields with a hand-written shape (run_stats.cpp); the
/// catalog fixes where they appear.
enum class Irregular : std::uint8_t {
  kNone,
  kCpuByPhase,
  kBlockedOnByRank,
  kHistograms,
  kRecoveryLog,
};

/// A field of view struct S, by value type; monostate when S lacks it.
template <class S>
using Member = std::variant<std::monostate, std::uint64_t S::*,
                            std::int64_t S::*, double S::*>;

/// Where a metric appears in one view struct: JSON key and member, plus the
/// partner a kMaxRank / kMaxSum reduction fills. JSON puts the partner
/// first.
template <class S>
struct View {
  const char* key = nullptr;
  Member<S> member{};
  const char* partner_key = nullptr;
  Member<S> partner{};
};

/// One catalog line. StepLocal holds running totals: a metric with a
/// StepStats view reports per-step deltas of them (kMaxRank values are
/// per step already), the other views take the running value.
struct Metric {
  const char* name = nullptr;  ///< registry name; null when unregistered
  Kind kind = kCounter;
  const char* unit = "count";
  Reduce reduce = kNone;
  Runs runs = Runs::kSum;
  /// Source: a StepLocal field (folded into the registry by record_step)
  /// or a transport ledger counter (folded by the driver).
  View<StepLocal> local{};
  std::uint64_t rt::RankLedger::* ledger = nullptr;
  View<StepStats> step{};
  View<RunStats> run{};
  const char* run_group = nullptr;  ///< nested RunStats JSON object
  Irregular irregular = Irregular::kNone;
  View<obs::ProgressEvent> event{};
  /// NDJSON group flag: the fields are written only when it is set, and
  /// parsing any of them sets it.
  bool obs::ProgressEvent::* gate = nullptr;
};

using obs::ProgressEvent;
using rt::RankLedger;
#define LOCAL(f) #f, &StepLocal::f
#define STEP(f) #f, &StepStats::f
#define RUN(f) #f, &RunStats::f
#define EVENT(f) #f, &ProgressEvent::f

/// The catalog. Its order is the JSON field order of every view.
inline constexpr Metric kCatalog[] = {
    // ---- run timing ----
    {.kind = kGauge, .unit = "s", .run = {RUN(wall_seconds)}},
    {.name = "time/dd_seconds", .kind = kGauge, .unit = "s",
     .run = {RUN(dd_seconds)}},
    {.name = "cpu/total", .kind = kGauge, .unit = "s",
     .run = {RUN(total_cpu_seconds)}},
    {.name = "cpu/max_rank", .kind = kGauge, .unit = "s",
     .run = {RUN(max_rank_cpu_seconds)}},
    {.kind = kGauge, .unit = "s", .run = {RUN(modeled_makespan_seconds)}},
    {.run = {"cpu_by_phase"}, .irregular = Irregular::kCpuByPhase},
    // ---- per-step work and the feed's convergence surface ----
    {.unit = "bytes", .reduce = kSum, .local = {LOCAL(bytes_sent)},
     .step = {"bytes", &StepStats::bytes}},
    {.kind = kGauge, .unit = "s", .reduce = kMax, .local = {LOCAL(cpu_seconds)},
     .step = {STEP(max_cpu_seconds)}},
    {.kind = kGauge, .unit = "s", .reduce = kSum, .local = {LOCAL(cpu_seconds)},
     .step = {STEP(sum_cpu_seconds)}},
    {.unit = "entries", .reduce = kSum, .event = {EVENT(dirty)}},
    {.kind = kGauge, .unit = "ratio", .event = {EVENT(dirty_fraction)}},
    {.unit = "entries", .reduce = kSum, .event = {EVENT(settled)}},
    {.unit = "entries", .reduce = kSum, .event = {EVENT(columns)}},
    {.name = "rc/relaxations", .reduce = kSum, .local = {LOCAL(relaxations)},
     .step = {STEP(relaxations)}, .event = {EVENT(relaxations)}},
    {.name = "rc/poisons", .reduce = kSum, .local = {LOCAL(poisons)},
     .step = {STEP(poisons)}, .event = {EVENT(poisons)}},
    {.name = "rc/repairs", .reduce = kSum, .local = {LOCAL(repairs)},
     .step = {STEP(repairs)}, .event = {EVENT(repairs)}},
    {.unit = "rows", .reduce = kMaxSum,
     .event = {EVENT(queue_max), EVENT(queue_sum)}},
    // ---- transport and health (rank ledgers) ----
    {.name = "transport/bytes_sent", .unit = "bytes", .reduce = kSum,
     .ledger = &RankLedger::bytes_sent, .run = {RUN(total_bytes)},
     .event = {"bytes", &ProgressEvent::bytes}},
    {.name = "transport/bytes_received", .unit = "bytes",
     .ledger = &RankLedger::bytes_received},
    {.name = "transport/messages_sent", .ledger = &RankLedger::messages_sent,
     .run = {RUN(total_messages)}},
    {.name = "transport/messages_received",
     .ledger = &RankLedger::messages_received},
    {.name = "transport/frame_overhead_bytes", .unit = "bytes",
     .ledger = &RankLedger::frame_overhead_bytes,
     .run = {RUN(frame_overhead_bytes)}},
    {.name = "transport/retransmits", .reduce = kSum,
     .ledger = &RankLedger::retransmits, .run = {RUN(retransmits)},
     .event = {EVENT(retransmits)}},
    {.name = "health/stragglers", .ledger = &RankLedger::health_stragglers},
    {.name = "health/suspects", .ledger = &RankLedger::health_suspects},
    {.name = "health/deaths_declared", .ledger = &RankLedger::health_dead_declared},
    {.name = "net/modeled_serialized", .kind = kGauge, .unit = "s",
     .run = {"serialized", &RunStats::modeled_network_seconds_serialized},
     .run_group = "modeled_network_seconds"},
    // ---- recombination ----
    {.unit = "steps", .run = {RUN(rc_steps)}},
    {.name = "rc/steps", .unit = "rank-steps"},
    {.name = "drain/cpu_seconds", .kind = kGauge, .unit = "s", .reduce = kSum,
     .local = {LOCAL(drain_cpu_seconds)}, .step = {STEP(sum_drain_cpu_seconds)},
     .run = {RUN(rc_drain_cpu_seconds)}},
    {.name = "exchange/wait_seconds", .kind = kGauge, .unit = "s", .reduce = kSum,
     .local = {LOCAL(exchange_wait_seconds)},
     .step = {STEP(sum_exchange_wait_seconds)},
     .run = {RUN(rc_exchange_wait_seconds)},
     .event = {EVENT(exchange_wait_seconds)}},
    {.kind = kGauge, .unit = "s", .reduce = kMaxRank,
     .local = {LOCAL(blocked_on_seconds), LOCAL(blocked_on_rank)},
     .step = {"blocked_seconds", &StepStats::max_blocked_seconds,
              STEP(blocked_on_rank)},
     .run = {RUN(rc_blocked_on_seconds)},
     .event = {EVENT(blocked_on_seconds), EVENT(blocked_on_rank)}},
    {.run = {"rc_blocked_on"}, .irregular = Irregular::kBlockedOnByRank},
    {.run = {"histograms"}, .irregular = Irregular::kHistograms},
    // ---- recovery, validation, final distribution ----
    {.run = {RUN(recoveries)}, .event = {EVENT(recoveries)}},
    {.run = {"recovery_log"}, .irregular = Irregular::kRecoveryLog},
    {.run = {RUN(invariant_violations)}},
    {.unit = "edges", .runs = Runs::kLatest, .run = {RUN(cut_edges_initial)}},
    {.unit = "edges", .runs = Runs::kLatest, .run = {RUN(cut_edges_final)}},
    {.kind = kGauge, .unit = "ratio", .runs = Runs::kLatest,
     .run = {RUN(imbalance_final)}},
    // ---- DV residency (tiered store) ----
    {.name = "dv/resident_bytes", .kind = kGauge, .unit = "bytes", .reduce = kSum,
     .runs = Runs::kLatest, .local = {LOCAL(dv_resident_bytes)},
     .run = {RUN(dv_resident_bytes)}, .event = {EVENT(dv_resident_bytes)}},
    {.name = "dv/cold_bytes", .kind = kGauge, .unit = "bytes", .reduce = kSum,
     .runs = Runs::kLatest, .local = {LOCAL(dv_cold_bytes)},
     .run = {RUN(dv_cold_bytes)}, .event = {EVENT(dv_cold_bytes)}},
    {.name = "dv/spare_bytes", .kind = kGauge, .unit = "bytes", .reduce = kSum,
     .runs = Runs::kLatest, .local = {LOCAL(dv_spare_bytes)},
     .run = {RUN(dv_spare_bytes)}},
    {.name = "dv/promotions", .reduce = kSum, .local = {LOCAL(dv_promotions)},
     .run = {RUN(dv_promotions)}, .event = {EVENT(dv_promotions)}},
    {.name = "dv/demotions", .reduce = kSum, .local = {LOCAL(dv_demotions)},
     .run = {RUN(dv_demotions)}, .event = {EVENT(dv_demotions)}},
    {.name = "dv/decode_seconds", .kind = kGauge, .unit = "s",
     .local = {LOCAL(dv_decode_seconds)}, .run = {RUN(dv_decode_seconds)}},
    // ---- live serving and the online estimators (feed groups) ----
    {.name = "serve/queries", .event = {EVENT(serve_queries)},
     .gate = &ProgressEvent::has_serve},
    {.unit = "steps", .event = {EVENT(snapshot_age_steps)},
     .gate = &ProgressEvent::has_serve},
    {.kind = kGauge, .unit = "ratio", .event = {EVENT(topk_overlap)},
     .gate = &ProgressEvent::has_estimators},
    {.kind = kGauge, .unit = "ratio", .event = {EVENT(kendall_tau)},
     .gate = &ProgressEvent::has_estimators},
    // ---- registry only ----
    {.name = "serve/stale_responses"},
    {.name = "serve/publishes"},
    {.name = "serve/publish_seconds", .kind = kGauge, .unit = "s"},
    {.name = "ia/dirty_entries", .unit = "entries"},
    {.name = "rc/drain_queue_depth", .kind = kHistogram, .unit = "entries"},
    {.name = "serve/snapshot_age_steps", .kind = kHistogram, .unit = "steps"},
    {.name = "serve/query_ns/point", .kind = kHistogram, .unit = "ns"},
    {.name = "serve/query_ns/top_k", .kind = kHistogram, .unit = "ns"},
    {.name = "serve/query_ns/rank_of", .kind = kHistogram, .unit = "ns"},
};

#undef LOCAL
#undef STEP
#undef RUN
#undef EVENT

template <class P>
inline constexpr bool kIsMember = !std::is_same_v<P, std::monostate>;

/// Calls fn(p) with the member pointer `m` holds, if any.
template <class S, class Fn>
void each(const Member<S>& m, Fn&& fn) {
  std::visit([&](auto p) { if constexpr (kIsMember<decltype(p)>) fn(p); }, m);
}

/// Calls fn(pa, pb) when both views hold a member of one value type.
template <class A, class B, class Fn>
void zip(const Member<A>& a, const Member<B>& b, Fn&& fn) {
  std::visit(
      [&](auto pa, auto pb) {
        if constexpr (kIsMember<decltype(pa)> && kIsMember<decltype(pb)>) {
          if constexpr (std::is_same_v<decltype(std::declval<A>().*pa),
                                       decltype(std::declval<B>().*pb)>) {
            fn(pa, pb);
          }
        }
      },
      a, b);
}

/// Writes one metric's fields in a view, the partner first.
template <class S>
void write_view(obs::JsonObject& o, const View<S>& v, const S& s) {
  each(v.partner,
       [&](auto p) { obs::write_json_number(o.key(v.partner_key), s.*p); });
  each(v.member, [&](auto p) { obs::write_json_number(o.key(v.key), s.*p); });
}

/// Sets the fields of one rank's view (&Metric::step or &Metric::event)
/// that its step records, for the step from `prev` to `cur`, and its
/// transport ledger (optional) supply.
template <class S>
void from_step(S& out, View<S> Metric::* view, const StepLocal& cur,
               const StepLocal& prev, const rt::RankLedger* ledger = nullptr) {
  for (const Metric& m : kCatalog) {
    const View<S>& v = m.*view;
    const bool per_step = m.step.key != nullptr && m.reduce != kMaxRank;
    zip(m.local.member, v.member, [&](auto lp, auto p) {
      out.*p = per_step ? cur.*lp - prev.*lp : cur.*lp;
    });
    zip(m.local.partner, v.partner, [&](auto lp, auto p) { out.*p = cur.*lp; });
    if (ledger != nullptr && m.ledger != nullptr) {
      zip(Member<rt::RankLedger>{m.ledger}, v.member,
          [&](auto lp, auto p) { out.*p = ledger->*lp; });
    }
  }
}

/// Folds one rank's view into the cross-rank value by each metric's
/// reduction. Callers go in rank order.
template <class S>
void merge(S& into, View<S> Metric::* view, const S& mine) {
  for (const Metric& m : kCatalog) {
    const View<S>& v = m.*view;
    each(v.member, [&](auto p) {
      switch (m.reduce) {
        case kNone:
          return;
        case kSum:
          into.*p += mine.*p;
          return;
        case kMaxSum:
          each(v.partner, [&](auto q) { into.*q += mine.*q; });
          break;
        case kMax:
        case kMaxRank:
          break;
      }
      if (!(mine.*p > into.*p)) return;
      into.*p = mine.*p;
      if (m.reduce == kMaxRank) {
        each(v.partner, [&](auto q) { into.*q = mine.*q; });
      }
    });
  }
}

}  // namespace metrics
}  // namespace aacc
