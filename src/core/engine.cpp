#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "analysis/closeness.hpp"
#include "analysis/quality.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/metric_catalog.hpp"
#include "core/rank_engine.hpp"
#include "core/supervisor.hpp"
#include "runtime/comm.hpp"
#include "serve/context.hpp"
#include "runtime/serialize.hpp"

namespace aacc {

AnytimeEngine::AnytimeEngine(Graph g, EngineConfig cfg)
    : graph_(std::move(g)), cfg_(cfg) {
  cfg_.validate();
}

AnytimeEngine::AnytimeEngine(Graph g, Checkpoint checkpoint, EngineConfig cfg)
    : graph_(std::move(g)), cfg_(cfg), resume_(std::move(checkpoint)),
      resuming_(true) {
  cfg_.validate();
  // Structural validation up front (CheckpointError on shape/world-size
  // mismatch, bad magic header, unknown version); deep blob truncation is
  // caught on restore inside the rank threads.
  validate_checkpoint(resume_, cfg_.num_ranks);
  // Don't immediately re-checkpoint at the same step on resume.
  if (cfg_.checkpoint_at_step <= resume_.step) {
    cfg_.checkpoint_at_step = kNoCheckpointStep;
  }
}

double RunResult::closeness_of(VertexId v) const { return closeness.at(v); }

double RunResult::harmonic_of(VertexId v) const { return harmonic.at(v); }

std::vector<VertexId> RunResult::top_closeness(std::size_t k) const {
  return top_k(closeness, k);
}

std::vector<VertexId> RunResult::top_harmonic(std::size_t k) const {
  return top_k(harmonic, k);
}

RunResult AnytimeEngine::run(const EventSchedule& schedule) {
  if (ran_) {
    throw EngineStateError(
        "AnytimeEngine::run is one-shot: the distributed state was consumed "
        "by the first run; construct a new engine (or resume from a "
        "checkpoint) to run again");
  }
  ran_ = true;

  // Validate schedule ordering and refine-mode soundness.
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    AACC_CHECK_MSG(schedule[i - 1].at_step <= schedule[i].at_step,
                   "EventSchedule must be sorted by at_step");
  }
  if (cfg_.refine == RefineMode::kBoundaryFloydWarshall) {
    for (const EventBatch& b : schedule) {
      for (const Event& e : b.events) {
        AACC_CHECK_MSG(!std::holds_alternative<EdgeDeleteEvent>(e) &&
                           !std::holds_alternative<WeightChangeEvent>(e) &&
                           !std::holds_alternative<VertexDeleteEvent>(e),
                       "boundary-FW refinement is additive-only (see config.hpp)");
      }
    }
  }

  detail::DriverArgs args;
  args.graph = &graph_;
  args.cfg = cfg_;
  args.schedule = &schedule;
  args.resume = resuming_ ? &resume_ : nullptr;
  return detail::run_driver(args);
}

namespace detail {

namespace {

// A served recovery's I/O, on the driver thread while the rank world is
// joined: trace instant, progress `recovery` event, serve provenance flag.
void report_recovery(const Supervisor::Outcome& rec,
                     const std::vector<RecoveryRecord>& log,
                     obs::TraceTrack* drv, obs::ProgressEmitter* progress,
                     serve::ServeContext* serve, Rank ranks) {
  const std::size_t recoveries = log.size();
  static constexpr const char* kInstants[] = {"recovery:rollback",
                                              "recovery:degraded"};
  if (drv != nullptr) {
    drv->instant(kInstants[static_cast<int>(rec.rung)], "attempt", recoveries);
  }
  if (serve != nullptr) {
    // A rollback's replay resurrects every seat and clears the flag.
    serve->degraded.store(rec.rung == RecoveryPolicy::kDegrade,
                          std::memory_order_release);
  }
  if (progress != nullptr) {
    progress->recoveries = recoveries;
    obs::ProgressEvent ev;
    ev.phase = "recovery";
    ev.detail = log.back().kind;
    ev.step = rec.step;
    ev.ranks = ranks;
    ev.recoveries = recoveries;
    progress->emit(ev);
  }
}

// The terminal progress event: totals from the final RunStats plus the
// exact final top-k, so a consumer that only tails the feed ends with the
// same ranking RunResult::harmonic would give it.
void emit_done(const RunResult& out, obs::ProgressEmitter& progress,
               const serve::ServeContext* serve, const EngineConfig& cfg) {
  obs::ProgressEvent ev;
  ev.phase = "done";
  ev.step = out.stats.rc_steps;
  ev.ranks = cfg.num_ranks;
  // Integer totals only: settled/dirty are not re-gathered after
  // teardown, and the timing fields describe a single step.
  for (const metrics::Metric& m : metrics::kCatalog) {
    if (std::holds_alternative<double obs::ProgressEvent::*>(
            m.event.member)) {
      continue;
    }
    if (m.run.key != nullptr) {
      metrics::zip(m.run.member, m.event.member,
                   [&](auto rp, auto ep) { ev.*ep = out.stats.*rp; });
    } else {
      metrics::zip(m.step.member, m.event.member, [&](auto sp, auto ep) {
        for (const StepStats& s : out.stats.steps) ev.*ep += s.*sp;
      });
    }
  }
  if (serve != nullptr) {
    ev.has_serve = true;
    ev.serve_queries = serve->queries.load(std::memory_order_relaxed);
    ev.snapshot_age_steps = 0;  // terminal snapshots are exact
  }
  const std::size_t k = cfg.progress.top_k;
  std::vector<std::pair<VertexId, double>> final_top;
  for (VertexId v : top_k(out.harmonic, k)) {
    final_top.emplace_back(v, out.harmonic[v]);
  }
  if (!progress.prev_top.empty()) {
    ev.has_estimators = true;
    ev.topk_overlap = top_k_overlap(progress.prev_top, final_top, k);
    ev.kendall_tau = kendall_tau(progress.prev_top, final_top);
  }
  ev.top.reserve(final_top.size());
  for (const auto& [v, score] : final_top) {
    (void)score;
    ev.top.push_back(v);
  }
  progress.prev_top = std::move(final_top);
  progress.emit(ev);
}

}  // namespace

RunResult run_driver(const DriverArgs& args) {
  // Batch mode and live mode share this driver verbatim; the locals below
  // keep the historical member names so the body reads unchanged.
  Graph& graph_ = *args.graph;
  const EngineConfig& cfg_ = args.cfg;
  const bool resuming_ = args.resume != nullptr;
  serve::ServeContext* const serve = args.serve;
  const bool live = serve != nullptr;
  // In live mode the consumed-batch journal is the schedule. It only grows
  // while rank threads run, so every snapshot taken here (start, after a
  // failed attempt, before result assembly — all joined-world points) is a
  // coherent replay prefix.
  EventSchedule live_sched;
  if (live) live_sched = serve->feed.journal_copy();
  const EventSchedule& schedule = live ? live_sched : *args.schedule;

  RunResult out;
  Timer wall;

  // Observability. One Tracer spans all supervised attempts (failed
  // attempts' spans stay in the rings, so the trace shows the whole
  // recovery story), and one metrics registry per rank accumulates across
  // attempts for honest failed-work accounting; both are merged after the
  // rank world has joined.
  std::unique_ptr<obs::Tracer> tracer;
  if (cfg_.trace.enabled) {
    // One subtrack per IA worker (the same auto rule as
    // RankEngine::ia_thread_count).
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t ia_workers =
        cfg_.ia_threads != 0
            ? cfg_.ia_threads
            : std::clamp<std::size_t>(
                  hw / static_cast<unsigned>(cfg_.num_ranks), 1, 8);
    tracer = std::make_unique<obs::Tracer>(cfg_.num_ranks, ia_workers,
                                           cfg_.trace);
  }
  obs::TraceTrack* const drv = tracer ? &tracer->driver() : nullptr;
  std::vector<obs::MetricsRegistry> rank_metrics(
      static_cast<std::size_t>(cfg_.num_ranks));

  // Progress feed (docs/OBSERVABILITY.md §Progress events). Driver-owned so
  // the estimator state and sinks survive supervised attempts; rank 0 emits
  // per-step events, this thread emits recovery/done events while the rank
  // world is joined — never concurrently.
  std::unique_ptr<obs::ProgressEmitter> progress;
  if (cfg_.progress.active()) {
    progress = std::make_unique<obs::ProgressEmitter>(cfg_.progress);
    if (!progress->file_ok()) {
      // Telemetry is diagnostics: an unwritable path must not fail the run
      // (same policy as trace export).
      std::fprintf(stderr,
                   "[aacc] warning: could not open progress feed %s\n",
                   cfg_.progress.path.c_str());
    }
  }

  // ---- DD phase (driver side, like mpiexec distributing partitions).
  // A resumed run skips it: the data distribution lives in the blobs. ----
  Partition part;
  if (!resuming_) {
    const obs::ScopedSpan dd_span(drv, "dd");
    Timer dd_timer;
    Rng rng(cfg_.seed);
    part = partition_graph(graph_, cfg_.num_ranks, cfg_.dd_partitioner, rng);
    out.stats.dd_seconds = dd_timer.seconds();
    out.stats.cut_edges_initial = evaluate_partition(graph_, part).cut_edges;
  }

  const auto edges = graph_.edges();

  // Checkpoint slots (one blob per rank) when a checkpoint is requested.
  const bool want_checkpoint = cfg_.checkpoint_at_step != kNoCheckpointStep;
  std::vector<std::vector<std::byte>> slots(
      static_cast<std::size_t>(cfg_.num_ranks));

  // ---- IA + RC on the rank world, under supervision ----
  // One World is reused across supervised attempts so ledgers accumulate:
  // work wasted by a failed attempt is honestly charged, and the
  // injector's one-shot crash flags keep a replay from re-dying at the
  // same point.
  std::optional<rt::FaultInjector> injector;
  if (cfg_.faults.any()) injector.emplace(cfg_.faults);
  std::optional<PeriodicCheckpoints> periodic;
  if (cfg_.checkpoint_every > 0) periodic.emplace(cfg_.num_ranks);

  rt::World world(cfg_.num_ranks, cfg_.logp, cfg_.transport);
  if (injector) world.install_faults(&*injector);
  if (cfg_.health.enabled) world.install_health(cfg_.health);
  if (tracer) world.install_tracer(tracer.get());

  std::vector<std::unique_ptr<RankEngine>> engines(
      static_cast<std::size_t>(cfg_.num_ranks));
  std::vector<std::size_t> rc_steps(static_cast<std::size_t>(cfg_.num_ranks), 0);
  // Rewritten between attempts, read-only while rank threads run.
  Supervisor supervisor(cfg_, {part.assignment, &edges}, args.resume,
                        periodic ? &*periodic : nullptr);

  const auto attempt_fn = [&](rt::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    RankEngine::Init init;
    init.me = comm.rank();
    init.schedule = &schedule;
    init.cfg = cfg_;
    init.checkpoint_slot = &slots[me];
    init.injector = injector ? &*injector : nullptr;
    init.tracer = tracer.get();
    init.metrics = &rank_metrics[me];
    init.serve = serve;
    // The driver rank emits; everyone else only feeds the gather. Rank 0
    // keeps the emitter even as a ghost — the merged survivor data still
    // flows through its seat in the collectives.
    init.progress = me == 0 ? progress.get() : nullptr;
    supervisor.prepare(init);
    // Constructed into the shared slot immediately so a failing rank's
    // partial state is stashed for the supervisor (survivors' pending sends
    // and cursors seed the next attempt).
    engines[me] = std::make_unique<RankEngine>(init, comm);
    RankEngine& engine = *engines[me];
    if (std::holds_alternative<RankEngine::Fresh>(init.start)) {
      engine.run_ia();
      comm.barrier();  // IA/RC phase boundary
    }
    rc_steps[me] = engine.run_rc();
  };

  for (;;) {
    const rt::World::RunReport report = [&] {
      const obs::ScopedSpan attempt_span(drv, "attempt");
      return world.run_contained(attempt_fn);
    }();
    if (report.ok()) break;
    // The journal grew during the failed attempt; refresh the live schedule
    // so replay windows and batch cursors are computed against everything
    // rank 0 actually consumed.
    if (live) live_sched = serve->feed.journal_copy();
    std::vector<std::optional<Supervisor::RankView>> views(engines.size());
    for (std::size_t r = 0; r < engines.size(); ++r) {
      if (engines[r]) views[r] = Supervisor::RankView::of(*engines[r]);
    }
    const Supervisor::Outcome rec =
        supervisor.recover(report, world.declared_dead(), views, schedule);
    report_recovery(rec, supervisor.log(), drv, progress.get(), serve,
                    cfg_.num_ranks);
  }
  supervisor.finish();
  out.stats.recoveries = supervisor.log().size();
  out.stats.recovery_log = supervisor.log();
  out.degraded = supervisor.degraded();
  // Final refresh: the result must reflect every batch the closed feed's
  // journal recorded (the rank world is joined; the journal is final).
  if (live) live_sched = serve->feed.journal_copy();

  if (want_checkpoint && !slots[0].empty()) {
    out.checkpoint.rank_blobs = std::move(slots);
    out.checkpoint.step = cfg_.checkpoint_at_step;
    out.checkpoint.num_ranks = cfg_.num_ranks;
    out.checkpoint.next_batch =
        batches_through(schedule, cfg_.checkpoint_at_step);
  }

  // ---- driver-side ground truth and result assembly ----
  if (drv != nullptr) drv->begin("result_assembly");
  if (out.checkpoint.valid()) {
    // The run stopped at the checkpoint: only the consumed batches are in
    // the distributed state.
    for (std::size_t b = 0; b < out.checkpoint.next_batch; ++b) {
      for (const Event& e : schedule[b].events) apply_event(graph_, e);
    }
  } else {
    apply_schedule(graph_, schedule);
  }
  const VertexId n = graph_.num_vertices();

  out.closeness.assign(n, 0.0);
  out.harmonic.assign(n, 0.0);
  if (cfg_.gather_apsp) {
    out.apsp.assign(n, std::vector<Dist>(n, kInfDist));
    out.first_hop.assign(n, std::vector<VertexId>(n, kNoVertex));
  }
  for (const auto& engine : engines) {
    const DvStore& store = engine->store();
    for (std::size_t r = 0; r < store.size(); ++r) {
      AACC_CHECK(store.columns(r) == n);
      const VertexId self = store.self(r);
      out.closeness[self] = store.closeness(r);
      out.harmonic[self] = store.harmonic(r);
      if (cfg_.gather_apsp) {
        // Full-matrix gather needs the dense rows; promotion here is fine
        // (the run is over and gather_apsp implies dense-scale memory).
        const DvRow& row = store.row(r);
        out.apsp[self] = row.dists();
        out.first_hop[self] = row.next_hops();
      }
    }
  }
  if (cfg_.gather_apsp) {
    for (VertexId v = 0; v < n; ++v) {
      if (graph_.is_alive(v)) out.apsp[v][v] = 0;
    }
  }

  // Final distribution metrics (Fig. 7's "new cut-edges" comes from
  // cut_edges_final - cut_edges_initial).
  out.final_owner = engines[0]->local_graph().owner_map();
  {
    Partition final_part;
    final_part.num_parts = cfg_.num_ranks;
    final_part.assignment = out.final_owner;
    const auto m = evaluate_partition(graph_, final_part);
    out.stats.cut_edges_final = m.cut_edges;
    out.stats.imbalance_final = m.imbalance;
  }

  if (out.degraded) {
    // Exact coverage gap: every alive vertex whose row died with its rank
    // (including vertices round-robined onto a ghost after the failure).
    for (VertexId v = 0; v < n; ++v) {
      if (graph_.is_alive(v) && supervisor.dead(out.final_owner[v])) {
        out.lost_vertices.push_back(v);
      }
    }
  }

  for (const auto& engine : engines) {
    out.stats.invariant_violations += engine->invariant_violations();
  }

  // Per-step aggregates, folded rank by rank through the metric catalog
  // (rank logs hold running totals). On a resumed run the log covers only
  // the steps executed here; `step` fields stay absolute.
  out.stats.rc_steps = rc_steps[0];
  const std::size_t steps = engines[0]->step_log().size();
  out.stats.steps.resize(steps);
  for (const auto& engine : engines) {
    const auto& log = engine->step_log();
    AACC_CHECK(log.size() == steps);
    for (std::size_t s = 0; s < steps; ++s) {
      StepStats mine;
      metrics::from_step(mine, &metrics::Metric::step, log[s],
                         s == 0 ? StepLocal{} : log[s - 1]);
      out.stats.steps[s].step = log[s].step;
      metrics::merge(out.stats.steps[s], &metrics::Metric::step, mine);
    }
  }
  for (const StepStats& s : out.stats.steps) {
    for (const metrics::Metric& m : metrics::kCatalog) {
      metrics::zip(m.step.member, m.run.member,
                   [&](auto sp, auto rp) { out.stats.*rp += s.*sp; });
    }
    if (s.blocked_on_rank >= 0) {
      out.stats.rc_blocked_on_by_rank[s.blocked_on_rank] +=
          s.max_blocked_seconds;
    }
  }

  // Anytime quality snapshots.
  if (cfg_.record_step_quality) {
    out.step_harmonic.assign(steps, std::vector<double>(n, 0.0));
    for (const auto& engine : engines) {
      const auto& snaps = engine->step_quality();
      for (std::size_t s = 0; s < snaps.size() && s < steps; ++s) {
        for (const auto& [v, c] : snaps[s]) {
          out.step_harmonic[s][v] = c;
        }
      }
    }
  }

  if (drv != nullptr) drv->end("result_assembly");

  // ---- world-level accounting, folded through the metrics registry ----
  // The runtime ledgers land in each rank's registry first and RunStats
  // reads the merged registry back, so the two views cannot disagree
  // (docs/OBSERVABILITY.md: the registry is the single source of truth).
  // Gauges fold per rank in rank order, so double sums are bit-stable.
  const auto& ledgers = world.ledgers();
  for (Rank r = 0; r < cfg_.num_ranks; ++r) {
    const rt::RankLedger& ledger = ledgers[static_cast<std::size_t>(r)];
    obs::MetricsRegistry& reg = rank_metrics[static_cast<std::size_t>(r)];
    for (const metrics::Metric& m : metrics::kCatalog) {
      if (m.ledger != nullptr) reg.counter(m.name).add(ledger.*m.ledger);
    }
    for (const auto& [phase, secs] : ledger.cpu_seconds) {
      reg.gauge("cpu/phase/" + phase).add(secs);
    }
    reg.gauge("cpu/total").add(ledger.total_cpu_seconds());
  }
  obs::MetricsRegistry merged;
  for (const obs::MetricsRegistry& reg : rank_metrics) merged.merge(reg);
  if (live) {
    // Query-side counters live in the shared serve context (bumped by
    // QueryView readers); fold them in next to the rank-side serve/
    // publish metrics so the merged registry tells the whole story.
    merged.counter("serve/queries")
        .add(serve->queries.load(std::memory_order_relaxed));
    merged.counter("serve/stale_responses")
        .add(serve->stale_responses.load(std::memory_order_relaxed));
    // Query latency SLOs: the lock-free per-kind histograms recorded by
    // QueryView readers, snapshotted into the merged registry so p50/p95/
    // p99 ride the normal stats/JSON plumbing.
    merged.histogram("serve/query_ns/point").merge(serve->query_ns_point.snapshot());
    merged.histogram("serve/query_ns/top_k").merge(serve->query_ns_top_k.snapshot());
    merged.histogram("serve/query_ns/rank_of")
        .merge(serve->query_ns_rank_of.snapshot());
  }
  merged.gauge("cpu/max_rank").set(world.max_rank_cpu_seconds());
  merged.gauge("net/modeled_serialized").set(world.modeled_network_seconds());
  merged.gauge("time/dd_seconds").set(out.stats.dd_seconds);

  // Run-level fields of registered metrics without a per-step view.
  for (const metrics::Metric& m : metrics::kCatalog) {
    if (m.name == nullptr || m.step.key != nullptr) continue;
    metrics::each(m.run.member, [&](auto p) {
      using T = std::remove_reference_t<decltype(out.stats.*p)>;
      out.stats.*p = m.kind == metrics::Kind::kCounter
                         ? static_cast<T>(merged.counter_value(m.name))
                         : static_cast<T>(merged.gauge_value(m.name));
    });
  }
  static constexpr const char* kPhasePrefix = "cpu/phase/";
  for (const auto& [name, gauge] : merged.gauges()) {
    if (name.rfind(kPhasePrefix, 0) == 0) {
      out.stats.cpu_by_phase[name.substr(10)] = gauge.value;
    }
  }
  double makespan = 0.0;
  for (const StepStats& s : out.stats.steps) makespan += s.max_cpu_seconds;
  out.stats.modeled_makespan_seconds =
      makespan + out.stats.modeled_network_seconds_serialized;
  // Percentile summaries for every histogram in the merged registry
  // (satellite of docs/OBSERVABILITY.md §Metrics): RunStats::to_json
  // emits them under "histograms".
  for (const auto& [name, h] : merged.histograms()) {
    out.stats.histogram_summary[name] = {
        h.count, h.sum, obs::histogram_quantile(h, 0.50),
        obs::histogram_quantile(h, 0.95), obs::histogram_quantile(h, 0.99)};
  }
  out.metrics = std::move(merged);

  out.stats.wall_seconds = wall.seconds();

  if (progress) emit_done(out, *progress, serve, cfg_);

  if (tracer) {
    out.trace = tracer->merge();
    if (!cfg_.trace.path.empty() &&
        !obs::write_chrome_trace_file(cfg_.trace.path, out.trace)) {
      // Tracing is diagnostics: an unwritable path must not fail the run.
      std::fprintf(stderr, "[aacc] warning: could not write trace to %s\n",
                   cfg_.trace.path.c_str());
    }
  }
  return out;
}

}  // namespace detail

std::vector<VertexId> reconstruct_path(const RunResult& result, VertexId u,
                                       VertexId v) {
  AACC_CHECK_MSG(!result.first_hop.empty(),
                 "reconstruct_path requires cfg.gather_apsp");
  AACC_CHECK(u < result.first_hop.size() && v < result.first_hop.size());
  std::vector<VertexId> path{u};
  if (u == v) return path;
  if (result.apsp[u][v] == kInfDist) return {};
  VertexId cur = u;
  // Next-hop chains strictly decrease in distance, so this terminates.
  while (cur != v) {
    const VertexId next = result.first_hop[cur][v];
    AACC_CHECK_MSG(next != kNoVertex, "broken next-hop chain at " << cur);
    path.push_back(next);
    cur = next;
  }
  return path;
}

RunResult run_baseline_restart(Graph g, const EventSchedule& schedule,
                               const EngineConfig& cfg) {
  // The analysis in progress when changes arrive, plus one full rerun per
  // change batch. Only costs carry over; no partial results are reused.
  RunResult result;
  {
    AnytimeEngine initial(g, cfg);
    result = initial.run();
  }
  RunStats total = result.stats;
  for (const EventBatch& batch : schedule) {
    for (const Event& e : batch.events) apply_event(g, e);
    AnytimeEngine rerun(g, cfg);
    result = rerun.run();
    total.accumulate(result.stats);
  }
  result.stats = total;
  return result;
}

}  // namespace aacc
