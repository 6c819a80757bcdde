#include "core/supervisor.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "runtime/faults.hpp"

namespace aacc {

Supervisor::RankView Supervisor::RankView::of(const RankEngine& engine) {
  return {engine.current_step(), engine.current_batch(),
          engine.vertices_added(), engine.local_graph().owner_map(),
          [&engine] {
            rt::ByteWriter w;
            engine.serialize_state(w);
            return w.take();
          }};
}

Supervisor::Supervisor(const EngineConfig& cfg, RankEngine::Fresh fresh,
                       const Checkpoint* resume,
                       PeriodicCheckpoints* periodic)
    : cfg_(cfg),
      fresh_(std::move(fresh)),
      resume_(resume),
      periodic_(periodic),
      mode_(resume != nullptr ? Mode::kResume : Mode::kFresh),
      dead_(static_cast<std::size_t>(cfg.num_ranks), false),
      stash_(static_cast<std::size_t>(cfg.num_ranks)),
      rung_used_(cfg.recovery_policy.size(), 0) {}

void Supervisor::prepare(RankEngine::Init& init) const {
  const auto me = static_cast<std::size_t>(init.me);
  init.periodic = periodic_;
  if (mode_ == Mode::kFresh) {
    init.start = fresh_;
  } else if (mode_ == Mode::kResume) {
    const Checkpoint& ck = rollback_ ? *rollback_ : *resume_;
    init.start = RankEngine::Restore{&ck.rank_blobs[me], {}};
    init.start_step = ck.step + 1;
    init.start_batch = ck.next_batch;
  } else {
    // Degraded: ghosts hold the dead seats, and the attempt takes no
    // snapshots.
    init.start_step = step_;
    init.start_batch = batch_;
    if (dead_[me]) {
      init.start = RankEngine::Ghost{owner_, fresh_.edges, vertices_added_};
    } else {
      init.start = RankEngine::Restore{&stash_[me], newly_dead_};
    }
    init.periodic = nullptr;
  }
  if (probe_pending_) {
    init.recovery_mark_step = mark_step_;
    init.recovery_mark = &recovery_mark_;
  }
}

Supervisor::Outcome Supervisor::recover(
    const rt::World::RunReport& report, std::span<const Rank> declared_dead,
    std::span<const std::optional<RankView>> ranks,
    const EventSchedule& schedule) {
  AACC_CHECK_MSG(!report.ok(), "recover() needs a failed attempt");
  // Classify; other errors (CheckpointError, logic errors) are bugs and
  // propagate. The root cause is the first root's error, else the first's.
  std::vector<Rank> roots;
  std::exception_ptr cause;
  for (const Rank r : report.failed) {
    const std::exception_ptr& error =
        report.errors[static_cast<std::size_t>(r)];
    try {
      std::rethrow_exception(error);
    } catch (const rt::InjectedCrash&) {
      roots.push_back(r);
    } catch (const rt::PeerFailedError&) {
      continue;  // a survivor interrupted by a failed peer
    } catch (const rt::TransportError&) {
      roots.push_back(r);
    }
    if (!cause) cause = error;
  }
  if (!cause) {
    cause = report.errors[static_cast<std::size_t>(report.failed.front())];
  }
  // A wedged rank declared dead may return without an error of its own.
  for (const Rank r : declared_dead) {
    if (std::find(roots.begin(), roots.end(), r) == roots.end()) {
      roots.push_back(r);
    }
  }
  if (roots.empty() || log_.size() >= cfg_.max_recoveries) {
    std::rethrow_exception(cause);
  }
  // The previous recovery's probe is final now; timestamp this death.
  resolve_probe();
  const std::int64_t death_ns = steady_now_ns();
  std::size_t death_step = 0;
  for (const auto& view : ranks) {
    if (view) death_step = std::max(death_step, view->step);
  }
  for (const Rank r : roots) dead_[static_cast<std::size_t>(r)] = true;

  std::exception_ptr refusal;
  for (std::size_t i = 0; i < cfg_.recovery_policy.size(); ++i) {
    const RecoveryRung& rung = cfg_.recovery_policy[i];
    if (rung.budget != 0 && rung_used_[i] >= rung.budget) continue;
    std::size_t restart = 0;
    try {
      switch (rung.policy) {
        case RecoveryPolicy::kRollback:
          restart = rollback(schedule);
          break;
        case RecoveryPolicy::kDegrade:
          restart = degrade(roots, ranks);
          break;
      }
    } catch (const RecoveryError&) {
      refusal = std::current_exception();
      continue;
    }
    ++rung_used_[i];
    // A rollback restarts before the death step; the probe still waits for
    // the death step, so the replay is inside the measured window.
    const std::size_t at_step =
        rung.policy == RecoveryPolicy::kRollback ? death_step : restart;
    static constexpr const char* kKinds[] = {"rollback", "degraded"};
    log_.push_back({kKinds[static_cast<int>(rung.policy)], at_step, -1.0});
    probe_pending_ = true;
    mark_step_ = at_step;
    death_ns_ = death_ns;
    recovery_mark_.store(-1, std::memory_order_relaxed);
    return {rung.policy, restart};
  }
  std::rethrow_exception(refusal ? refusal : cause);
}

void Supervisor::stash_survivors(
    std::span<const std::optional<RankView>> ranks) {
  // Every survivor stopped blocked in the same step's collective (crashes
  // fire at the step top or mid-exchange, both before ingest).
  const RankView* witness = nullptr;
  for (Rank r = 0; r < cfg_.num_ranks; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    if (dead_[idx]) continue;
    AACC_CHECK_MSG(idx < ranks.size() && ranks[idx].has_value(),
                   "survivor rank " << r << " has no stashed engine");
    const RankView& view = *ranks[idx];
    if (witness == nullptr) witness = &view;
    AACC_CHECK_MSG(view.step == witness->step && view.batch == witness->batch,
                   "survivors stopped at different cursors; a partial "
                   "restart would be incoherent (rank "
                       << r << " at step " << view.step << " batch "
                       << view.batch << ", witness at step " << witness->step
                       << " batch " << witness->batch << ")");
    stash_[idx] = view.stash();
  }
  AACC_CHECK_MSG(witness != nullptr, "all ranks failed; nothing to recover on");
  step_ = witness->step;
  batch_ = witness->batch;
  vertices_added_ = witness->vertices_added;
  owner_.assign(witness->owner.begin(), witness->owner.end());
}

// Checkpoint rollback: every rank replays (bit-identically) from the newest
// snapshot all ranks hold, or from scratch before any.
std::size_t Supervisor::rollback(const EventSchedule& schedule) {
  if (periodic_ == nullptr) {
    throw RecoveryError(
        "rollback requires periodic snapshots (checkpoint_every > 0)");
  }
  rollback_ = periodic_->latest_consistent();
  if (rollback_) {
    rollback_->next_batch = batches_through(schedule, rollback_->step);
  }
  mode_ = rollback_ || resume_ != nullptr ? Mode::kResume : Mode::kFresh;
  // The whole-world replay resurrects every seat.
  std::fill(dead_.begin(), dead_.end(), false);
  newly_dead_.clear();
  degraded_ = false;
  return mode_ == Mode::kResume ? (rollback_ ? *rollback_ : *resume_).step : 0;
}

// Degraded fallback: the root ranks' rows are lost; survivors carry on and
// the result reports the exact coverage gap.
std::size_t Supervisor::degrade(
    const std::vector<Rank>& roots,
    std::span<const std::optional<RankView>> ranks) {
  if (cfg_.add_mode == EdgeAddMode::kEager ||
      cfg_.assign == AssignStrategy::kRepartition ||
      cfg_.rebalance_threshold != 0.0) {
    throw RecoveryError(
        "degraded fallback requires seeded adds and a fixed partition "
        "(enable checkpoint_every for full recovery)");
  }
  stash_survivors(ranks);
  newly_dead_ = roots;
  mode_ = Mode::kDegraded;
  degraded_ = true;
  return step_;
}

void Supervisor::resolve_probe() {
  if (!probe_pending_) return;
  probe_pending_ = false;
  const std::int64_t mark = recovery_mark_.load(std::memory_order_relaxed);
  if (mark >= death_ns_) {
    log_.back().mttr_seconds = static_cast<double>(mark - death_ns_) / 1e9;
  }
}

}  // namespace aacc
