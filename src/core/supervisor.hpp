// Recovery supervisor (docs/FAULTS.md): between supervised attempts it
// classifies a failed attempt, walks EngineConfig::recovery_policy, plans
// every seat's start for the next attempt and probes the MTTR. It reads
// engines through RankView, so tests can pass fakes; the driver does I/O.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <span>

#include "core/engine.hpp"
#include "core/rank_engine.hpp"

namespace aacc {

class Supervisor {
 public:
  /// One rank's engine as the failed attempt left it: cursors, owner map
  /// and a callback serializing its resumable state. of() borrows the
  /// engine, so a view lives no longer than one recover() call.
  struct RankView {
    std::size_t step = 0;
    std::size_t batch = 0;
    std::uint64_t vertices_added = 0;
    std::span<const Rank> owner;
    std::function<std::vector<std::byte>()> stash;

    static RankView of(const RankEngine& engine);
  };

  /// The rung that served a recovery and the RC step the next attempt
  /// restarts from (the progress feed's `step`).
  struct Outcome {
    RecoveryPolicy rung = RecoveryPolicy::kRollback;
    std::size_t step = 0;
  };

  /// `fresh` starts a from-scratch attempt (ghosts share its edges);
  /// `resume` is a resumed run's checkpoint and `periodic` the snapshot
  /// store when checkpoint_every > 0, else null. All must outlive this.
  Supervisor(const EngineConfig& cfg, RankEngine::Fresh fresh,
             const Checkpoint* resume, PeriodicCheckpoints* periodic);

  /// Fills rank init.me's start variant, restart cursors, periodic store
  /// and MTTR probe. Read-only: safe from every rank thread at once.
  void prepare(RankEngine::Init& init) const;

  /// Handles a failed attempt (`ranks`: one view per seat, empty where no
  /// engine was built). The first rung with budget left whose
  /// preconditions hold serves it. Rethrows non-transport errors, the root
  /// cause when there is no root or max_recoveries is spent, and the last
  /// RecoveryError (else the root cause) when the ladder is exhausted.
  Outcome recover(const rt::World::RunReport& report,
                  std::span<const Rank> declared_dead,
                  std::span<const std::optional<RankView>> ranks,
                  const EventSchedule& schedule);

  /// Resolves the last recovery's MTTR probe once the run has completed.
  void finish() { resolve_probe(); }

  [[nodiscard]] const std::vector<RecoveryRecord>& log() const { return log_; }
  /// Survivors run without a dead rank's rows (until a rollback).
  [[nodiscard]] bool degraded() const { return degraded_; }
  /// The seat is held by a ghost.
  [[nodiscard]] bool dead(Rank r) const {
    return dead_[static_cast<std::size_t>(r)];
  }

 private:
  enum class Mode { kFresh, kResume, kDegraded };

  // Rung planners: each throws RecoveryError before changing any state,
  // else plans the next attempt and returns its restart step.
  std::size_t rollback(const EventSchedule& schedule);
  std::size_t degrade(const std::vector<Rank>& roots,
                      std::span<const std::optional<RankView>> ranks);
  /// Stashes every survivor (their cursors must agree) and takes the
  /// restart cursors and owner map from the first.
  void stash_survivors(std::span<const std::optional<RankView>> ranks);
  void resolve_probe();

  const EngineConfig& cfg_;
  const RankEngine::Fresh fresh_;
  const Checkpoint* const resume_;
  PeriodicCheckpoints* const periodic_;

  Mode mode_;
  std::optional<Checkpoint> rollback_;  // the kResume point after a rollback
  std::vector<bool> dead_;
  std::vector<Rank> newly_dead_;  // portal-poison targets of a degraded start
  std::vector<std::vector<std::byte>> stash_;
  bool degraded_ = false;
  std::size_t step_ = 0;  // survivors' restart cursors and owner map
  std::size_t batch_ = 0;
  std::uint64_t vertices_added_ = 0;
  std::vector<Rank> owner_;
  std::vector<std::size_t> rung_used_;
  std::vector<RecoveryRecord> log_;

  // MTTR probe (docs/FAULTS.md §Recovery timing): the next attempt's ranks
  // fetch-max steady-now into recovery_mark_ at their first completed step
  // >= mark_step_; log_.back() resolves against death_ns_.
  mutable std::atomic<std::int64_t> recovery_mark_{-1};
  bool probe_pending_ = false;
  std::size_t mark_step_ = 0;
  std::int64_t death_ns_ = 0;
};

}  // namespace aacc
