#include "core/config.hpp"

#include <sstream>
#include <string>

namespace aacc {

namespace {

[[noreturn]] void fail(const std::string& what) { throw ConfigError(what); }

}  // namespace

void EngineConfig::validate() const {
  // Thread/rank/count caps exist to catch sign bugs: a negative count cast
  // into an unsigned field shows up as an absurdly large value.
  constexpr std::size_t kMaxThreads = 4096;
  constexpr Rank kMaxRanks = 4096;
  const auto sign_cap = [&](std::size_t value, const std::string& field,
                            const char* zero) {
    if (value <= kMaxThreads) return;
    std::ostringstream os;
    os << "EngineConfig::" << field << " must be at most " << kMaxThreads
       << zero << ", got " << value
       << " — was a negative value cast to size_t?";
    fail(os.str());
  };
  if (num_ranks < 1 || num_ranks > kMaxRanks) {
    std::ostringstream os;
    os << "EngineConfig::num_ranks must be in [1, " << kMaxRanks << "], got "
       << num_ranks;
    fail(os.str());
  }
  sign_cap(ia_threads, "ia_threads", " (0 = auto)");
  sign_cap(checkpoint_every, "checkpoint_every", " (0 = off)");
  sign_cap(max_recoveries, "max_recoveries", "");
  for (std::size_t i = 0; i < recovery_policy.size(); ++i) {
    sign_cap(recovery_policy[i].budget,
             "recovery_policy[" + std::to_string(i) + "].budget",
             " (0 = unlimited)");
  }
  if (dv_budget_bytes != 0 && dv_budget_bytes < kMinDvBudgetBytes) {
    std::ostringstream os;
    os << "EngineConfig::dv_budget_bytes must be 0 (fully resident) or >= "
       << kMinDvBudgetBytes
       << " (a smaller budget cannot hold one hot DV row), got "
       << dv_budget_bytes;
    fail(os.str());
  }
  if (rebalance_threshold != 0.0 && rebalance_threshold < 1.0) {
    std::ostringstream os;
    os << "EngineConfig::rebalance_threshold must be 0 (off) or >= 1.0 "
          "(max/ideal load never drops below 1), got "
       << rebalance_threshold;
    fail(os.str());
  }
  if (transport.max_retries < 1) {
    fail("EngineConfig::transport.max_retries must be >= 1: with 0 the "
         "reliable sender would give up before its first attempt");
  }
  if (transport.recv_timeout.count() < 0) {
    std::ostringstream os;
    os << "EngineConfig::transport.recv_timeout must be >= 0 ms (0 disables "
          "the recv watchdog), got "
       << transport.recv_timeout.count() << " ms";
    fail(os.str());
  }
  if (transport.retry_backoff.count() < 0) {
    std::ostringstream os;
    os << "EngineConfig::transport.retry_backoff must be >= 0 us, got "
       << transport.retry_backoff.count() << " us";
    fail(os.str());
  }
  const double probs[] = {faults.drop, faults.duplicate, faults.delay,
                          faults.corrupt};
  const char* prob_names[] = {"drop", "duplicate", "delay", "corrupt"};
  double sum = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    if (probs[i] < 0.0 || probs[i] > 1.0) {
      std::ostringstream os;
      os << "EngineConfig::faults." << prob_names[i]
         << " must be a probability in [0, 1], got " << probs[i];
      fail(os.str());
    }
    sum += probs[i];
  }
  if (sum > 1.0) {
    std::ostringstream os;
    os << "EngineConfig::faults probabilities must sum to <= 1 (they are "
          "evaluated as disjoint per-frame fates), got "
       << sum;
    fail(os.str());
  }
  for (const rt::CrashPoint& c : faults.crashes) {
    if (c.rank < 0 || c.rank >= num_ranks) {
      std::ostringstream os;
      os << "EngineConfig::faults crash point targets rank " << c.rank
         << " outside [0, " << num_ranks << ")";
      fail(os.str());
    }
  }
  if (recovery_policy.empty()) {
    fail("EngineConfig::recovery_policy must contain at least one rung "
         "(the supervisor has no action to take on a rank death otherwise)");
  }
  for (std::size_t i = 0; i < recovery_policy.size(); ++i) {
    for (std::size_t j = i + 1; j < recovery_policy.size(); ++j) {
      if (recovery_policy[i].policy == recovery_policy[j].policy) {
        fail("EngineConfig::recovery_policy must not repeat a policy: a "
             "repeated rung would double-charge one policy's budget");
      }
    }
  }
  if (health.enabled) {
    if (health.straggler_after.count() <= 0 ||
        health.suspect_after < health.straggler_after ||
        health.dead_after < health.suspect_after) {
      std::ostringstream os;
      os << "EngineConfig::health deadlines must satisfy 0 < straggler_after "
            "<= suspect_after <= dead_after, got "
         << health.straggler_after.count() << " / "
         << health.suspect_after.count() << " / " << health.dead_after.count()
         << " ms";
      fail(os.str());
    }
    if (transport.recv_timeout.count() > 0 &&
        health.dead_after >= transport.recv_timeout) {
      std::ostringstream os;
      os << "EngineConfig::health.dead_after (" << health.dead_after.count()
         << " ms) must be below transport.recv_timeout ("
         << transport.recv_timeout.count()
         << " ms), or the recv watchdog always wins the race and no peer is "
            "ever declared dead";
      fail(os.str());
    }
  }
  if (trace.enabled && trace.track_capacity == 0) {
    fail("EngineConfig::trace.track_capacity must be > 0 when tracing is "
         "enabled");
  }
  if (progress.active() &&
      (progress.top_k < 1 || progress.top_k > kMaxThreads)) {
    std::ostringstream os;
    os << "EngineConfig::progress.top_k must be in [1, " << kMaxThreads
       << "] when the progress feed is active, got " << progress.top_k;
    fail(os.str());
  }
  if (publish_every < 1 || publish_every > kMaxThreads) {
    std::ostringstream os;
    os << "EngineConfig::publish_every must be in [1, " << kMaxThreads
       << "] (a live session must publish; was a negative value cast to "
          "size_t?), got "
       << publish_every;
    fail(os.str());
  }
  if (max_snapshot_lag != 0 && max_snapshot_lag < publish_every) {
    std::ostringstream os;
    os << "EngineConfig::max_snapshot_lag must be 0 (never flag) or >= "
          "publish_every ("
       << publish_every
       << "): a tighter bound flags every response between two snapshot "
          "publishes as stale, got "
       << max_snapshot_lag;
    fail(os.str());
  }
}

}  // namespace aacc
