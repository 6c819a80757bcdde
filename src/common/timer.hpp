// Wall-clock stopwatch used by phase accounting and the bench harness.
#pragma once

#include <chrono>
#include <cstdint>

namespace aacc {

/// Steady-clock nanoseconds: a timestamp every thread can compare.
inline std::int64_t steady_now_ns() {
  return std::chrono::steady_clock::now().time_since_epoch() /
         std::chrono::nanoseconds(1);
}

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace aacc
