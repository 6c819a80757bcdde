// Span tracer: per-track single-writer ring buffers of begin/end/instant
// events, merged after a run into a Chrome trace-event JSON that loads in
// chrome://tracing and Perfetto.
//
// Design constraints (docs/OBSERVABILITY.md):
//   * Near-zero cost when tracing is off: every call site holds a
//     TraceTrack* that is null when disabled, and the inline helpers below
//     compile down to one predictable branch.
//   * No locks on the hot path: a TraceTrack is owned by exactly one thread
//     at a time (rank threads own their rank track; IA workers own their
//     shard subtrack; ownership hand-offs are synchronized by the
//     worker-pool joins that already order the algorithm itself). Buffers
//     are only read after World::run has joined every rank thread.
//   * Bounded memory: each track is a ring of `track_capacity` events.
//     When full, new events are dropped (and counted) rather than
//     overwriting older ones — dropping the oldest would orphan END events
//     and corrupt the span tree; dropping the newest merely truncates the
//     tail, and the exporter closes any spans left open.
//   * Deterministic output for tests: with TraceConfig::logical_clock each
//     track stamps events with its own monotone tick counter instead of the
//     wall clock, so a deterministic run produces a byte-identical trace.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace aacc::obs {

/// Event kinds, mirroring the Chrome trace-event phases we emit
/// ("B"/"E"/"i").
enum class EventKind : std::uint8_t { kBegin, kEnd, kInstant };

/// One recorded event. `name` and `arg_name` must be string literals (or
/// otherwise outlive the tracer): the hot path stores pointers, never
/// copies.
struct TraceEvent {
  const char* name = nullptr;
  const char* arg_name = nullptr;  ///< optional integer argument label
  std::uint64_t ts_ns = 0;         ///< wall ns since tracer epoch, or tick
  std::uint64_t arg = 0;
  EventKind kind = EventKind::kInstant;
};

struct TraceConfig {
  /// Master switch. Off = the engine never constructs a Tracer and every
  /// instrumentation site sees a null track.
  bool enabled = false;
  /// When non-empty, AnytimeEngine::run writes the merged Chrome trace
  /// JSON here after the run (the merged trace is also always available in
  /// RunResult::trace while enabled).
  std::string path;
  /// Deterministic per-track tick timestamps instead of the wall clock
  /// (golden-file tests; see header comment).
  bool logical_clock = false;
  /// Ring capacity per main track, in events (shard subtracks get 1/16 of
  /// this, min 64). Overflowing events are dropped and counted
  /// (TraceTrack::dropped).
  std::size_t track_capacity = 1 << 16;
};

class Tracer;

/// Single-writer event ring. Obtain from a Tracer; never share between
/// concurrently running threads.
class TraceTrack {
 public:
  void begin(const char* name) { push(name, nullptr, 0, EventKind::kBegin); }
  void begin(const char* name, const char* arg_name, std::uint64_t arg) {
    push(name, arg_name, arg, EventKind::kBegin);
  }
  void end(const char* name) { push(name, nullptr, 0, EventKind::kEnd); }
  void instant(const char* name) { push(name, nullptr, 0, EventKind::kInstant); }
  void instant(const char* name, const char* arg_name, std::uint64_t arg) {
    push(name, arg_name, arg, EventKind::kInstant);
  }

  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t size() const { return used_; }
  /// True when this track stamps deterministic tick timestamps. Callers
  /// with inherently wall-clock-derived args (e.g. measured wait times)
  /// must skip them on logical-clock tracks to keep golden traces stable.
  [[nodiscard]] bool logical_clock() const { return logical_clock_; }

 private:
  friend class Tracer;
  TraceTrack(std::size_t capacity, bool logical_clock,
             std::uint64_t epoch_ns)
      : logical_clock_(logical_clock), epoch_ns_(epoch_ns) {
    ring_.resize(capacity);
  }

  void push(const char* name, const char* arg_name, std::uint64_t arg,
            EventKind kind);

  std::vector<TraceEvent> ring_;
  std::size_t used_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t tick_ = 0;
  bool logical_clock_ = false;
  std::uint64_t epoch_ns_ = 0;
};

/// A merged, export-ready trace: every surviving event tagged with its
/// (pid, tid) track coordinates, sorted by (pid, tid, ts) so the output is
/// deterministic whenever the per-track streams are.
struct Trace {
  struct Entry {
    std::int32_t pid = 0;  ///< rank (kDriverPid for the driver track)
    std::int32_t tid = 0;  ///< 0 = rank main track, 1+s = shard subtrack s
    TraceEvent ev;
  };
  std::vector<Entry> events;
  std::uint64_t dropped = 0;  ///< Σ ring overflow across all tracks

  [[nodiscard]] bool empty() const { return events.empty(); }
};

/// The driver track's pid in merged traces (sorts after every rank).
inline constexpr std::int32_t kDriverPid = std::numeric_limits<std::int32_t>::max();

/// Owns one main track per rank, `subtracks` shard subtracks per rank, and
/// one driver track. Construction allocates every ring up front so the hot
/// path never allocates.
class Tracer {
 public:
  Tracer(Rank num_ranks, std::size_t subtracks, const TraceConfig& cfg);

  [[nodiscard]] TraceTrack& track(Rank r) {
    AACC_CHECK(r >= 0 && r < num_ranks_);
    return *tracks_[static_cast<std::size_t>(r) * (1 + subtracks_)];
  }
  /// Shard subtrack `s` of rank `r` (IA workers). Worker 0
  /// is the rank thread itself but still records on its subtrack so shard
  /// timelines are comparable across workers.
  [[nodiscard]] TraceTrack& subtrack(Rank r, std::size_t s) {
    AACC_CHECK(r >= 0 && r < num_ranks_ && s < subtracks_);
    return *tracks_[static_cast<std::size_t>(r) * (1 + subtracks_) + 1 + s];
  }
  [[nodiscard]] TraceTrack& driver() { return *tracks_.back(); }

  [[nodiscard]] Rank num_ranks() const { return num_ranks_; }
  [[nodiscard]] std::size_t subtracks() const { return subtracks_; }

  /// Merges every track into one sorted, export-ready Trace. Call only
  /// after all writer threads have been joined.
  [[nodiscard]] Trace merge() const;

 private:
  Rank num_ranks_;
  std::size_t subtracks_;
  std::vector<std::unique_ptr<TraceTrack>> tracks_;
};

/// Serializes a merged trace as Chrome trace-event JSON (one line per
/// event, stable field order, process/thread metadata first; spans left
/// open by a crashed rank are closed at the track's last timestamp).
/// Loadable by chrome://tracing and https://ui.perfetto.dev.
void write_chrome_trace(std::ostream& os, const Trace& trace);

/// Convenience: write_chrome_trace to a file. Returns false (and leaves no
/// partial file behind) when the path cannot be opened.
bool write_chrome_trace_file(const std::string& path, const Trace& trace);

/// Null-safe RAII span: begins on construction, ends on destruction (also
/// on exception unwind, which keeps begin/end balanced through crash
/// paths). No-op when the track is null.
class ScopedSpan {
 public:
  ScopedSpan(TraceTrack* t, const char* name) : t_(t), name_(name) {
    if (t_ != nullptr) t_->begin(name_);
  }
  ScopedSpan(TraceTrack* t, const char* name, const char* arg_name,
             std::uint64_t arg)
      : t_(t), name_(name) {
    if (t_ != nullptr) t_->begin(name_, arg_name, arg);
  }
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(name_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceTrack* t_;
  const char* name_;
};

}  // namespace aacc::obs
