#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <ostream>

#include "obs/json.hpp"

namespace aacc::obs {
namespace {

std::uint64_t wall_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

void TraceTrack::push(const char* name, const char* arg_name,
                      std::uint64_t arg, EventKind kind) {
  if (used_ == ring_.size()) {
    ++dropped_;
    return;
  }
  TraceEvent& ev = ring_[used_++];
  ev.name = name;
  ev.arg_name = arg_name;
  // Logical ticks are scaled so they export as whole microseconds, which
  // keeps golden trace files readable.
  ev.ts_ns = logical_clock_ ? ++tick_ * 1000 : wall_now_ns() - epoch_ns_;
  ev.arg = arg;
  ev.kind = kind;
}

Tracer::Tracer(Rank num_ranks, std::size_t subtracks, const TraceConfig& cfg)
    : num_ranks_(num_ranks), subtracks_(subtracks) {
  AACC_CHECK(num_ranks >= 1);
  AACC_CHECK(cfg.track_capacity > 0);
  const std::uint64_t epoch = cfg.logical_clock ? 0 : wall_now_ns();
  // Shard subtracks carry a handful of spans per RC step, not per-message
  // instants, so they get a fraction of the main-track ring — this keeps a
  // 16-rank × 8-shard tracer in the tens of megabytes.
  const std::size_t sub_capacity =
      std::max<std::size_t>(cfg.track_capacity / 16, 64);
  tracks_.reserve(static_cast<std::size_t>(num_ranks) * (1 + subtracks) + 1);
  for (Rank r = 0; r < num_ranks; ++r) {
    tracks_.emplace_back(
        new TraceTrack(cfg.track_capacity, cfg.logical_clock, epoch));
    for (std::size_t s = 0; s < subtracks; ++s) {
      tracks_.emplace_back(
          new TraceTrack(sub_capacity, cfg.logical_clock, epoch));
    }
  }
  tracks_.emplace_back(
      new TraceTrack(cfg.track_capacity, cfg.logical_clock, epoch));
}

Trace Tracer::merge() const {
  Trace out;
  std::size_t n = 0;
  for (const auto& t : tracks_) n += t->used_;
  out.events.reserve(n);
  // Tracks are stored rank-major with the driver last; per-track streams
  // are chronological, so appending in track order yields the documented
  // (pid, tid, ts) ordering without a sort.
  for (Rank r = 0; r < num_ranks_; ++r) {
    for (std::size_t s = 0; s <= subtracks_; ++s) {
      const TraceTrack& t =
          *tracks_[static_cast<std::size_t>(r) * (1 + subtracks_) + s];
      out.dropped += t.dropped_;
      for (std::size_t i = 0; i < t.used_; ++i) {
        out.events.push_back({r, static_cast<std::int32_t>(s), t.ring_[i]});
      }
    }
  }
  const TraceTrack& drv = *tracks_.back();
  out.dropped += drv.dropped_;
  for (std::size_t i = 0; i < drv.used_; ++i) {
    out.events.push_back({kDriverPid, 0, drv.ring_[i]});
  }
  return out;
}

namespace {

void write_ts(std::ostream& os, std::uint64_t ts_ns) {
  // Chrome trace-event timestamps are microseconds; keep nanosecond
  // resolution with a fixed three-decimal format so output is stable.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ts_ns / 1000,
                static_cast<unsigned>(ts_ns % 1000));
  os << buf;
}

void write_track_ids(std::ostream& os, std::int32_t pid, std::int32_t tid) {
  os << "\"pid\":" << pid << ",\"tid\":" << tid;
}

void write_meta(std::ostream& os, const char* what, std::int32_t pid,
                std::int32_t tid, const std::string& name, bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << "{\"name\":\"" << what << "\",\"ph\":\"M\",";
  write_track_ids(os, pid, tid);
  os << ",\"ts\":0,\"args\":{\"name\":";
  write_json_string(os, name.c_str());
  os << "}}";
}

std::string pid_name(std::int32_t pid) {
  return pid == kDriverPid ? "driver" : "rank " + std::to_string(pid);
}

std::string tid_name(std::int32_t pid, std::int32_t tid) {
  if (pid == kDriverPid) return "driver";
  return tid == 0 ? "main" : "shard " + std::to_string(tid - 1);
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Trace& trace) {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  // Metadata first: process/thread names for every track that recorded
  // anything, in the merged (already sorted) track order.
  std::int32_t cur_pid = -1, cur_tid = -1;
  bool have_cur = false;
  for (const Trace::Entry& e : trace.events) {
    if (have_cur && e.pid == cur_pid && e.tid == cur_tid) continue;
    if (!have_cur || e.pid != cur_pid) {
      write_meta(os, "process_name", e.pid, 0, pid_name(e.pid), first);
    }
    write_meta(os, "thread_name", e.pid, e.tid, tid_name(e.pid, e.tid),
               first);
    cur_pid = e.pid;
    cur_tid = e.tid;
    have_cur = true;
  }
  // Events, one per line, stable field order. A per-track span stack
  // balances B/E pairs: spans left open (rank crashed, ring overflowed)
  // are closed at the track's final timestamp so viewers never see a
  // dangling span swallow the rest of the timeline.
  struct Open {
    const char* name;
  };
  std::vector<Open> stack;
  std::uint64_t track_last_ts = 0;
  auto close_open_spans = [&]() {
    while (!stack.empty()) {
      if (!first) os << ",\n";
      first = false;
      os << "{\"name\":";
      write_json_string(os, stack.back().name);
      os << ",\"ph\":\"E\",";
      write_track_ids(os, cur_pid, cur_tid);
      os << ",\"ts\":";
      write_ts(os, track_last_ts);
      os << "}";
      stack.pop_back();
    }
  };
  cur_pid = -1;
  cur_tid = -1;
  have_cur = false;
  for (const Trace::Entry& e : trace.events) {
    if (have_cur && (e.pid != cur_pid || e.tid != cur_tid)) {
      close_open_spans();
    }
    if (!have_cur || e.pid != cur_pid || e.tid != cur_tid) {
      cur_pid = e.pid;
      cur_tid = e.tid;
      have_cur = true;
    }
    track_last_ts = e.ev.ts_ns;
    switch (e.ev.kind) {
      case EventKind::kBegin:
        stack.push_back({e.ev.name});
        break;
      case EventKind::kEnd:
        if (!stack.empty()) stack.pop_back();
        break;
      case EventKind::kInstant:
        break;
    }
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":";
    write_json_string(os, e.ev.name);
    os << ",\"ph\":\""
       << (e.ev.kind == EventKind::kBegin
               ? 'B'
               : e.ev.kind == EventKind::kEnd ? 'E' : 'i')
       << "\",";
    write_track_ids(os, e.pid, e.tid);
    os << ",\"ts\":";
    write_ts(os, e.ev.ts_ns);
    if (e.ev.kind == EventKind::kInstant) os << ",\"s\":\"t\"";
    if (e.ev.arg_name != nullptr) {
      os << ",\"args\":{";
      write_json_string(os, e.ev.arg_name);
      os << ":" << e.ev.arg << "}";
    }
    os << "}";
  }
  close_open_spans();
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
     << trace.dropped << "}}\n";
}

bool write_chrome_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  write_chrome_trace(os, trace);
  return static_cast<bool>(os);
}

}  // namespace aacc::obs
