#include "obs/progress.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace aacc::obs {

namespace {

// Round-trippable double formatting, matching RunStats::to_json.
void jdouble(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

std::string to_ndjson(const ProgressEvent& ev) {
  std::ostringstream os;
  os << "{\"v\":" << kProgressSchemaVersion << ",\"phase\":\"" << ev.phase
     << "\",\"step\":" << ev.step << ",\"ranks\":" << ev.ranks
     << ",\"dirty\":" << ev.dirty << ",\"dirty_fraction\":";
  jdouble(os, ev.dirty_fraction);
  os << ",\"settled\":" << ev.settled << ",\"columns\":" << ev.columns
     << ",\"relaxations\":" << ev.relaxations << ",\"poisons\":" << ev.poisons
     << ",\"repairs\":" << ev.repairs << ",\"queue_sum\":" << ev.queue_sum
     << ",\"queue_max\":" << ev.queue_max << ",\"bytes\":" << ev.bytes
     << ",\"retransmits\":" << ev.retransmits
     << ",\"exchange_wait_seconds\":";
  jdouble(os, ev.exchange_wait_seconds);
  os << ",\"blocked_on_rank\":" << ev.blocked_on_rank
     << ",\"blocked_on_seconds\":";
  jdouble(os, ev.blocked_on_seconds);
  os << ",\"recoveries\":" << ev.recoveries
     << ",\"dv_resident_bytes\":" << ev.dv_resident_bytes
     << ",\"dv_cold_bytes\":" << ev.dv_cold_bytes
     << ",\"dv_promotions\":" << ev.dv_promotions
     << ",\"dv_demotions\":" << ev.dv_demotions;
  if (ev.has_serve) {
    os << ",\"serve_queries\":" << ev.serve_queries
       << ",\"snapshot_age_steps\":" << ev.snapshot_age_steps;
  }
  if (ev.has_estimators) {
    os << ",\"topk_overlap\":";
    jdouble(os, ev.topk_overlap);
    os << ",\"kendall_tau\":";
    jdouble(os, ev.kendall_tau);
  }
  if (!ev.top.empty()) {
    os << ",\"top\":[";
    for (std::size_t i = 0; i < ev.top.size(); ++i) {
      if (i != 0) os << ',';
      os << ev.top[i];
    }
    os << ']';
  }
  if (!ev.detail.empty()) os << ",\"detail\":\"" << ev.detail << '"';
  os << '}';
  return os.str();
}

// ------------------------------------------------- minimal NDJSON parsing
// Enough JSON for the flat schema to_ndjson emits (plus unknown-field
// skipping so older readers tolerate newer events): strings without exotic
// escapes, numbers, bools, null, and nested arrays/objects.

namespace {

struct Cursor {
  const char* p;
  const char* end;

  void ws() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p)) != 0) ++p;
  }
  bool eat(char c) {
    ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  [[nodiscard]] bool peek(char c) {
    ws();
    return p < end && *p == c;
  }
};

bool parse_json_string(Cursor& c, std::string& out) {
  if (!c.eat('"')) return false;
  out.clear();
  while (c.p < c.end && *c.p != '"') {
    if (*c.p == '\\') {
      ++c.p;
      if (c.p >= c.end) return false;
      switch (*c.p) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        default: return false;  // \uXXXX etc. never emitted by to_ndjson
      }
      ++c.p;
    } else {
      out.push_back(*c.p++);
    }
  }
  return c.eat('"');
}

bool parse_json_number(Cursor& c, double& out) {
  c.ws();
  char* after = nullptr;
  out = std::strtod(c.p, &after);
  if (after == c.p || after > c.end) return false;
  c.p = after;
  return true;
}

// Skips any JSON value (forward-compatibility for unknown fields).
bool skip_json_value(Cursor& c) {
  c.ws();
  if (c.p >= c.end) return false;
  if (*c.p == '"') {
    std::string tmp;
    return parse_json_string(c, tmp);
  }
  if (*c.p == '{' || *c.p == '[') {
    const char open = *c.p;
    const char close = open == '{' ? '}' : ']';
    ++c.p;
    if (c.eat(close)) return true;
    for (;;) {
      if (open == '{') {
        std::string key;
        if (!parse_json_string(c, key) || !c.eat(':')) return false;
      }
      if (!skip_json_value(c)) return false;
      if (c.eat(close)) return true;
      if (!c.eat(',')) return false;
    }
  }
  if (std::strncmp(c.p, "true", 4) == 0) return c.p += 4, true;
  if (std::strncmp(c.p, "false", 5) == 0) return c.p += 5, true;
  if (std::strncmp(c.p, "null", 4) == 0) return c.p += 4, true;
  double d = 0;
  return parse_json_number(c, d);
}

bool parse_vertex_array(Cursor& c, std::vector<VertexId>& out) {
  if (!c.eat('[')) return false;
  out.clear();
  if (c.eat(']')) return true;
  for (;;) {
    double d = 0;
    if (!parse_json_number(c, d) || d < 0) return false;
    out.push_back(static_cast<VertexId>(d));
    if (c.eat(']')) return true;
    if (!c.eat(',')) return false;
  }
}

}  // namespace

bool parse_progress_event(const std::string& line, ProgressEvent& out) {
  Cursor c{line.data(), line.data() + line.size()};
  if (!c.eat('{')) return false;
  out = ProgressEvent{};
  bool saw_version = false;
  bool saw_overlap = false;
  bool saw_tau = false;
  if (!c.eat('}')) {
    for (;;) {
      std::string key;
      if (!parse_json_string(c, key) || !c.eat(':')) return false;
      double num = 0;
      const auto u64 = [&](std::uint64_t& field) {
        if (!parse_json_number(c, num) || num < 0) return false;
        field = static_cast<std::uint64_t>(num);
        return true;
      };
      if (key == "v") {
        if (!parse_json_number(c, num)) return false;
        if (static_cast<int>(num) > kProgressSchemaVersion) return false;
        saw_version = true;
      } else if (key == "phase") {
        if (!parse_json_string(c, out.phase)) return false;
      } else if (key == "detail") {
        if (!parse_json_string(c, out.detail)) return false;
      } else if (key == "step") {
        if (!parse_json_number(c, num) || num < 0) return false;
        out.step = static_cast<std::size_t>(num);
      } else if (key == "ranks") {
        if (!parse_json_number(c, num)) return false;
        out.ranks = static_cast<Rank>(num);
      } else if (key == "recoveries") {
        if (!parse_json_number(c, num) || num < 0) return false;
        out.recoveries = static_cast<std::size_t>(num);
      } else if (key == "dirty") {
        if (!u64(out.dirty)) return false;
      } else if (key == "dirty_fraction") {
        if (!parse_json_number(c, out.dirty_fraction)) return false;
      } else if (key == "settled") {
        if (!u64(out.settled)) return false;
      } else if (key == "columns") {
        if (!u64(out.columns)) return false;
      } else if (key == "relaxations") {
        if (!u64(out.relaxations)) return false;
      } else if (key == "poisons") {
        if (!u64(out.poisons)) return false;
      } else if (key == "repairs") {
        if (!u64(out.repairs)) return false;
      } else if (key == "queue_sum") {
        if (!u64(out.queue_sum)) return false;
      } else if (key == "queue_max") {
        if (!u64(out.queue_max)) return false;
      } else if (key == "bytes") {
        if (!u64(out.bytes)) return false;
      } else if (key == "retransmits") {
        if (!u64(out.retransmits)) return false;
      } else if (key == "exchange_wait_seconds") {
        if (!parse_json_number(c, out.exchange_wait_seconds)) return false;
      } else if (key == "blocked_on_rank") {
        double v = 0;  // signed (-1 = no exchange blocked)
        if (!parse_json_number(c, v)) return false;
        out.blocked_on_rank = static_cast<std::int64_t>(v);
      } else if (key == "blocked_on_seconds") {
        if (!parse_json_number(c, out.blocked_on_seconds)) return false;
      } else if (key == "dv_resident_bytes") {
        if (!u64(out.dv_resident_bytes)) return false;
      } else if (key == "dv_cold_bytes") {
        if (!u64(out.dv_cold_bytes)) return false;
      } else if (key == "dv_promotions") {
        if (!u64(out.dv_promotions)) return false;
      } else if (key == "dv_demotions") {
        if (!u64(out.dv_demotions)) return false;
      } else if (key == "serve_queries") {
        if (!u64(out.serve_queries)) return false;
        out.has_serve = true;
      } else if (key == "snapshot_age_steps") {
        if (!u64(out.snapshot_age_steps)) return false;
        out.has_serve = true;
      } else if (key == "topk_overlap") {
        if (!parse_json_number(c, out.topk_overlap)) return false;
        saw_overlap = true;
      } else if (key == "kendall_tau") {
        if (!parse_json_number(c, out.kendall_tau)) return false;
        saw_tau = true;
      } else if (key == "top") {
        if (!parse_vertex_array(c, out.top)) return false;
      } else {
        if (!skip_json_value(c)) return false;
      }
      if (c.eat('}')) break;
      if (!c.eat(',')) return false;
    }
  }
  c.ws();
  if (c.p != c.end) return false;  // trailing garbage
  out.has_estimators = saw_overlap && saw_tau;
  return saw_version && !out.phase.empty();
}

// ------------------------------------------------------------------ sinks

NdjsonFileSink::NdjsonFileSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {}

NdjsonFileSink::~NdjsonFileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void NdjsonFileSink::on_event(const ProgressEvent& ev) {
  if (file_ == nullptr) return;
  const std::string line = to_ndjson(ev);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);  // live tailing and crash post-mortems see every line
}

ProgressEmitter::ProgressEmitter(const ProgressConfig& cfg)
    : top_k_(cfg.top_k) {
  if (!cfg.path.empty()) {
    file_sink_ = std::make_shared<NdjsonFileSink>(cfg.path);
    sinks_.push_back(file_sink_);
  }
  if (cfg.callback) sinks_.push_back(std::make_shared<CallbackSink>(cfg.callback));
  if (cfg.sink) sinks_.push_back(cfg.sink);
}

void ProgressEmitter::emit(const ProgressEvent& ev) {
  for (const auto& sink : sinks_) sink->on_event(ev);
}

bool ProgressEmitter::file_ok() const {
  return file_sink_ == nullptr || file_sink_->ok();
}

}  // namespace aacc::obs
