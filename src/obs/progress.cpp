#include "obs/progress.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

// Header-only catalog data: the codec walks it without linking core.
#include "core/metric_catalog.hpp"

namespace aacc::obs {

std::string to_ndjson(const ProgressEvent& ev) {
  std::ostringstream os;
  JsonObject o{os};
  o.key("v") << kProgressSchemaVersion;
  o.key("phase") << '"' << ev.phase << '"';
  o.key("step") << ev.step;
  o.key("ranks") << ev.ranks;
  for (const metrics::Metric& m : metrics::kCatalog) {
    if (m.gate == nullptr || ev.*m.gate) metrics::write_view(o, m.event, ev);
  }
  if (!ev.top.empty()) {
    o.key("top") << '[';
    for (std::size_t i = 0; i < ev.top.size(); ++i) {
      os << (i == 0 ? "" : ",") << ev.top[i];
    }
    os << ']';
  }
  if (!ev.detail.empty()) o.key("detail") << '"' << ev.detail << '"';
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
  if (after == c.p || after > c.end || !std::isfinite(out)) return false;
  c.p = after;
  return true;
}

// A JSON number that is integral and fits T, so the cast is defined.
template <class T>
bool parse_json_number(Cursor& c, T& out) {
  double d = 0;
  if (!parse_json_number(c, d) || d != std::trunc(d)) return false;
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (d < (std::is_signed_v<T> ? -hi : 0.0) || d >= hi) return false;
  out = static_cast<T>(d);
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
    VertexId v = 0;
    if (!parse_json_number(c, v)) return false;
    out.push_back(v);
    if (c.eat(']')) return true;
    if (!c.eat(',')) return false;
  }
}

// The catalog metric and event field (member or partner) a key names;
// nulls when the catalog has no such key.
std::pair<const metrics::Metric*, const metrics::Member<ProgressEvent>*>
find_event_field(const std::string& key) {
  for (const metrics::Metric& m : metrics::kCatalog) {
    const metrics::View<ProgressEvent>& v = m.event;
    if (v.key != nullptr && key == v.key) return {&m, &v.member};
    if (v.partner_key != nullptr && key == v.partner_key) {
      return {&m, &v.partner};
    }
  }
  return {nullptr, nullptr};
}

}  // namespace

bool parse_progress_event(const std::string& line, ProgressEvent& out) {
  Cursor c{line.data(), line.data() + line.size()};
  if (!c.eat('{')) return false;
  out = ProgressEvent{};
  bool saw_version = false;
  if (!c.eat('}')) {
    for (;;) {
      std::string key;
      if (!parse_json_string(c, key) || !c.eat(':')) return false;
      const auto [metric, field] = find_event_field(key);
      if (key == "v") {
        int version = 0;
        if (!parse_json_number(c, version) || version < 1 ||
            version > kProgressSchemaVersion) {
          return false;
        }
        saw_version = true;
      } else if (key == "phase") {
        if (!parse_json_string(c, out.phase)) return false;
      } else if (key == "detail") {
        if (!parse_json_string(c, out.detail)) return false;
      } else if (key == "step") {
        if (!parse_json_number(c, out.step)) return false;
      } else if (key == "ranks") {
        if (!parse_json_number(c, out.ranks) || out.ranks < 0) return false;
      } else if (key == "top") {
        if (!parse_vertex_array(c, out.top)) return false;
      } else if (field != nullptr) {
        bool ok = false;
        metrics::each(*field, [&](auto p) { ok = parse_json_number(c, out.*p); });
        if (!ok) return false;
        if (metric->gate != nullptr) out.*metric->gate = true;
      } else if (!skip_json_value(c)) {
        return false;
      }
      if (c.eat('}')) break;
      if (!c.eat(',')) return false;
    }
  }
  c.ws();
  if (c.p != c.end) return false;  // trailing garbage
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
