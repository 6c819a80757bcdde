// JSON output helpers shared by the machine-readable writers: RunStats, the
// progress feed, the metrics registry and Chrome traces.
#pragma once

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string_view>

namespace aacc::obs {

/// Integers as-is; doubles with %.17g, which round-trips.
inline void write_json_number(std::ostream& os, std::uint64_t v) { os << v; }
inline void write_json_number(std::ostream& os, std::int64_t v) { os << v; }
inline void write_json_number(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

/// A quoted string: quotes and backslashes escaped, control characters
/// written as \u00XX.
inline void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

/// The fields of one object: the first key opens it, later keys are
/// comma-separated. The caller closes it.
struct JsonObject {
  std::ostream& os;
  char sep = '{';
  std::ostream& key(const char* k) {
    os << sep << '"' << k << "\":";
    sep = ',';
    return os;
  }
};

}  // namespace aacc::obs
