// bench_diff — history-aware benchmark comparator (docs/EXPERIMENTS.md §M6,
// wired into CI by .github/workflows/ci.yml).
//
// Ingests two or more BENCH_*.json files (any JSON whose leaves are numbers
// or booleans), flattens every numeric leaf to a dotted path
// ("configs[2].drain_cpu_seconds"), and compares the newest file (the
// candidate) against the best of the older ones (the history). The gate is
// noise-aware, benchstat style: a metric only counts as a regression when
//   * its path contains one of the gate's words (timings, not counters),
//   * the relative delta vs the *best* historical sample exceeds
//     max(threshold, observed historical spread), and
//   * the absolute delta is above a tiny floor (sub-microsecond jitter on a
//     near-zero baseline is noise, not signal).
// Header-only so the unit test exercises the same code the CLI ships.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace aacc::tools {

/// Flattens every numeric/boolean leaf of `text` (a JSON document) into
/// `out` keyed by dotted path; arrays index as "[i]". Strings and nulls are
/// skipped — benchmarks compare numbers. Returns false (and sets *err when
/// given) on malformed JSON.
inline bool flatten_json(const std::string& text,
                         std::map<std::string, double>& out,
                         std::string* err = nullptr) {
  struct Cursor {
    const char* p;
    const char* end;
    void ws() {
      while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
    }
    bool eat(char c) {
      ws();
      if (p < end && *p == c) {
        ++p;
        return true;
      }
      return false;
    }
    char peek() {
      ws();
      return p < end ? *p : '\0';
    }
  };
  struct Impl {
    std::map<std::string, double>& out;
    std::string* err;
    bool fail(const char* what) {
      if (err != nullptr) *err = what;
      return false;
    }
    static bool parse_string(Cursor& c, std::string& s) {
      if (!c.eat('"')) return false;
      s.clear();
      while (c.p < c.end && *c.p != '"') {
        if (*c.p == '\\' && c.p + 1 < c.end) {
          ++c.p;
          switch (*c.p) {
            case 'n': s += '\n'; break;
            case 't': s += '\t'; break;
            case '"': s += '"'; break;
            case '\\': s += '\\'; break;
            case '/': s += '/'; break;
            default: s += *c.p; break;  // \uXXXX etc.: keep raw, paths only
          }
        } else {
          s += *c.p;
        }
        ++c.p;
      }
      if (c.p >= c.end) return false;
      ++c.p;  // closing quote
      return true;
    }
    bool value(Cursor& c, const std::string& path) {
      const char ch = c.peek();
      if (ch == '{') {
        c.eat('{');
        if (c.peek() == '}') return c.eat('}');
        while (true) {
          std::string key;
          if (!parse_string(c, key)) return fail("expected object key");
          if (!c.eat(':')) return fail("expected ':'");
          if (!value(c, path.empty() ? key : path + "." + key)) return false;
          if (c.eat(',')) continue;
          if (c.eat('}')) return true;
          return fail("expected ',' or '}'");
        }
      }
      if (ch == '[') {
        c.eat('[');
        if (c.peek() == ']') return c.eat(']');
        std::size_t i = 0;
        while (true) {
          if (!value(c, path + "[" + std::to_string(i) + "]")) return false;
          ++i;
          if (c.eat(',')) continue;
          if (c.eat(']')) return true;
          return fail("expected ',' or ']'");
        }
      }
      if (ch == '"') {
        std::string s;
        return parse_string(c, s) || fail("bad string");
      }
      if (ch == 't') {
        if (c.end - c.p >= 4 && std::string(c.p, 4) == "true") {
          c.p += 4;
          out[path] = 1.0;
          return true;
        }
        return fail("bad literal");
      }
      if (ch == 'f') {
        if (c.end - c.p >= 5 && std::string(c.p, 5) == "false") {
          c.p += 5;
          out[path] = 0.0;
          return true;
        }
        return fail("bad literal");
      }
      if (ch == 'n') {
        if (c.end - c.p >= 4 && std::string(c.p, 4) == "null") {
          c.p += 4;
          return true;  // skipped: null is not a metric
        }
        return fail("bad literal");
      }
      char* after = nullptr;
      const double v = std::strtod(c.p, &after);
      if (after == c.p || after > c.end) return fail("expected a value");
      c.p = after;
      out[path] = v;
      return true;
    }
  };
  Cursor c{text.data(), text.data() + text.size()};
  Impl impl{out, err};
  if (!impl.value(c, "")) return false;
  c.ws();
  if (c.p != c.end) {
    if (err != nullptr) *err = "trailing content after JSON document";
    return false;
  }
  return true;
}

struct DiffOptions {
  /// Minimum relative regression (percent) before a gated metric fails.
  double threshold_pct = 10.0;
  /// Only metrics whose dotted path contains, ignoring case, one of these
  /// '|'-separated words can fail the gate (gate_matches); everything else
  /// is report-only. Default matches the timing/makespan families across
  /// the BENCH_* files — deliberately NOT bare "modeled", which would also
  /// catch modeled_speedup, a higher-is-better metric the increase-only
  /// gate would misread.
  std::string gate = "seconds|makespan|wall|cpu";
};

struct MetricDelta {
  std::string path;
  double baseline = 0.0;   ///< best (min) historical sample
  double candidate = 0.0;
  double delta_pct = 0.0;  ///< (candidate - baseline) / baseline * 100
  double noise_pct = 0.0;  ///< historical spread (max-min)/min * 100
  bool gated = false;      ///< path matches the gate
  bool regression = false;
};

struct DiffReport {
  std::vector<MetricDelta> rows;  ///< paths present in candidate AND history
  std::size_t regressions = 0;
  std::size_t improvements = 0;  ///< gated metrics faster than baseline
};

/// True when `path` contains, ignoring case, one of the non-empty
/// '|'-separated words of `gate`. A word list, not a regex: every gate in
/// use is one, and <regex> draws GCC 12 -Wmaybe-uninitialized false
/// positives in sanitizer builds.
inline bool gate_matches(const std::string& gate, const std::string& path) {
  const auto lower = [](std::string s) {
    for (char& c : s) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return s;
  };
  const std::string words = lower(gate);
  const std::string text = lower(path);
  std::size_t begin = 0;
  for (;;) {
    const std::size_t bar = words.find('|', begin);
    const std::string word = words.substr(begin, bar - begin);
    if (!word.empty() && text.find(word) != std::string::npos) return true;
    if (bar == std::string::npos) return false;
    begin = bar + 1;
  }
}

/// Compares `candidate` against `history` (1+ older runs). Baseline per
/// metric is the *minimum* over history (fastest observed — benchstat's
/// stance that the best run is closest to the machine's true capability);
/// noise is the historical spread. A gated metric regresses when its delta
/// beats max(threshold, noise) and the absolute change is non-trivial.
inline DiffReport diff_bench(
    const std::vector<std::map<std::string, double>>& history,
    const std::map<std::string, double>& candidate,
    const DiffOptions& opts = {}) {
  // Sub-microsecond absolute changes are timer granularity, not signal.
  constexpr double kAbsFloor = 1e-6;
  // Baselines at (or below) double noise level cannot express a meaningful
  // relative delta; report but never gate them.
  constexpr double kZeroBaseline = 1e-12;

  DiffReport rep;
  for (const auto& [path, cand] : candidate) {
    double lo = 0.0;
    double hi = 0.0;
    std::size_t samples = 0;
    for (const auto& run : history) {
      const auto it = run.find(path);
      if (it == run.end()) continue;
      if (samples == 0) {
        lo = hi = it->second;
      } else {
        lo = std::min(lo, it->second);
        hi = std::max(hi, it->second);
      }
      ++samples;
    }
    if (samples == 0) continue;  // new metric: nothing to compare against

    MetricDelta d;
    d.path = path;
    d.baseline = lo;
    d.candidate = cand;
    d.gated = gate_matches(opts.gate, path);
    if (lo > kZeroBaseline) {
      d.delta_pct = (cand - lo) / lo * 100.0;
      d.noise_pct = samples >= 2 ? (hi - lo) / lo * 100.0 : 0.0;
      const double bar = std::max(opts.threshold_pct, d.noise_pct);
      if (d.gated && d.delta_pct > bar && cand - lo > kAbsFloor) {
        d.regression = true;
        ++rep.regressions;
      } else if (d.gated && d.delta_pct < 0.0) {
        ++rep.improvements;
      }
    }
    rep.rows.push_back(std::move(d));
  }
  return rep;
}

}  // namespace aacc::tools
