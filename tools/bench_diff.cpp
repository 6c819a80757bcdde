// bench_diff — CLI wrapper around tools/bench_diff.hpp.
//
//   bench_diff [--threshold PCT] [--gate WORD|WORD...] [--report-only]
//              BENCH_old1.json [BENCH_old2.json ...] BENCH_new.json
//
// The LAST file is the candidate; every earlier file is history. Prints a
// per-metric table and exits 1 when any gated metric regressed (0 with
// --report-only, so CI can run a non-blocking full report first), 2 on
// usage or parse errors. See docs/EXPERIMENTS.md §M6.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/bench_diff.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_diff [--threshold PCT] [--gate WORD|WORD...] "
               "[--report-only] OLD.json [OLD2.json ...] NEW.json\n");
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  aacc::tools::DiffOptions opts;
  bool report_only = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--threshold" && i + 1 < argc) {
      opts.threshold_pct = std::strtod(argv[++i], nullptr);
    } else if (a == "--gate" && i + 1 < argc) {
      opts.gate = argv[++i];
    } else if (a == "--report-only") {
      report_only = true;
    } else if (a.rfind("--", 0) == 0) {
      return usage();
    } else {
      files.push_back(a);
    }
  }
  if (files.size() < 2) return usage();

  std::vector<std::map<std::string, double>> history;
  std::map<std::string, double> candidate;
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::string text;
    if (!read_file(files[i], text)) {
      std::fprintf(stderr, "bench_diff: cannot read %s\n", files[i].c_str());
      return 2;
    }
    std::map<std::string, double> flat;
    std::string err;
    if (!aacc::tools::flatten_json(text, flat, &err)) {
      std::fprintf(stderr, "bench_diff: %s: %s\n", files[i].c_str(),
                   err.c_str());
      return 2;
    }
    if (i + 1 == files.size()) {
      candidate = std::move(flat);
    } else {
      history.push_back(std::move(flat));
    }
  }

  const auto rep = aacc::tools::diff_bench(history, candidate, opts);
  std::printf("bench_diff: %zu history run(s) vs %s  (threshold %.1f%%, "
              "gate %s)\n",
              history.size(), files.back().c_str(), opts.threshold_pct,
              opts.gate.c_str());
  std::printf("%-52s %12s %12s %9s %8s  %s\n", "metric", "baseline",
              "candidate", "delta", "noise", "verdict");
  for (const auto& d : rep.rows) {
    const char* verdict = d.regression          ? "REGRESSION"
                          : !d.gated            ? "-"
                          : d.delta_pct < 0.0   ? "improved"
                                                : "ok";
    std::printf("%-52s %12.6g %12.6g %+8.2f%% %7.2f%%  %s\n", d.path.c_str(),
                d.baseline, d.candidate, d.delta_pct, d.noise_pct, verdict);
  }
  std::printf("%zu regression(s), %zu improvement(s), %zu metric(s) "
              "compared\n",
              rep.regressions, rep.improvements, rep.rows.size());
  if (rep.regressions > 0 && !report_only) return 1;
  return 0;
}
