#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes each metric.

Run from the repository root:

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                 [--out perfbench/results/<name>.json]
    python3 perfbench/collect.py --compare old.json new.json

Per workload and metric it prints the median, the quartiles (Python's
statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median, and flags an
end-to-end metric whose spread exceeds a third of its bound in
BENCHMARK.json. --out writes the summary with every raw value, which is the
form the committed results take. --compare diffs the medians of two such
files against the bounds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec, workload, seed, trace):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, time.time() - start


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def collect(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace,
               "seeds": seeds, "workloads": {}}
    ok = True
    for w in workloads:
        per_metric = {}
        attempted = failed = 0
        walls = []
        for seed in seeds:
            code, res, wall = run_once(spec, w, seed, args.trace)
            walls.append(wall)
            if code != 0 or res is None or not res["correct"]:
                print("FAIL %s seed %d: exit %d, result %s" % (w, seed, code, res))
                ok = False
                continue
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, {"unit": m["unit"], "values": []})
                per_metric[name]["values"].append(m["value"])
        out = {"attempted": attempted, "failed": failed,
               "run_wall_s": summarize(walls), "metrics": {}}
        print("== %s (%d seeds, run wall median %.1f s)" %
              (w, len(seeds), statistics.median(walls)))
        for name, m in per_metric.items():
            s = summarize(m["values"])
            s["unit"] = m["unit"]
            out["metrics"][name] = s
            flag = ""
            if name in bounds and name != "setup_s" and s["spread"] > bounds[name] / 3:
                flag = "  <-- spread above bound/3 (%.3f)" % (bounds[name] / 3)
                ok = False
            print("  %-24s %14.6g %-6s spread %6.2f%%%s" %
                  (name, s["median"], m["unit"], 100 * s["spread"], flag))
        summary["workloads"][w] = out
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return ok


def compare(old_path, new_path, spec):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    old = json.load(open(old_path))
    new = json.load(open(new_path))
    ok = True
    for w, wn in new["workloads"].items():
        wo = old["workloads"].get(w)
        if wo is None:
            continue
        print("== %s" % w)
        for name, mn in wn["metrics"].items():
            mo = wo["metrics"].get(name)
            if mo is None or not mo["median"]:
                continue
            change = mn["median"] / mo["median"] - 1
            verdict = ""
            if name in bounds:
                bound, better = bounds[name]
                worse = change if better == "lower" else -change
                verdict = "worse beyond bound" if worse > bound else "ok"
                ok = ok and worse <= bound
            print("  %-24s %14.6g -> %14.6g  %+7.2f%%  %s" %
                  (name, mo["median"], mn["median"], 100 * change, verdict))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    spec = json.load(open(SPEC))
    if args.compare:
        return 0 if compare(args.compare[0], args.compare[1], spec) else 1
    return 0 if collect(args, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
