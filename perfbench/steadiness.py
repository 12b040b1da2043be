#!/usr/bin/env python3
"""Run the benchmark several times per workload and report run-to-run spread.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workload NAME ...] [--out DIR]
                                    [--against DIR]

For each workload, runs perfbench/run.py --trace 0 with seeds first-seed,
first-seed+1, ... and prints, per metric, the median, the quartile spread
(Q3 - Q1) / median as statistics.quantiles(values, n=4) gives it, and the
metric's bound from BENCHMARK.json. A spread above a third of its bound is
flagged. Every run's JSON result goes to steadiness-<workload>.jsonl in
--out (default: the build directory). With --against DIR, each median is
also compared with the median of an earlier set's jsonl in DIR, and a
metric that got worse by more than its bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: the build directory)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--out", help="directory for the jsonl results")
    p.add_argument("--against", help="directory of an earlier set's jsonl")
    a = p.parse_args()

    spec = {m["name"]: m for m in bench["end_to_end"]}
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    out_dir = a.out or run.build_dir()
    os.makedirs(out_dir, exist_ok=True)
    ok = True
    for w in workloads:
        results = []
        log = os.path.join(out_dir, "steadiness-%s.jsonl" % w)
        with open(log, "w") as f:
            for i in range(a.runs):
                seed = a.first_seed + i
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", w, "--seed", str(seed), "--seconds",
                       str(bench["run_seconds"]), "--trace", "0"]
                r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL, text=True)
                lines = r.stdout.strip().splitlines()
                if r.returncode != 0 or not lines:
                    print("%s seed %d: exit %d" % (w, seed, r.returncode))
                    ok = False
                    continue
                res = json.loads(lines[-1])
                f.write(json.dumps(res) + "\n")
                f.flush()
                results.append(res)
                if not res["correct"]:
                    print("%s seed %d: correct=false (%d/%d failed)" %
                          (w, seed, res["failed"], res["attempted"]))
                    ok = False
        if len(results) < 2:
            continue
        before = None
        if a.against:
            before = load(os.path.join(a.against, "steadiness-%s.jsonl" % w))
        print("\n== %s (%d runs, seeds %d..%d)" %
              (w, len(results), a.first_seed, a.first_seed + a.runs - 1))
        print("%-16s %14s %8s %7s %9s" %
              ("metric", "median", "spread", "bound", "vs-before"))
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med) if med else 0.0
            bound = spec[name]["bound"]
            flags = []
            if spread > bound / 3:
                flags.append("spread above bound/3")
            shift = ""
            if before:
                old = statistics.median(
                    r["metrics"][name]["value"] for r in before)
                change = (med - old) / abs(old) if old else 0.0
                worse = change if spec[name]["better"] == "lower" else -change
                shift = "%+8.2f%%" % (100 * change)
                if worse > bound:
                    flags.append("worse than before by more than the bound")
            if flags:
                ok = False
            print("%-16s %14.6g %7.2f%% %6.0f%% %9s%s" %
                  (name, med, 100 * spread, 100 * bound, shift,
                   "  <-- " + "; ".join(flags) if flags else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
