#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the repository root:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs the benchmark once per seed (first-seed, first-seed+1, ...) on each
workload (default: all in BENCHMARK.json) and prints, per metric, the median
and the interquartile range as a share of the median, next to the metric's
bound and a third of it. Raw results and each run's wall time are appended,
one JSON line per run, to perfbench/target/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "target"), exist_ok=True)
    log = open(os.path.join(HERE, "target", "spread.jsonl"), "a")
    ok = True
    for w in a.workloads:
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            t0 = time.time()
            out = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            log.write(json.dumps({"workload": w, "seed": seed, "wall_s": time.time() - t0,
                                  "result": res}) + "\n")
            log.flush()
            if not res["correct"]:
                ok = False
                print("%s seed %d: output checks failed" % (w, seed))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d runs)" % (w, a.runs))
        for name, vs in values.items():
            q = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  ABOVE A THIRD OF BOUND"
            print("%-22s median %-14.6g spread %.4f  bound %s%s" % (name, med, spread, bound, flag))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
