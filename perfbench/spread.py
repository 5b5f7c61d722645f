#!/usr/bin/env python3
"""Run workloads over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...]

With one seed (--seeds 1) it is the one command that runs every workload once.

For each workload and metric: the median over the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the bound fixed in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    a = ap.parse_args()
    names = a.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in names:
        runs = []
        for s in seeds(a.seeds):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(s),
                 "--seconds", str(a.seconds), "--trace", "0"],
                capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if out.returncode == 0 and lines else None
            if res is None or not res["correct"]:
                print(f"{w} seed {s}: run failed (exit {out.returncode})\n{out.stdout}{out.stderr}")
                return 1
            runs.append(res["metrics"])
        print(f"{w}: {len(runs)} runs")
        for m in runs[0]:
            vals = [r[m]["value"] for r in runs]
            med = statistics.median(vals)
            spread = 0.0
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
            bound = bounds.get(m)
            if m != "setup_s" and bound:
                worst = max(worst, spread / bound)
            print(f"  {m:16s} median {med:14.4f} {runs[0][m]['unit']:4s} spread {spread:7.4f}"
                  f"  bound {bound}  " + " ".join(f"{v:.4g}" for v in vals))
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
