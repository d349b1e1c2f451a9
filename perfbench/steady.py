#!/usr/bin/env python3
"""Steadiness mode of the benchmark.

Runs every workload of BENCHMARK.json N times, with seeds 1 to N and the
file's run_seconds, and prints for every end-to-end metric its median,
quartiles and spread (the distance between the quartiles as a share of the
median, from statistics.quantiles(values, n=4)), marking a spread above a
third of the metric's bound and failing one above the bound, setup_s
included.  It also prints every run's values, the medians of each
workload's detail metrics, and checks that every run was stationary: the
median latency of the last tenth of a run's operations may differ from the
first tenth's by at most DRIFT_LIMIT_PCT.

Run from the repository root:

    python3 perfbench/steady.py --runs 10

It exits non-zero when a run fails, answers wrongly, drifts, or spreads
beyond a bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Growth from something that accumulates (events, columns, tables, rows)
# compounds over a run and shows as a large drift.  The 2-CPU virtual
# machine the benchmark was tuned on changes speed by itself by up to about
# 45% between two tenths of one run, which sets the limit.
DRIFT_LIMIT_PCT = 50.0


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return result, detail


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        details = {}
        for i in range(opts.runs):
            seed = 1 + i
            result, detail = run_once(spec["command"], workload, seed, seconds)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, m in detail.items():
                details.setdefault(name, (m["unit"], []))[1].append(m["value"])
            drift = detail["drift_pct"]["value"]
            if abs(drift) > DRIFT_LIMIT_PCT:
                print(f"{workload} seed {seed}: drift {drift:+.1f}% "
                      f"exceeds {DRIFT_LIMIT_PCT}%")
                ok = False
        print(f"\n== {workload}: {opts.runs} runs of {seconds} s")
        print(f"{'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}  bound")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, q3, s = spread(vals)
            flag = ""
            if s > bounds[name]:
                flag = "  <-- above the bound"
                ok = False
            elif s > bounds[name] / 3:
                flag = "  (above a third of the bound)"
            print(f"{name:<24}{statistics.median(vals):>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{s:>9.4f}  {bounds[name]}{flag}")
        print("values by seed:")
        for name, vals in values.items():
            print(f"  {name:<22}" + " ".join(f"{v:.4g}" for v in vals))
        print("detail medians:")
        for name, (unit, vals) in details.items():
            print(f"  {name:<28}{statistics.median(vals):>14.6g} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
