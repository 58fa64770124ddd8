#!/usr/bin/env python3
"""Repeat mode: run one workload K times with K different seeds and print
each metric's median, quartiles and spread next to its bound.

    python3 perfbench/spread.py --workload paper-cells [--runs 10] [--seed0 1]
                                [--seconds S] [--trace 0|1]

Run it from the root of the repository. It invokes the command named in
BENCHMARK.json with the standard flags, one process per run, and reads
the JSON object on the last line of each run's standard output. The
spread is (Q3 - Q1) / median with quartiles from
statistics.quantiles(values, n=4); a metric is steady when that spread
is below a third of its bound. The last line printed is a JSON summary.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    values = {name: [] for name in bounds}
    failures = []
    for k in range(args.runs):
        seed = args.seed0 + k
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=900)
        took = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failures.append((seed, f"exit {proc.returncode}"))
            continue
        result = json.loads(lines[-1])
        meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
        if not result["correct"] or result["failed"]:
            failures.append((seed, f"correct={result['correct']} failed={result['failed']}"))
        shown = []
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            if name in ("cells_per_s", "cell_ms_p50", "setup_s"):
                shown.append(f"{name}={v:.6g}")
        repeats = meta.get("repeat_cells_per_s", "")
        print(f"seed {seed}: {took:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}, " + ", ".join(shown)
              + (f", repeats [{repeats}]" if repeats else ""), flush=True)

    summary = {}
    print(f"\n{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds[name]
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        mark = ""
        if bound is not None:
            mark = "steady" if spread < bound / 3 else ("within" if spread <= bound else "NOISY")
        bound_s = f"{bound:6.3f}" if bound is not None else "     -"
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound_s} {mark}")
    for seed, why in failures:
        print(f"seed {seed} FAILED: {why}")
    print(json.dumps({"workload": args.workload, "runs": args.runs, "seed0": args.seed0,
                      "failures": len(failures), "metrics": summary}))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
