#!/usr/bin/env python3
"""Steadiness report: run one workload k times and show the spread.

    python3 perfbench/steady.py --workload serve-write --runs 10 --seconds 25

Each run is a fresh ``run.py`` process with its own seed (``--seed-base``
plus the run index).
For every end-to-end metric it prints the median, the quartiles, the
quartile spread as a share of the median (the figure a bound is judged
against) and the max/min ratio -- for calibrated values and, for host
times, for the raw values beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _one(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("# detail "):])
    result = json.loads(lines[-1])
    return {"result": result, "detail": detail, "wall_s": time.perf_counter() - start}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / q2 if q2 else 0.0,
        "max_min": max(values) / min(values) if min(values) > 0 else float("inf"),
    }


def _row(name, values):
    s = spread(values)
    return (
        f"  {name:<22} median {s['median']:>14.6g}  q1 {s['q1']:>12.6g}  "
        f"q3 {s['q3']:>12.6g}  iqr/median {s['iqr_share']:7.4f}  "
        f"max/min {s['max_min']:6.3f}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    runs = []
    for i in range(args.runs):
        seed = args.seed_base + i
        runs.append(_one(args.workload, seed, args.seconds))
        metrics = runs[-1]["result"]["metrics"]
        print(
            f"run {i + 1}/{args.runs} seed {seed} ({runs[-1]['wall_s']:.1f} s): "
            + ", ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items()),
            flush=True,
        )

    print(f"\n{args.workload}: {args.runs} runs")
    print("calibrated (reported):")
    for name in runs[0]["result"]["metrics"]:
        print(_row(name, [r["result"]["metrics"][name]["value"] for r in runs]))
    print("raw host time:")
    for name in runs[0]["detail"]["raw"]:
        print(_row(name, [r["detail"]["raw"][name] for r in runs]))
    print(_row("calib_median_ms", [r["detail"]["calib_median_ms"] for r in runs]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
