#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks.

    python3 perfbench/selftest.py

* a corrupted answer lowers ``ok_share`` (a serve-write run with every
  answer perturbed before its check, and the sim state check directly);
* the metric self-checks fail a run with too few ops to place its tail
  above its median, or whose set-up is too short to measure;
* the run exits non-zero, printing no result, without the program's
  sources beside it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import stats  # noqa: E402
from calib import Calibration  # noqa: E402


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + args,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_corrupted_answers_lower_ok_share() -> None:
    base = ["--workload", "serve-write", "--seed", "5", "--seconds", "1", "--trace", "0"]
    clean = json.loads(_run(base).stdout.strip().splitlines()[-1])
    corrupt = json.loads(_run(base + ["--corrupt"]).stdout.strip().splitlines()[-1])
    assert clean["metrics"]["ok_share"]["value"] == 1.0, clean
    assert clean["correct"] and clean["failed"] == 0, clean
    assert corrupt["metrics"]["ok_share"]["value"] < 1.0, corrupt
    assert not corrupt["correct"] and corrupt["failed"] > 0, corrupt


def test_state_checks() -> None:
    want = np.array([0.0, 1.5, np.inf])
    assert checks.states_ok("sssp", want.copy(), want)
    bumped = want.copy()
    bumped[1] = np.nextafter(bumped[1], 2.0)
    assert not checks.states_ok("sssp", bumped, want), "min/max must be bit-exact"
    near = np.array([1.0, 2.0]) + checks.RUN_TOLERANCE / 2
    assert checks.states_ok("pagerank", near, np.array([1.0, 2.0]))
    far = np.array([1.0, 2.0]) + checks.RUN_TOLERANCE * 2
    assert not checks.states_ok("pagerank", far, np.array([1.0, 2.0]))


def test_metric_self_checks() -> None:
    values = [1.0] * 30 + [100.0] * 11
    q = stats.latency_quantiles(values)
    assert q["tail"] == 100.0 and q["p50"] == 1.0 and q["samples"] == 41
    # below MIN_OPS the tail rank could fall under the median: fail
    try:
        stats.latency_quantiles([1.0] * (stats.MIN_OPS - 1))
    except stats.MetricCheckError:
        pass
    else:
        raise AssertionError("too few samples must fail the run")

    calib = Calibration()
    calib.samples = [(0.0, 10.0)]
    record = stats.RunRecord(calib, setup_s=0.0015)
    record.ops = [stats.Op(0.0, 0.01, True, 1.0) for _ in range(stats.MIN_OPS)]
    try:
        stats.end_to_end([record])
    except stats.MetricCheckError as exc:
        assert "setup_s" in str(exc)
    else:
        raise AssertionError("a 1.5 ms set-up must fail the run")


def test_fails_without_program() -> None:
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(["--workload", "sim-scalar", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, proc
        assert proc.stdout.strip() == "", proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    tests = [
        test_state_checks,
        test_metric_self_checks,
        test_fails_without_program,
        test_corrupted_answers_lower_ok_share,
    ]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
