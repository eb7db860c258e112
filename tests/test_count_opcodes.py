"""Smoke test of ``benchmarks/count_opcodes.py``, the per-edge bytecode
and call counter, on a tiny graph."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_counts_bytecodes_and_calls_per_edge():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "benchmarks", "count_opcodes.py"),
            "--algorithm", "wcc", "--scale", "0.05", "--cores", "2", "--top", "5",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    ).stdout.splitlines()
    assert "edge ops" in out[0]
    assert out[1].split() == ["bytecodes/edge", "calls/edge", "function"]
    rows = [line.split() for line in out[2:]]
    assert len(rows) == 5 + 2  # the top five, the rest, the total
    assert any(row[2] == "repro/hardware/hierarchy.py:MemorySystem.access" for row in rows)
    total = rows[-1]
    assert total[2] == "total"
    # every op costs bytecodes, and each edge at least its on_edge call
    assert float(total[0]) > 100 and float(total[1]) >= 1
    # the rows add up to the total, to their printed rounding
    assert sum(float(row[0]) for row in rows[:-1]) == pytest.approx(
        float(total[0]), abs=0.05 * len(rows)
    )
