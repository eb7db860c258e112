"""Smoke test of ``benchmarks/vector_rounds.py``, the per-round host-time
split of a ``sim-vector`` op, on a small streamed graph."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_prints_one_row_per_round():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "benchmarks", "vector_rounds.py"),
            "--vertices", "1024", "--repeat", "2", "--cores", "4",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    ).stdout.splitlines()
    rounds = int(out[0].split(" rounds,")[0].rsplit(" ", 1)[1])
    assert out[1].split() == [
        "round", "applied", "scattering", "dense",
        "apply", "influence", "segment", "charge", "other", "round",
    ]
    rows = [line.split() for line in out[2:-1]]
    total = out[-1].split()
    assert len(rows) == rounds > 1
    assert [int(row[0]) for row in rows] == list(range(rounds))
    # round 0 applies every vertex of the spanning-chain graph, and a
    # vertex scatters only after it is applied
    assert int(rows[0][1]) == 1024
    assert all(int(row[2]) <= int(row[1]) for row in rows)
    assert {row[3] for row in rows} <= {"yes", "no", "-"}
    assert rows[0][3] == "yes" and rows[-1][3] in ("no", "-")
    # the phases and the rest add up to each round's time, and the
    # rounds to the totals, to their printed rounding
    for row in rows:
        phases = [float(v) for v in row[4:9]]
        assert min(phases[:4]) >= 0.0
        assert sum(phases) == pytest.approx(float(row[9]), abs=0.003)
    assert total[0] == "total"
    assert int(total[1]) == sum(int(row[1]) for row in rows)
    assert float(total[-1]) == pytest.approx(
        sum(float(row[9]) for row in rows), abs=0.001 * rounds
    )
