"""Host time per round of one warm ``sim-vector`` op, by phase.

Builds the ``sim-vector`` perfbench workload's graph (a streamed, mmap'd
power-law graph with a spanning chain, 16 edge draws per vertex,
unweighted) and runs its op: PageRank (damping 0.5, epsilon 1e-6) on
DepGraph-H under the vector backend, 8 cores.  The first run warms the
process; the next ``--repeat`` runs have the engine's phases wrapped in
timers.  Prints, per round, the applied and scattering vertex counts,
whether the scatter was dense (over the whole ``targets`` array), and the
host milliseconds spent in

* ``apply``: :meth:`VectorEngine._apply`, the fold of pending into states;
* ``influence``: :meth:`VectorEngine._influence`, the per-edge values;
* ``segment``: the segment reduction into the pending array;
* ``charge``: :meth:`VectorEngine._charge_round`, the per-core cycles;
* ``other``: the rest of the round (frontier, scatter set, CSR gather,
  round framing),

each the median over the repeats.  The vector counterpart of
``count_opcodes.py``; run it against another tree's ``src`` to compare::

    PYTHONPATH=src python benchmarks/vector_rounds.py
    PYTHONPATH=src python benchmarks/vector_rounds.py --vertices 4096 --repeat 5
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, List

import repro
from repro import algorithms
from repro.graph import external
from repro.graph import io as graph_io
from repro.hardware import HardwareConfig
from repro.runtime import execore, vector

PHASES = ("apply", "influence", "segment", "charge")
#: the sim-vector workload's op (``perfbench/sim.py``'s catalog)
PARAMS = {"damping": 0.5, "epsilon": 1e-6}


class RoundTimer:
    """Wraps the engine's phases in host timers while installed.

    A round opens at :meth:`ExecutionKernel.begin_round` and closes at
    ``end_round``; each closed round is one row of ``rows``.
    """

    def __init__(self) -> None:
        self.rows: List[Dict[str, float]] = []
        self._row: Dict[str, float] = {}
        self._saved: List = []

    def _timed(self, phase: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._row[phase] += (time.perf_counter_ns() - start) / 1e6
        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        engine = vector.VectorEngine
        kernel = execore.ExecutionKernel
        begin_round, end_round = kernel.begin_round, kernel.end_round
        charge_round, influence = engine._charge_round, engine._influence

        def begin(kernel_self, round_index):
            self._row = defaultdict(float, start=time.perf_counter_ns())
            return begin_round(kernel_self, round_index)

        def end(kernel_self, *args):
            out = end_round(kernel_self, *args)
            row = self._row
            row["round"] = (time.perf_counter_ns() - row.pop("start")) / 1e6
            self.rows.append(row)
            return out

        def charge(engine_self, applied, scattering):
            self._row["applied"] = applied.size
            self._row["scattering"] = scattering.size
            return charge_round(engine_self, applied, scattering)

        def influence_of(engine_self, src, values, counts, edges, dense):
            self._row["dense"] = dense
            return influence(engine_self, src, values, counts, edges, dense)

        self._patch(kernel, "begin_round", begin)
        self._patch(kernel, "end_round", end)
        self._patch(engine, "_apply", self._timed("apply", engine._apply))
        self._patch(engine, "_influence", self._timed("influence", influence_of))
        self._patch(engine, "_charge_round", self._timed("charge", charge))
        # the engine binds its segment reduction at construction
        for name in ("segment_sum", "segment_min", "segment_max"):
            self._patch(vector, name, self._timed("segment", getattr(vector, name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def measure(vertices: int, seed: int, repeat: int, cores: int = 8):
    """Per-round rows (medians over ``repeat`` timed runs) and the
    timed runs' op milliseconds."""
    hardware = HardwareConfig.scaled(num_cores=cores)
    with tempfile.TemporaryDirectory() as tmp:
        graph = graph_io.load_csr_dir(
            external.stream_power_law(
                tmp, vertices, 16 * vertices, alpha=2.0, seed=seed,
                spanning_chain=True,
            ),
            mmap=True,
        )

        def run():
            return repro.run(
                "depgraph-h", graph, algorithms.make("pagerank", **PARAMS),
                hardware, backend="vector",
            )

        run()  # warm: imports and first-touch page faults are not timed
        runs, op_ms = [], []
        for _ in range(repeat):
            timer = RoundTimer()
            timer.install()
            try:
                start = time.perf_counter_ns()
                run()
                op_ms.append((time.perf_counter_ns() - start) / 1e6)
            finally:
                timer.uninstall()
            runs.append(timer.rows)
    rows = []
    for per_run in zip(*runs):
        first = per_run[0]
        row = {
            "applied": first["applied"],
            "scattering": first["scattering"],
            "dense": first.get("dense"),
        }
        for phase in PHASES + ("round",):
            row[phase] = statistics.median(r[phase] for r in per_run)
        row["other"] = row["round"] - sum(row[p] for p in PHASES)
        rows.append(row)
    return rows, op_ms


def format_table(rows) -> List[str]:
    columns = PHASES + ("other", "round")
    lines = [
        f"{'round':>5} {'applied':>8} {'scattering':>10} {'dense':>5} "
        + " ".join(f"{c:>9}" for c in columns)
    ]
    for index, row in enumerate(rows):
        dense = "-" if row["dense"] is None else ("yes" if row["dense"] else "no")
        lines.append(
            f"{index:>5} {row['applied']:>8} {row['scattering']:>10} {dense:>5} "
            + " ".join(f"{row[c]:9.3f}" for c in columns)
        )
    lines.append(
        f"{'total':>5} {sum(r['applied'] for r in rows):>8} "
        f"{sum(r['scattering'] for r in rows):>10} {'':>5} "
        + " ".join(f"{sum(r[c] for r in rows):9.3f}" for c in columns)
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--vertices", type=int, default=30_720)
    parser.add_argument("--seed", type=int, default=20001, help="graph seed")
    parser.add_argument("--repeat", type=int, default=3, help="timed runs")
    parser.add_argument("--cores", type=int, default=8)
    args = parser.parse_args(argv)
    rows, op_ms = measure(args.vertices, args.seed, args.repeat, args.cores)
    print(
        f"depgraph-h pagerank (vector) on a streamed power-law graph, "
        f"{args.vertices:,} vertices, seed {args.seed}, {args.cores} cores: "
        f"{len(rows)} rounds, op median {statistics.median(op_ms):.1f} ms "
        f"over {args.repeat} runs; phase times are medians, in ms"
    )
    for line in format_table(rows):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
