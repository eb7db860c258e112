"""Bytecodes and Python calls per simulated edge, by function.

Runs one op of the ``sim-scalar`` perfbench workload's shape (DepGraph-H
on the scalar backend, the PK stand-in at scale 0.2, 8 cores), once
untraced to warm it, then again under a ``sys.settrace`` tracer that
sets ``f_trace_opcodes`` on every frame.  Prints, per function, the
bytecodes it ran and the times a frame of it started (calls, generator
resumptions included), each divided by the op's edge operations.  C
functions run no bytecodes and start no frame, so they count nowhere.

The count is deterministic, so it compares two trees exactly where a
wall-time benchmark needs many pairs::

    PYTHONPATH=src python benchmarks/count_opcodes.py --algorithm wcc
    PYTHONPATH=src python benchmarks/count_opcodes.py --algorithm pagerank --top 25
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import Dict, List, Tuple

import repro
from repro import algorithms
from repro.graph import datasets
from repro.hardware import HardwareConfig

#: the sim-scalar workload's op classes and their parameters
#: (``perfbench/sim.py``'s catalog)
OP_CLASSES: Dict[str, Dict[str, object]] = {
    "sswp": {"source": 0},
    "sssp": {"source": 0},
    "wcc": {},
    "pagerank": {"damping": 0.2, "epsilon": 1e-4},
}


def _function_name(code) -> str:
    """``repro/<module path>:<qualified name>`` for the package's own
    code, ``<file name>:<name>`` otherwise."""
    filename = code.co_filename
    marker = os.sep + "repro" + os.sep
    at = filename.rfind(marker)
    where = filename[at + 1:] if at >= 0 else os.path.basename(filename)
    return f"{where}:{getattr(code, 'co_qualname', code.co_name)}"


def count(
    algorithm: str = "wcc", scale: float = 0.2, cores: int = 8
) -> Tuple[int, List[Tuple[str, int, int]]]:
    """Run one warm op under the opcode tracer.  Returns the op's edge
    operations and ``(function, bytecodes, calls)`` rows, most bytecodes
    first."""
    graph = datasets.load("PK", scale)
    hardware = HardwareConfig.scaled(num_cores=cores)
    params = OP_CLASSES[algorithm]

    def run():
        return repro.run(
            "depgraph-h",
            graph,
            algorithms.make(algorithm, **params),
            hardware,
            backend="scalar",
        )

    run()  # warm: lazily built caches and imports are not counted
    opcodes: Counter = Counter()
    calls: Counter = Counter()

    def trace_opcodes(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return trace_opcodes

    def trace_calls(frame, event, arg):
        calls[frame.f_code] += 1
        frame.f_trace_opcodes = True
        return trace_opcodes

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    rows: Dict[str, List[int]] = {}
    for code in set(opcodes) | set(calls):
        row = rows.setdefault(_function_name(code), [0, 0])
        row[0] += opcodes[code]
        row[1] += calls[code]
    ordered = sorted(rows.items(), key=lambda item: (-item[1][0], item[0]))
    return result.edge_operations, [(name, ops, n) for name, (ops, n) in ordered]


def format_table(
    edges: int, rows: List[Tuple[str, int, int]], top: int
) -> List[str]:
    per = max(edges, 1)
    lines = [f"{'bytecodes/edge':>14} {'calls/edge':>10}  function"]
    for name, ops, n in rows[:top]:
        lines.append(f"{ops / per:14.1f} {n / per:10.2f}  {name}")
    rest = rows[top:]
    if rest:
        ops = sum(r[1] for r in rest)
        n = sum(r[2] for r in rest)
        lines.append(f"{ops / per:14.1f} {n / per:10.2f}  ({len(rest)} more functions)")
    total_ops = sum(r[1] for r in rows)
    total_calls = sum(r[2] for r in rows)
    lines.append(f"{total_ops / per:14.1f} {total_calls / per:10.2f}  total")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--algorithm", default="wcc", choices=sorted(OP_CLASSES))
    parser.add_argument("--scale", type=float, default=0.2, help="PK stand-in scale")
    parser.add_argument("--cores", type=int, default=8)
    parser.add_argument("--top", type=int, default=15, help="functions to list")
    args = parser.parse_args(argv)
    edges, rows = count(args.algorithm, args.scale, args.cores)
    print(
        f"depgraph-h {args.algorithm} on PK x{args.scale}, "
        f"{args.cores} cores: {edges:,} edge ops, "
        f"{sum(r[1] for r in rows):,} bytecodes, {sum(r[2] for r in rows):,} calls"
    )
    for line in format_table(edges, rows, args.top):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
