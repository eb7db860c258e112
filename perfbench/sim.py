"""The simulator workloads: ``sim-scalar`` and ``sim-vector``.

Each timed op is one ``repro.run`` call.  Both workloads rotate a fixed
catalog in a seeded order, so a run's op classes appear in exact
proportions and a quantile never straddles two classes by chance.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

import repro
from repro import algorithms
from repro.graph import datasets, external
from repro.graph import io as graph_io
from repro.hardware import HardwareConfig

import checks
from calib import Calibration
from layers import LayerTracer
from stats import (
    HARD_STOP_SLACK_S,
    MIN_OPS,
    SEGMENTS,
    MetricCheckError,
    Op,
    RunRecord,
    own_peak_rss_mb,
)

CORES = 8

#: sim-scalar: the weighted PK stand-in at scale 0.2 (360 vertices,
#: ~3.4k edges); the seed picks the rotation order.  Ordered by cost:
#: sswp < sssp < wcc < pagerank, no class above ~3x another.  wcc and
#: pagerank hold two slots each, so the median falls inside the wcc
#: class and the tail (10 samples beyond it, at >= 42 ops) inside
#: pagerank.
SCALAR_DATASET = ("PK", 0.2)
SCALAR_CATALOG: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("sswp", {"source": 0}),
    ("sssp", {"source": 0}),
    ("wcc", {}),
    ("wcc", {}),
    ("pagerank", {"damping": 0.2, "epsilon": 1e-4}),
    ("pagerank", {"damping": 0.2, "epsilon": 1e-4}),
)
SCALAR_MIN_OPS = 7 * len(SCALAR_CATALOG)

#: sim-vector: a streamed, mmap'd power-law graph at the 30x level of the
#: memory-scale sweep (30,720 vertices, ~445k edges, unweighted).  One
#: rounds-dominated op class: this PageRank spends ~75% of its host time
#: in ``VectorEngine.run`` (36 rounds) and sits ~4e-4 from the exact
#: fixpoint.
VECTOR_VERTICES = 30_720
VECTOR_EDGES = 30_720 * 16
VECTOR_CATALOG: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("pagerank", {"damping": 0.5, "epsilon": 1e-6}),
)
VECTOR_MIN_OPS = MIN_OPS


@dataclass
class SimSpec:
    backend: str
    catalog: Tuple[Tuple[str, Dict[str, object]], ...]
    min_ops: int
    #: (seed, workdir) -> (graph, build seconds, load seconds)
    build: Callable


def _build_scalar(seed: int, workdir: str):
    start = time.perf_counter()
    graph = datasets.load(*SCALAR_DATASET)
    return graph, time.perf_counter() - start, 0.0


def _build_vector(seed: int, workdir: str):
    out = os.path.join(workdir, "vector-graph")
    shutil.rmtree(out, ignore_errors=True)
    start = time.perf_counter()
    external.stream_power_law(
        out,
        VECTOR_VERTICES,
        VECTOR_EDGES,
        alpha=2.0,
        seed=seed,
        spanning_chain=True,
    )
    built = time.perf_counter()
    graph = graph_io.load_csr_dir(out, mmap=True)
    return graph, built - start, time.perf_counter() - built


SPECS = {
    "sim-scalar": SimSpec("scalar", SCALAR_CATALOG, SCALAR_MIN_OPS, _build_scalar),
    "sim-vector": SimSpec("vector", VECTOR_CATALOG, VECTOR_MIN_OPS, _build_vector),
}


def _run_op(graph, name, params, backend):
    return repro.run(
        "depgraph-h",
        graph,
        algorithms.make(name, **params),
        HardwareConfig.scaled(num_cores=CORES),
        backend=backend,
    )


class _Verifier:
    """Checks each op class's first answer against the reference, and
    every later op of that class for identical simulated outputs.

    The reference solves run in :meth:`finish`, after the segment has
    read its peak RSS, so ``peak_rss_mb`` stays the program's.
    """

    def __init__(self, graph, corrupt: bool = False) -> None:
        self.graph = graph
        self.corrupt = corrupt
        #: op class -> (digest, states) of its first answer
        self._first: Dict[Tuple, Tuple[str, np.ndarray]] = {}

    def observe(self, name, params, result) -> Tuple[Tuple, str, bool]:
        """(op class, output digest, whether it repeats the class's first)."""
        states = np.asarray(result.states, dtype=np.float64)
        if self.corrupt:
            states = states.copy()
            states[len(states) // 2] += 1.0
        out_digest = checks.digest(states, result.cycles)
        key = (name, tuple(sorted(params.items())))
        first = self._first.setdefault(key, (out_digest, states))
        return key, out_digest, first[0] == out_digest

    def finish(self) -> Dict[Tuple, bool]:
        """Op class -> whether its first answer matches the reference."""
        return {
            key: checks.states_ok(
                key[0], states, checks.reference_states(self.graph, key[0], dict(key[1]))
            )
            for key, (_, states) in self._first.items()
        }


def run_segment(workload: str, seed: int, seconds: float, workdir: str,
                trace: bool = False, corrupt: bool = False) -> RunRecord:
    """One segment in this process: set up, then timed ops for ``seconds``."""
    spec = SPECS[workload]
    rng = random.Random(seed)
    rotation = list(spec.catalog)
    rng.shuffle(rotation)
    calib = Calibration()
    record = RunRecord(calib)

    calib.take(2)
    start = time.perf_counter()
    graph, build_s, load_s = spec.build(seed, workdir)
    # the same warm-up op whatever the seed: set-up work is fixed
    name, params = spec.catalog[0]
    _run_op(graph, name, params, spec.backend)
    record.setup_s = time.perf_counter() - start
    calib.take(2)

    verifier = _Verifier(graph, corrupt=corrupt)
    untraced: Dict[Tuple, str] = {}
    tracer = None
    if trace:
        tracer = LayerTracer()
        # one untraced pass first: traced ops must reproduce its outputs
        for name, params in rotation:
            key, out_digest, _ = verifier.observe(
                name, params, _run_op(graph, name, params, spec.backend)
            )
            untraced[key] = out_digest
        tracer.install()
        tracer.reset()

    # whole rotations only, so op classes keep their exact proportions;
    # a traced run reports no tail, so one rotation will do
    per_segment = -(-spec.min_ops // SEGMENTS)
    min_ops = len(rotation) if trace else per_segment
    deadline = time.perf_counter() + seconds
    hard_stop = time.perf_counter() + seconds + HARD_STOP_SLACK_S
    op_classes: List[Tuple] = []
    prefix_digests: List[str] = []
    vector_rounds = 0
    shortcut_applications = 0
    i = 0
    try:
        while (
            time.perf_counter() < deadline
            or len(record.ops) < min_ops
            or len(record.ops) % len(rotation)
        ) and time.perf_counter() < hard_stop:
            calib.maybe_take()
            name, params = rotation[i % len(rotation)]
            start = time.perf_counter()
            result = _run_op(graph, name, params, spec.backend)
            raw = time.perf_counter() - start
            key, out_digest, ok = verifier.observe(name, params, result)
            if tracer is not None and out_digest != untraced[key]:
                raise MetricCheckError(
                    f"traced {name} output differs from the untraced run"
                )
            record.ops.append(Op(start, raw, ok, float(result.edge_operations)))
            op_classes.append(key)
            if i < len(rotation):
                record.sim_cycles += result.cycles
                prefix_digests.append(out_digest)
            vector_rounds += result.rounds if spec.backend == "vector" else 0
            shortcut_applications += result.shortcut_applications
            i += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    calib.take()
    record.peak_rss_mb = own_peak_rss_mb()
    class_ok = verifier.finish()
    for op, key in zip(record.ops, op_classes):
        op.ok = op.ok and class_ok[key]
    record.digest = checks.digest(*sorted(prefix_digests))
    record.counters = {
        "graph.build_ms": build_s * 1e3,
        "graph.load_ms": load_s * 1e3,
        "vector.rounds": float(vector_rounds),
        "accel.shortcut_applications": float(shortcut_applications),
    }
    if tracer is not None:
        record.layers = tracer.report()
    return record
