#!/usr/bin/env python
"""Regenerate the simulator digest golden (``sim_digests.json``).

Each entry is a digest of one run: the states' bytes, ``cycles``,
``rounds``, ``total_updates``, the whole ``extra`` dict (every ``obs.*``
counter), the cycle split, the access counts and, for the traced runs,
every tracer event.  The configurations are the ones the execore goldens
do not reach: a traced run (so NoC traffic and the engine's fetch-latency
histogram are live), the bandwidth-aware DRAM (``dram_channels=12``), a
GRASP and an LRU L3, a DRRIP L2, a DRRIP and a 1-way L1, weighted sssp
on DepGraph-S and DepGraph-H, the frontier and worklist families on the
same hierarchies, and the four op classes of the ``sim-scalar``
benchmark workload (wcc also under fast fidelity).  The
``backend=vector`` entries pin the bulk NumPy backend the same way: its
sum (per-source and per-edge programs), min and max accumulators,
symmetrised wcc, all four of its families, a traced run, and ``PLS``, a
streamed power-law graph whose sinks (out-degree 0) leave the scatter
side short of the applied side through full, near-full and sparse
rounds.

The golden's scalar entries were captured before the scalar hot path
was flattened, and its vector entries before the vector rounds used
per-run charge sums and whole-array applies, so
``tests/test_sim_digests.py`` asserting against it is a bit-identity
check of each faster engine against the one it replaced.  Rerun only when
the simulation model intentionally changes::

    PYTHONPATH=src python tests/goldens/generate_sim_digests.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import algorithms, runtime
from repro.graph import datasets, external
from repro.graph import io as graph_io
from repro.graph.csr import CSRGraph
from repro.hardware import HardwareConfig
from repro.observe import Tracer

HERE = Path(__file__).resolve().parent
GOLDEN_JSON = HERE / "sim_digests.json"

CORES = 8

#: (key, system, dataset, scale, weighted, algorithm, params, hardware
#: variant, traced, extra run options)
Config = Tuple[str, str, str, float, bool, str, Dict, str, bool, Dict]


def _hardware(variant: str) -> HardwareConfig:
    hw = HardwareConfig.scaled(num_cores=CORES)
    if variant == "default":
        return hw
    if variant == "dram12":
        return replace(hw, dram_channels=12)
    if variant == "grasp-l3":
        return hw.with_l3(policy="grasp")
    if variant == "lru-l3":
        return hw.with_l3(policy="lru")
    if variant == "drrip-l2":
        return hw.with_l2(policy="drrip")
    if variant == "fast":
        return replace(hw, fidelity="fast")
    if variant == "drrip-l1":
        return replace(hw, l1d=replace(hw.l1d, policy="drrip"))
    if variant == "l1-1way":
        return replace(hw, l1d=replace(hw.l1d, ways=1))
    raise KeyError(variant)


def _configs() -> List[Config]:
    out: List[Config] = []

    def add(system, dataset, scale, weighted, algo, params, variant="default",
            traced=False, **options):
        key = "|".join(
            [system, algo, dataset, str(scale), "w" if weighted else "u", variant]
            + (["traced"] if traced else [])
            + [f"{k}={v}" for k, v in sorted(options.items())]
        )
        out.append((key, system, dataset, scale, weighted, algo, params,
                    variant, traced, options))

    pr = {"damping": 0.2, "epsilon": 1e-4}
    # the sim-scalar benchmark workload, one entry per op class
    for algo, params in (("sswp", {"source": 0}), ("sssp", {"source": 0}),
                         ("wcc", {}), ("pagerank", pr)):
        add("depgraph-h", "PK", 0.2, True, algo, params)
    # traced runs: NoC traffic, DRAM samples and fetch latencies recorded
    add("depgraph-h", "GL", 0.1, True, "pagerank", {}, traced=True)
    add("depgraph-s", "PK", 0.15, True, "wcc", {}, traced=True)
    add("depgraph-h", "PK", 0.15, True, "sssp", {"source": 0}, "dram12",
        traced=True)
    # weighted sssp on both DepGraph variants
    add("depgraph-s", "PK", 0.15, True, "sssp", {"source": 0})
    add("depgraph-h", "PK", 0.15, True, "sssp", {"source": 0})
    # hierarchy variants
    for variant in ("dram12", "grasp-l3", "lru-l3", "drrip-l2", "fast"):
        add("depgraph-h", "PK", 0.15, True, "pagerank", pr, variant)
    add("depgraph-s", "PK", 0.15, True, "wcc", {}, "drrip-l2")
    add("depgraph-h-w", "GL", 0.1, True, "wcc", {}, "grasp-l3")
    add("sequential", "PK", 0.15, True, "pagerank", pr)
    add("depgraph-h", "PK", 0.15, True, "pagerank", pr, ddmu_mode="learned")
    add("depgraph-h", "PK", 0.15, True, "sssp", {"source": 0},
        reorder="degree")
    add("depgraph-h", "GL", 0.1, False, "bfs", {"source": 0}, stack_depth=3)
    # the frontier and worklist families on the same hierarchies
    for variant in ("default", "dram12", "drrip-l2", "grasp-l3"):
        add("ligra-o", "PK", 0.15, True, "pagerank", pr, variant)
        add("minnow", "PK", 0.15, True, "sssp", {"source": 0}, variant)
    add("hats", "PK", 0.15, True, "wcc", {})
    add("ligra", "GL", 0.1, True, "sssp", {"source": 0}, traced=True)
    # L1s on which the engine's state-line prefetch does not make the
    # core's chain-edge accesses hits by construction (a non-LRU or
    # 1-way L1), fast fidelity on the sim-scalar median op class, and
    # DepGraph-S (no engine) on a 1-way L1
    for variant in ("drrip-l1", "l1-1way"):
        add("depgraph-h", "PK", 0.15, True, "pagerank", pr, variant)
    add("depgraph-h", "PK", 0.2, True, "wcc", {}, "fast")
    add("depgraph-s", "PK", 0.15, True, "wcc", {}, "l1-1way")
    # the vector backend: sum with a per-source (unweighted) and a
    # per-edge (weighted) program, min, max, symmetrised wcc, its four
    # families, a traced run, and the sinks graph's mix of round shapes
    vec = {"backend": "vector"}
    add("depgraph-h", "PK", 0.15, False, "pagerank", pr, **vec)
    add("depgraph-h", "PK", 0.15, True, "pagerank", pr, **vec)
    add("depgraph-s", "PK", 0.15, True, "sssp", {"source": 0}, **vec)
    add("ligra-o", "PK", 0.15, True, "sswp", {"source": 0}, **vec)
    add("minnow", "GL", 0.1, False, "bfs", {"source": 0}, **vec)
    add("minnow", "PK", 0.15, True, "wcc", {}, **vec)
    add("depgraph-h", "GL", 0.1, False, "pagerank", {}, traced=True, **vec)
    sim_vector = {"damping": 0.5, "epsilon": 1e-6}
    add("depgraph-h", "PLS", 1.0, False, "pagerank", sim_vector, **vec)
    add("ligra-o", "PLS", 1.0, True, "pagerank", sim_vector, **vec)
    add("depgraph-s", "PLS", 1.0, True, "sssp", {"source": 0}, **vec)
    return out


CONFIGS = _configs()


def _number(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return repr(bool(value))
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return repr(value)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _event_text(event) -> str:
    """A tracer event without its host-time args (``host_ns`` is wall
    time, the only field that differs between identical runs)."""
    args = event[-1]
    if isinstance(args, dict):
        args = {k: v for k, v in args.items() if not k.startswith("host_")}
    return repr(event[:-1] + (args,))


def digest(result, tracer: Optional[Tracer] = None) -> Dict[str, object]:
    """The pinned fingerprint of one run."""
    states = np.ascontiguousarray(np.asarray(result.states, dtype=np.float64))
    extra = {key: _number(value) for key, value in result.extra.items()}
    detail = {
        "edge_operations": _number(result.edge_operations),
        "core_busy": [_number(v) for v in result.core_busy],
        "compute_cycles": _number(result.compute_cycles),
        "memory_cycles": _number(result.memory_cycles),
        "state_memory_cycles": _number(result.state_memory_cycles),
        "overhead_cycles": _number(result.overhead_cycles),
        "mem_stats": {k: _number(v) for k, v in result.mem_stats.items()},
        "access_counts": {k: _number(v) for k, v in result.access_counts.items()},
        "engine_ops": _number(result.engine_ops),
        "shortcut_applications": _number(result.shortcut_applications),
        "hub_index_entries": _number(result.hub_index_entries),
        "round_log": [
            [r.round_index, r.active_vertices, r.updates, _number(r.makespan_cycles)]
            for r in result.round_log
        ],
    }
    out: Dict[str, object] = {
        "cycles": _number(result.cycles),
        "rounds": int(result.rounds),
        "total_updates": int(result.total_updates),
        "converged": bool(result.converged),
        "states_sha256": hashlib.sha256(states.tobytes()).hexdigest(),
        "extra_keys": len(extra),
        "extra_sha256": _sha(json.dumps(extra, sort_keys=True)),
        "detail_sha256": _sha(json.dumps(detail, sort_keys=True)),
    }
    if tracer is not None:
        events = list(tracer.events())
        out["trace_events"] = len(events)
        out["trace_sha256"] = _sha("\n".join(_event_text(e) for e in events))
    return out


#: vertices of the ``PLS`` graph at scale 1.0, and its sink stride
PLS_VERTICES = 1536
PLS_SINK_STRIDE = 24


def _power_law_with_sinks(scale: float, weighted: bool) -> CSRGraph:
    """The ``sim-vector`` graph family in miniature, with sinks.

    A streamed power-law graph with a spanning chain (every vertex has
    an in-edge, so PageRank applies all of them for the first rounds),
    of which every ``PLS_SINK_STRIDE``-th vertex loses its out-edges:
    those vertices are applied but never scatter.
    """
    n = int(PLS_VERTICES * scale)
    with tempfile.TemporaryDirectory() as tmp:
        built = graph_io.load_csr_dir(
            external.stream_power_law(
                tmp, n, 16 * n, alpha=2.0, seed=7, weighted=weighted,
                spanning_chain=True,
            )
        )
    sources = np.repeat(np.arange(n), built.out_degrees())
    keep = sources % PLS_SINK_STRIDE != PLS_SINK_STRIDE - 1
    weights = None if built.weights is None else np.asarray(built.weights)[keep]
    return CSRGraph.from_arrays(
        n, sources[keep], np.asarray(built.targets)[keep], weights
    )


def _load_graph(dataset: str, scale: float, weighted: bool) -> CSRGraph:
    if dataset == "PLS":
        return _power_law_with_sinks(scale, weighted)
    return datasets.load(dataset, scale=scale, weighted=weighted)


def run_config(config: Config, graphs: Dict) -> Dict[str, object]:
    key, system, dataset, scale, weighted, algo, params, variant, traced, options = config
    graph_key = (dataset, scale, weighted)
    if graph_key not in graphs:
        graphs[graph_key] = _load_graph(dataset, scale, weighted)
    tracer = Tracer() if traced else None
    result = runtime.run(
        system,
        graphs[graph_key],
        algorithms.make(algo, **params),
        _hardware(variant),
        tracer=tracer,
        **options,
    )
    return digest(result, tracer)


def main() -> None:
    graphs: Dict = {}
    runs = {}
    for config in CONFIGS:
        runs[config[0]] = run_config(config, graphs)
        print(f"{config[0]:<60} cycles={runs[config[0]]['cycles']}")
    GOLDEN_JSON.write_text(
        json.dumps({"cores": CORES, "runs": runs}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_JSON} ({len(runs)} runs)")


if __name__ == "__main__":
    main()
