#!/usr/bin/env python
"""Regenerate the execution-core equivalence goldens.

The goldens snapshot converged states and headline counters for every
registry system (plus a steal-policy / reordering sweep over the three
runtime families) at the fig11 gate smoke config (GL, scale 0.05, 8
cores).  They were first captured at the pre-execore seed (commit
2332d32, before ``repro.runtime.execore`` existed), so
``tests/test_execore.py`` asserting against them is a direct
post-refactor-vs-pre-refactor equivalence check: bit-identical states
for min/max accumulators, tolerance for sum-type, exact cycles/updates
for every system.

Rerun only when the simulation model intentionally changes::

    PYTHONPATH=src python tests/goldens/generate_execore_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro import algorithms, runtime
from repro.graph import datasets
from repro.hardware import HardwareConfig

HERE = Path(__file__).resolve().parent
STATES_NPZ = HERE / "execore_states.npz"
META_JSON = HERE / "execore_meta.json"

DATASET = "GL"
SCALE = 0.05
CORES = 8

ALGORITHMS = {
    "pagerank": lambda: algorithms.make("pagerank"),
    "sssp": lambda: algorithms.make("sssp", source=0),
    "wcc": lambda: algorithms.make("wcc"),
}

#: the three runtime families get the full policy x reorder sweep
FAMILY_SYSTEMS = ("ligra-o", "minnow", "depgraph-h")
SWEEP = (
    ("random", "identity"),
    ("partition", "identity"),
    ("random", "degree"),
    ("partition", "degree"),
)

#: headline counters snapshotted alongside the states
COUNTERS = (
    "obs.sched.steals_attempted",
    "obs.sched.steals_succeeded",
    "obs.cache.llc.hit_rate",
)


#: a second, less hub-dominated topology where the depgraph/minnow
#: partition-steal paths actually fire (GL's ego-network shape starves
#: them of successful steals)
ALT_DATASET = "PK"
ALT_SCALE = 0.15
ALT_SYSTEMS = ("ligra-o", "minnow", "depgraph-h")
ALT_ALGORITHMS = ("pagerank", "sssp")


def run_key(system: str, algo: str, policy: str, reorder: str, dataset: str = DATASET) -> str:
    if dataset == DATASET:
        return f"{system}|{algo}|{policy}|{reorder}"
    return f"{system}|{algo}|{policy}|{reorder}|{dataset}"


def main() -> None:
    graph = datasets.load(DATASET, scale=SCALE, weighted=True)
    alt_graph = datasets.load(ALT_DATASET, scale=ALT_SCALE, weighted=True)
    hw = HardwareConfig.scaled(num_cores=CORES)
    configs = [
        (system, algo, "auto", "identity", DATASET)
        for system in runtime.SYSTEM_NAMES
        for algo in ALGORITHMS
    ]
    configs += [
        (system, algo, policy, reorder, DATASET)
        for system in FAMILY_SYSTEMS
        for algo in ALGORITHMS
        for policy, reorder in SWEEP
    ]
    configs += [
        (system, algo, "partition", "identity", ALT_DATASET)
        for system in ALT_SYSTEMS
        for algo in ALT_ALGORITHMS
    ]

    states = {}
    meta = {
        "dataset": DATASET,
        "scale": SCALE,
        "alt_dataset": ALT_DATASET,
        "alt_scale": ALT_SCALE,
        "cores": CORES,
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "runs": {},
    }
    for system, algo, policy, reorder, dataset in configs:
        key = run_key(system, algo, policy, reorder, dataset)
        if key in states:
            continue
        result = runtime.run(
            system,
            alt_graph if dataset == ALT_DATASET else graph,
            ALGORITHMS[algo](),
            hw,
            steal_policy=policy,
            reorder=reorder,
        )
        states[key] = np.asarray(result.states, dtype=np.float64)
        meta["runs"][key] = {
            "system": system,
            "algorithm": algo,
            "dataset": dataset,
            "steal_policy": policy,
            "reorder": reorder,
            "cycles": float(result.cycles),
            "total_updates": int(result.total_updates),
            "rounds": int(result.rounds),
            "converged": bool(result.converged),
            "counters": {
                name: float(result.extra.get(name, 0.0)) for name in COUNTERS
            },
        }
        print(
            f"{key:<40} cycles={result.cycles:>12.0f} "
            f"updates={result.total_updates:>8d}"
        )

    np.savez_compressed(STATES_NPZ, **states)
    META_JSON.write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {STATES_NPZ} + {META_JSON} ({len(states)} runs)")


if __name__ == "__main__":
    main()
