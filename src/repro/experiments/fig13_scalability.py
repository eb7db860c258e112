"""Figure 13 — scalability with the number of cores.

Runs the accelerated systems at 8/16/32/64 cores on the OK stand-in and
reports absolute cycles plus each system's self-relative scaling.

Paper shape: every system gains from more cores, but DepGraph-H keeps the
largest lead because the baselines generate ever more unnecessary updates
as parallelism grows while DepGraph's chains stay effective.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .common import ExperimentConfig, ExperimentTable, WorkloadCache

SYSTEMS = ("ligra-o", "hats", "minnow", "phi", "depgraph-h")
CORE_STEPS: Tuple[int, ...] = (8, 16, 32, 64)


def run(
    config: Optional[ExperimentConfig] = None,
    cache: Optional[WorkloadCache] = None,
    dataset: str = "OK",
    algorithm: str = "pagerank",
) -> ExperimentTable:
    config = config or ExperimentConfig()
    cache = cache or WorkloadCache(config)
    steps = tuple(c for c in CORE_STEPS if c <= config.cores) or (config.cores,)
    if len(steps) == 1 and steps[0] > 1:
        # a one-row sweep cannot show scaling: add half the cores
        steps = (steps[0] // 2,) + steps
    table = ExperimentTable(
        "fig13",
        f"scalability over cores ({dataset} stand-in, {algorithm})",
        ["cores"] + [f"{s}_cycles" for s in SYSTEMS] + ["depgraph_speedup"],
    )
    for cores in steps:
        cycles = [
            cache.result(system, dataset, algorithm, cores=cores).cycles
            for system in SYSTEMS
        ]
        table.add(cores, *cycles, cycles[0] / cycles[-1] if cycles[-1] else 0.0)
    table.note("paper: DepGraph-H scales best; lead widens with more cores")
    return table


def main() -> None:  # pragma: no cover - console entry point
    run().print()


if __name__ == "__main__":  # pragma: no cover
    main()
