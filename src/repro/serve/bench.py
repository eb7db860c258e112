"""``serve-bench``: a deterministic serving-workload replay.

Replays a seeded workload of interleaved query groups and edge-update
bursts against a :class:`GraphService` and reports the serving-layer
behaviour the subsystem exists to provide: batch coalescing, cache hits
answered with zero engine runs, warm-start runs performing fewer vertex
updates than cold recomputes, deterministic backpressure, and p50/p95
latency in simulated cycles.

Everything downstream of the seed is deterministic — repeat runs with
the same seed produce bit-identical ``obs.serve.*`` counters (the CI
``serve-smoke`` job and ``tests/test_serve.py`` both assert this).  Warm
correctness is checked in-replay: every warm engine run is shadowed by a
cold control run on a separate engine (excluded from serving metrics)
and compared under the algorithm-kind rules — bit-identical states for
min/max accumulators, threshold tolerance for sum-type ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from ..experiments.common import ExperimentTable
from ..graph import datasets
from ..observe import MetricRegistry
from .config import SUM_STATE_TOLERANCE, ServeConfig, build_serve_config, compare_states
from .engine import QueryEngine
from .service import GraphService
from .store import GraphDelta


@dataclass(frozen=True)
class BenchConfig:
    """Knobs for one replay."""

    dataset: str = "PK"
    scale: float = 0.1
    seed: int = 0
    #: workload slots; each slot is (maybe an update burst) + a query
    #: group + a drain
    slots: int = 30
    system: str = "depgraph-h"
    cores: int = 8
    queue_limit: int = 24
    cache_capacity: int = 64
    #: default request deadline in simulated cycles (tight deadlines are
    #: injected by the workload itself)
    deadline_cycles: float = 5e7
    algorithms: Tuple[str, ...] = ("pagerank", "sssp", "wcc")
    #: vertex ordering applied to every engine run (and the cold control
    #: engine, so warm-vs-cold comparisons stay apples-to-apples)
    reorder: str = "identity"
    #: execution backend for every engine run (and the cold control)
    backend: str = "scalar"
    #: shadow every warm run with a cold control run and compare
    verify_cold: bool = True
    out_dir: str = "results"

    def serve_config(self) -> ServeConfig:
        return build_serve_config(self)


@dataclass
class WarmVerification:
    """Warm-vs-cold comparison accumulated over the replay."""

    warm_runs: int = 0
    warm_updates: int = 0
    cold_updates: int = 0
    mismatches: int = 0
    max_sum_divergence: float = 0.0
    checked_keys: List[str] = field(default_factory=list)

    @property
    def update_ratio(self) -> float:
        return (
            self.warm_updates / self.cold_updates if self.cold_updates else 0.0
        )

    @property
    def states_match(self) -> bool:
        return self.mismatches == 0


def _random_burst(rng: random.Random, graph) -> GraphDelta:
    """A small seeded mutation burst on the current snapshot."""
    n = graph.num_vertices
    adds = []
    weights = []
    for _ in range(rng.randint(1, 6)):
        adds.append((rng.randrange(n), rng.randrange(n)))
        weights.append(round(rng.uniform(0.5, 1.5), 3))
    removes = []
    if graph.num_edges and rng.random() < 0.25:
        # removals exercise the sum-type signed-residual path and the
        # min/max cold fallback
        for _ in range(rng.randint(1, 2)):
            e = rng.randrange(graph.num_edges)
            source = int(
                np.searchsorted(graph.offsets, e, side="right") - 1
            )
            removes.append((source, int(graph.targets[e])))
    return GraphDelta(
        add_edges=tuple(adds),
        add_weights=tuple(weights),
        remove_edges=tuple(removes),
    )


def run_bench(
    config: Optional[BenchConfig] = None,
) -> Tuple[ExperimentTable, GraphService, WarmVerification]:
    """Replay the seeded workload; returns (table, service, verification)."""
    config = config or BenchConfig()
    rng = random.Random(config.seed)
    graph = datasets.load(config.dataset, scale=config.scale)
    service = GraphService(graph, config.serve_config())
    verification = WarmVerification()
    control = (
        QueryEngine(
            service.store,
            system=config.system,
            hardware=config.serve_config().hardware(),
            warm=False,
            reorder=config.reorder,
            steal_policy=config.serve_config().steal_policy,
            backend=config.backend,
        )
        if config.verify_cold
        else None
    )
    verified: set = set()
    answered = 0

    for _ in range(config.slots):
        if rng.random() < 0.35:
            service.apply_update(
                _random_burst(rng, service.store.latest.graph)
            )
        # a query group: a few distinct queries, each submitted several
        # times back-to-back so the batcher has duplicates to coalesce
        for _ in range(rng.randint(1, 3)):
            algorithm = rng.choice(list(config.algorithms))
            deadline = 20_000.0 if rng.random() < 0.12 else None
            for _ in range(rng.randint(1, 3)):
                service.submit(algorithm, deadline_cycles=deadline)
        if rng.random() < 0.08:
            # a flood against the admission bound: deterministic shed
            flood_algo = rng.choice(list(config.algorithms))
            for _ in range(config.queue_limit + 4):
                service.submit(flood_algo)
        responses = service.drain()
        answered += sum(1 for r in responses if r.ok)
        if control is not None:
            _verify_warm_runs(responses, control, verification, verified)

    return _render(config, service, verification, answered), service, verification


def _verify_warm_runs(
    responses, control: QueryEngine, verification: WarmVerification, verified
) -> None:
    """Shadow each new warm engine run with a cold control run."""
    for response in responses:
        run = response.run
        if (
            run is None
            or not run.warm
            or response.cache_hit
            or run.key in verified
        ):
            continue
        verified.add(run.key)
        cold = control.execute(
            run.key.algorithm, dict(run.key.params), run.key.version,
            force_cold=True,
        )
        match, divergence = compare_states(
            run.key.algorithm, run.result.states, cold.result.states
        )
        verification.warm_runs += 1
        verification.warm_updates += run.updates
        verification.cold_updates += cold.updates
        verification.max_sum_divergence = max(
            verification.max_sum_divergence, divergence
        )
        if not match:
            verification.mismatches += 1
        verification.checked_keys.append(run.key.label())


def _render(
    config: BenchConfig,
    service: GraphService,
    verification: WarmVerification,
    ok: int,
) -> ExperimentTable:
    counters = service.metrics_snapshot()

    def c(name: str) -> float:
        return counters.get(f"obs.serve.{name}", 0.0)

    throughput = (
        ok / (service.now_cycles / 1e6) if service.now_cycles else 0.0
    )
    table = ExperimentTable(
        "serve_bench",
        f"serving replay (dataset {config.dataset}, scale {config.scale}, "
        f"seed {config.seed}, system {config.system})",
        ["metric", "value"],
    )
    rows: List[Tuple[str, object]] = [
        ("slots", config.slots),
        ("graph_versions", service.store.latest_version + 1),
        ("edges_added", int(c("edges_added"))),
        ("edges_removed", int(c("edges_removed"))),
        ("queries_submitted", int(c("submitted"))),
        ("queries_answered", ok),
        ("shed_queue_full", int(c("shed_queue"))),
        ("shed_deadline", int(c("shed_deadline"))),
        ("engine_runs", int(c("engine_runs"))),
        ("batched_away", int(c("admitted") - c("shed_deadline") - c("cache_hits") - c("engine_runs"))),
        ("cache_hits", int(c("cache_hits"))),
        ("cache_hit_rate", round(c("cache_hit_rate"), 3)),
        ("warm_runs", int(c("warm_runs"))),
        ("cold_runs", int(c("cold_runs"))),
        ("warm_fallbacks", int(c("warm_fallbacks"))),
        ("warm_updates_total", int(c("warm_updates"))),
        ("latency_p50_cycles", int(service.latency_quantile(0.50))),
        ("latency_p95_cycles", int(service.latency_quantile(0.95))),
        ("sim_cycles_total", int(service.now_cycles)),
        ("throughput_q_per_Mcycle", round(throughput, 3)),
        ("wall_engine_seconds", round(service.wall_engine_seconds, 3)),
    ]
    if verification.warm_runs:
        rows += [
            ("verified_warm_runs", verification.warm_runs),
            ("verified_warm_updates", verification.warm_updates),
            ("verified_cold_updates", verification.cold_updates),
            ("warm_vs_cold_update_ratio", round(verification.update_ratio, 3)),
            ("warm_states_match", verification.states_match),
            (
                "max_sum_divergence",
                f"{verification.max_sum_divergence:.2e}",
            ),
        ]
    for row in rows:
        table.add(*row)
    table.note(
        "cache hits are answered with zero engine runs; 'batched_away' "
        "requests rode along on another request's run"
    )
    if verification.warm_runs:
        table.note(
            "warm-vs-cold verified on a shadow engine (excluded from "
            "serving metrics): min/max states bit-identical, sum-type "
            f"within {SUM_STATE_TOLERANCE:g}"
        )
    table.note(
        "deterministic: repeat runs of the same seed produce bit-identical "
        "obs.serve.* counters (wall time is reporting-only)"
    )
    return table


def write_artifacts(
    table: ExperimentTable,
    service: GraphService,
    config: BenchConfig,
) -> Tuple[Path, Path]:
    """Write the text table + metrics.json under ``config.out_dir``."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / "serve_bench.txt"
    table_path.write_text(table.render() + "\n", encoding="utf-8")
    registry = MetricRegistry()
    for key, value in service.metrics_snapshot().items():
        if key.startswith("obs."):
            registry.set(key[len("obs."):], value)
    metrics_path = out_dir / "serve_bench.metrics.json"
    registry.write_json(
        metrics_path,
        dataset=config.dataset,
        scale=config.scale,
        seed=config.seed,
        system=config.system,
        cores=config.cores,
        slots=config.slots,
        reorder=config.reorder,
        backend=config.backend,
    )
    return table_path, metrics_path


def main(config: Optional[BenchConfig] = None) -> int:  # pragma: no cover
    table, service, verification = run_bench(config)
    table.print()
    table_path, metrics_path = write_artifacts(
        table, service, config or BenchConfig()
    )
    print(f"\ntable:   {table_path}")
    print(f"metrics: {metrics_path}")
    if verification.warm_runs and not verification.states_match:
        print("WARNING: warm/cold state mismatch detected")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
