"""``experiment cluster``: worker-count scaling of the serving cluster.

The cluster analogue of Figure 13: hold the offered load fixed (one
closed-loop population from the traffic harness) and scale the *worker
pool* instead of the core count.  Because the dispatcher charges work to
per-worker ``busy_until`` clocks, N workers drain the same backlog ~N
times faster on the simulated clock — sustained throughput rises and
p95 latency falls until the pool outruns the load.

Three checks ride along, and all three land in the committed artifacts
(``results/cluster_scaling.txt`` + ``.metrics.json``):

* **scaling** — 4 workers must sustain >= 2x the throughput of 1 worker
  at the same offered load (equivalently: a lower p95 at fixed load);
* **determinism** — the 4-worker point is replayed with the same seed
  and every ``obs.cluster.*`` / ``obs.serve.*`` counter must be
  bit-identical;
* **warm value** — a cold control (warm-start off, caches disabled) at
  the widest pool shows what the warm tier buys even when sharded.

Environment knobs follow the harness conventions (``REPRO_SCALE``,
``REPRO_CORES``, ``REPRO_BACKEND``, ``REPRO_REORDER``); the defaults
are the CI ``cluster-smoke`` config gated by ``benchmarks/gate.py
cluster`` against ``benchmarks/baselines.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..serve.traffic import LevelStats, TrafficConfig, run_level
from .common import ExperimentTable

#: worker pool sizes swept (1 is a one-worker cluster, the baseline)
WORKER_COUNTS = (1, 2, 4, 8)

#: the acceptance point: 4 workers vs the 1-worker baseline
GATE_WORKERS = 4

#: minimum 4-worker over 1-worker throughput ratio the artifact asserts
TARGET_SPEEDUP = 2.0


def default_config() -> TrafficConfig:
    """The smoke-scale scaling config, environment-overridable.

    One closed-loop level, heavy enough that a single worker saturates
    (users >> 1, short think time), so extra workers translate into
    throughput instead of idle slots.
    """
    return TrafficConfig(
        scale=float(os.environ.get("REPRO_SCALE") or 0.1),
        cores=int(os.environ.get("REPRO_CORES") or 4),
        backend=os.environ.get("REPRO_BACKEND") or "scalar",
        reorder=os.environ.get("REPRO_REORDER") or "identity",
        mode="closed",
        levels=(24,),
        requests_per_level=96,
        think_cycles=10_000.0,
        # flat-ish popularity spreads engine work over all 8 catalog
        # lineages (a skewed head pins the work to one worker and caps
        # scaling at the hot lineage's serial fraction)
        zipf_s=0.3,
        # frequent mutation bursts keep versions moving so the pool does
        # warm engine re-runs instead of coasting on the result cache
        mutation_every_cycles=150_000.0,
        queue_limit=32,
        deadline_cycles=10_000_000.0,
        cold_control=False,
        workers=1,
        transport="inline",
    )


def throughput(stats: LevelStats) -> float:
    """Completed-ok queries per million simulated cycles of makespan."""
    return stats.ok / (stats.sim_cycles / 1e6) if stats.sim_cycles else 0.0


def _cluster_counters(stats: LevelStats) -> Dict[str, float]:
    """The deterministic counter families the replay check compares
    (gauges derived from wall-free state are included; everything here
    must be bit-identical across same-seed runs)."""
    return {
        key: value
        for key, value in stats.counters.items()
        if key.startswith("obs.cluster.") or key.startswith("obs.serve.")
    }


def run(
    config: Optional[TrafficConfig] = None,
) -> Tuple[ExperimentTable, Dict[str, object]]:
    """Run the sweep; returns the rendered table + the metrics payload."""
    config = config or default_config()
    level = config.levels[0]

    runs: List[Tuple[int, LevelStats]] = []
    for workers in WORKER_COUNTS:
        stats = run_level(replace(config, workers=workers), level, warm=True)
        runs.append((workers, stats))

    # determinism: replay the acceptance point with the same seed
    gate_stats = dict(runs)[GATE_WORKERS]
    replay = run_level(replace(config, workers=GATE_WORKERS), level, warm=True)
    deterministic = _cluster_counters(gate_stats) == _cluster_counters(replay)

    # warm value: cold control at the acceptance point, same seeded workload
    cold = run_level(replace(config, workers=GATE_WORKERS), level, warm=False)

    base_throughput = throughput(runs[0][1])
    table = ExperimentTable(
        "cluster_scaling",
        f"serving-cluster worker scaling (closed-loop, {level:g} users, "
        f"{config.requests_per_level} completions; dataset "
        f"{config.dataset}, scale {config.scale}, seed {config.seed}, "
        f"system {config.system}, {config.cores} cores/worker)",
        [
            "workers",
            "ok",
            "shed_rate",
            "p50_kcyc",
            "p95_kcyc",
            "makespan_Mcyc",
            "q_per_Mcycle",
            "speedup_vs_1w",
            "cache_hit",
            "warm_share",
        ],
    )
    for workers, stats in runs:
        table.add(
            workers,
            stats.ok,
            round(stats.shed_rate, 3),
            int(stats.latency_quantile(0.50) / 1e3),
            int(stats.latency_quantile(0.95) / 1e3),
            round(stats.sim_cycles / 1e6, 2),
            round(throughput(stats), 3),
            round(throughput(stats) / base_throughput, 2)
            if base_throughput
            else "-",
            round(stats.counter("obs.traffic.cache_hit_rate"), 3),
            round(stats.counter("obs.traffic.warm_share"), 3),
        )
    speedup = (
        throughput(gate_stats) / base_throughput if base_throughput else 0.0
    )
    table.note(
        f"{GATE_WORKERS} workers sustain {speedup:.2f}x the 1-worker "
        f"throughput at the same offered load (target >= "
        f"{TARGET_SPEEDUP:g}x); makespan is the busiest worker's "
        "simulated clock"
    )
    table.note(
        f"deterministic replay (same seed, {GATE_WORKERS} workers): "
        "obs.cluster.* / obs.serve.* counters bit-identical = "
        + ("PASS" if deterministic else "FAIL")
    )
    table.note(
        f"cold control at {GATE_WORKERS} workers (warm-start off, caches "
        f"disabled): p95 {int(cold.latency_quantile(0.95) / 1e3)} kcyc vs "
        f"{int(gate_stats.latency_quantile(0.95) / 1e3)} kcyc warm"
    )

    payload: Dict[str, object] = {
        "config": {
            **config.gate_config(),
            "worker_counts": list(WORKER_COUNTS),
        },
        "workers": {
            str(workers): {
                "ok": stats.ok,
                "shed_rate": stats.shed_rate,
                "p95_cycles": stats.latency_quantile(0.95),
                "makespan_cycles": stats.sim_cycles,
                "throughput_q_per_mcycle": throughput(stats),
                "counters": stats.counters,
            }
            for workers, stats in runs
        },
        "gate_workers": GATE_WORKERS,
        "speedup_gate_vs_1w": speedup,
        "target_speedup": TARGET_SPEEDUP,
        "deterministic_replay": deterministic,
        "cold": {
            "workers": GATE_WORKERS,
            "p95_cycles": cold.latency_quantile(0.95),
            "shed_rate": cold.shed_rate,
            "throughput_q_per_mcycle": throughput(cold),
        },
    }
    return table, payload


def write_artifacts(
    table: ExperimentTable,
    payload: Dict[str, object],
    out_dir: str = "results",
) -> Tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "cluster_scaling.txt"
    table_path.write_text(table.render() + "\n", encoding="utf-8")
    metrics_path = out / "cluster_scaling.metrics.json"
    metrics_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return table_path, metrics_path


def main() -> None:  # pragma: no cover - exercised via the CLI
    table, payload = run()
    table.print()
    table_path, metrics_path = write_artifacts(table, payload)
    print(f"\ntable:   {table_path}")
    print(f"metrics: {metrics_path}")
    if not payload["deterministic_replay"]:
        raise SystemExit("FAIL: same-seed cluster replay diverged")
    if payload["speedup_gate_vs_1w"] < TARGET_SPEEDUP:
        raise SystemExit(
            f"FAIL: {GATE_WORKERS}-worker speedup "
            f"{payload['speedup_gate_vs_1w']:.2f}x "
            f"< target {TARGET_SPEEDUP:g}x"
        )
