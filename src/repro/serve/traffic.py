"""Deterministic traffic generation and latency-SLO sweeps.

``serve-bench`` replays one fixed seeded script; this module answers the
question that replay cannot: *what happens to tail latency and shedding
as offered load ramps* — the serving-tier analogue of the paper's
Figure 11 throughput scaling.  A :class:`TrafficConfig` describes a
synthetic population of clients issuing queries with **Zipfian
popularity** over a ranked catalog of ``(algorithm, params)`` specs,
interleaved with seeded mutation bursts, under one of two arrival
processes:

* **closed-loop** (``mode="closed"``): each load level is a number of
  concurrent users; every user submits a query, waits for its terminal
  response, thinks for an exponentially-distributed number of simulated
  cycles, and submits again.  Offered load emerges from the population
  size — the classic interactive-user model.
* **open-loop** (``mode="open"``): each load level is an arrival *rate*
  in queries per million simulated cycles; arrivals are a Poisson
  process that does not slow down when the service saturates, so queue
  growth, deadline expiry, and shedding appear exactly when offered
  load exceeds service capacity.

Everything runs on the service's **simulated clock** (arrival times,
think times, deadlines, latencies are all cycles), seeded through
:mod:`random`, so repeat runs with one seed are bit-reproducible —
``obs.traffic.*`` counters, latency histograms included.  Wall time
never enters the metrics.

:func:`run_sweep` ramps the configured load levels, optionally shadows
each level with a **cold-control** run (warm-start off, result cache
disabled) so the report shows what batching + caching + warm-start buy,
and writes ``results/traffic_slo.txt`` + ``.metrics.json``.
``benchmarks/gate.py traffic`` gates CI on the committed per-level p95
latency and shed-rate baselines (the ``slo-smoke`` job).
"""

from __future__ import annotations

import bisect
import heapq
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..experiments.common import ExperimentTable
from ..graph import datasets
from .cluster.dispatch import make_service
from .config import ServeConfig, build_serve_config
from .service import ServeResponse, nearest_rank, warm_run_share
from .store import GraphDelta

#: counters zero-seeded into every harness run so the ``obs.traffic.*``
#: family reports the same key set from every level (the
#: ``SchedCounters.flush_policy`` discipline)
_TRAFFIC_COUNTERS = (
    "traffic.arrivals",
    "traffic.mutations",
    "traffic.completed",
    "traffic.ok",
    "traffic.shed",
)


# ----------------------------------------------------------------------
# Query popularity.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QuerySpec:
    """One catalog entry: an algorithm plus canonicalised params."""

    algorithm: str
    params: Tuple[Tuple[str, object], ...] = ()

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.algorithm}({inner})"


#: the ranked default catalog (rank 0 = most popular).  Min/max
#: algorithms dominate the head on purpose: they are the cheap
#: interactive queries; the sum-type entries sit mid-tail and supply the
#: heavy engine runs that make queueing visible.
_RANKED_SPECS = (
    QuerySpec("sssp", (("source", 0),)),
    QuerySpec("wcc"),
    QuerySpec("sssp", (("source", 1),)),
    QuerySpec("bfs", (("source", 0),)),
    QuerySpec("pagerank", (("damping", 0.85),)),
    QuerySpec("sssp", (("source", 2),)),
    QuerySpec("bfs", (("source", 1),)),
    QuerySpec("pagerank", (("damping", 0.9),)),
)


def default_catalog(
    algorithms: Sequence[str] = ("sssp", "wcc", "bfs", "pagerank"),
) -> Tuple[QuerySpec, ...]:
    """The ranked query catalog restricted to ``algorithms`` (rank order
    preserved); names without a ranked entry get a default-params spec
    appended at the tail."""
    allowed = list(dict.fromkeys(algorithms))
    catalog = [spec for spec in _RANKED_SPECS if spec.algorithm in allowed]
    for name in allowed:
        if all(spec.algorithm != name for spec in catalog):
            catalog.append(QuerySpec(name))
    if not catalog:
        raise ValueError("empty query catalog")
    return tuple(catalog)


class ZipfChooser:
    """Zipfian rank popularity: ``P(rank i) ∝ 1/(i+1)**s``.

    ``s=0`` degenerates to uniform; larger ``s`` concentrates traffic on
    the head of the catalog (more coalescing and cache hits).
    """

    def __init__(self, n: int, s: float) -> None:
        if n < 1:
            raise ValueError("need at least one rank")
        if s < 0:
            raise ValueError("zipf exponent must be >= 0")
        weights = [1.0 / ((i + 1) ** s) for i in range(n)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float drift

    def __len__(self) -> int:
        return len(self._cdf)

    def probability(self, rank: int) -> float:
        lo = self._cdf[rank - 1] if rank else 0.0
        return self._cdf[rank] - lo

    def pick(self, rng: random.Random) -> int:
        return min(
            bisect.bisect_right(self._cdf, rng.random()), len(self._cdf) - 1
        )


# ----------------------------------------------------------------------
# Configuration.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrafficConfig:
    """Knobs for one load sweep (defaults = the CI ``slo-smoke`` config)."""

    dataset: str = "AZ"
    scale: float = 0.1
    seed: int = 0
    system: str = "depgraph-h"
    cores: int = 4
    backend: str = "scalar"
    reorder: str = "identity"
    steal_policy: str = "auto"
    #: ``closed``: levels are concurrent users; ``open``: levels are
    #: query arrivals per million simulated cycles
    mode: str = "closed"
    levels: Tuple[float, ...] = (1, 2, 4, 8, 16)
    #: terminal responses per level (closed) / arrivals per level (open)
    requests_per_level: int = 30
    #: mean think time between a user's requests, in simulated cycles
    think_cycles: float = 150_000.0
    #: Zipf popularity exponent over the query catalog
    zipf_s: float = 1.1
    algorithms: Tuple[str, ...] = ("sssp", "wcc", "bfs", "pagerank")
    #: mean simulated cycles between mutation bursts (0 disables)
    mutation_every_cycles: float = 600_000.0
    #: max edges added per burst
    mutation_edges: int = 3
    queue_limit: int = 12
    cache_capacity: int = 32
    #: per-request deadline, in simulated cycles from admission
    deadline_cycles: float = 2_000_000.0
    #: ``0`` drives the embedded single-process :class:`GraphService`
    #: (the original harness); ``>= 1`` drives a
    #: :class:`repro.serve.cluster.ClusterService` with that many
    #: inline workers — note ``workers=1`` is a one-worker *cluster*
    #: (dispatcher overhead included), the scaling baseline
    workers: int = 0
    #: cluster transport when ``workers >= 1`` (``inline`` keeps sweeps
    #: deterministic; ``process`` spawns real OS workers)
    transport: str = "inline"
    #: shadow each level with warm-start off + cache disabled
    cold_control: bool = True
    out_dir: str = "results"

    def serve_config(self, warm: bool = True) -> ServeConfig:
        return build_serve_config(self, warm=warm)

    def gate_config(self) -> Dict[str, object]:
        """The identity the SLO gate matches baselines against — every
        knob that changes the deterministic trajectory."""
        return {
            "dataset": self.dataset,
            "scale": self.scale,
            "seed": self.seed,
            "system": self.system,
            "cores": self.cores,
            "backend": self.backend,
            "reorder": self.reorder,
            "mode": self.mode,
            "levels": [float(level) for level in self.levels],
            "requests_per_level": self.requests_per_level,
            "think_cycles": self.think_cycles,
            "zipf_s": self.zipf_s,
            "algorithms": list(self.algorithms),
            "mutation_every_cycles": self.mutation_every_cycles,
            "mutation_edges": self.mutation_edges,
            "queue_limit": self.queue_limit,
            "cache_capacity": self.cache_capacity,
            "deadline_cycles": self.deadline_cycles,
            "workers": self.workers,
        }


@dataclass
class LevelStats:
    """Everything one harness run measured at one load level."""

    mode: str
    level: float
    warm: bool
    arrivals: int = 0
    mutations: int = 0
    ok: int = 0
    shed: int = 0
    sim_cycles: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: the full ``obs.serve.*`` + ``obs.traffic.*`` snapshot
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.ok + self.shed

    @property
    def shed_rate(self) -> float:
        return self.shed / self.arrivals if self.arrivals else 0.0

    def latency_quantile(self, q: float) -> float:
        return nearest_rank(self.latencies, q)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)


# ----------------------------------------------------------------------
# The harness: one service driven by one arrival process.
# ----------------------------------------------------------------------
class TrafficRun:
    """Drives one service (single or cluster) through one load level.

    The run owns three seeded generators — query-spec draws, client
    timing (think times, staggered starts), and the mutation process —
    derived from a stable per-level label that deliberately does *not*
    include the warm/cold flag: the warm run and its cold control face
    the same Zipf draw sequence, the same think-time stream, and the
    same mutation schedule, so the cold column isolates what caching +
    warm-start buy rather than comparing two unrelated workloads.
    """

    def __init__(self, config: TrafficConfig, level: float, warm: bool) -> None:
        self.config = config
        label = f"{config.seed}/{config.mode}/{level:g}"
        self.spec_rng = random.Random(label + "/specs")
        self.time_rng = random.Random(label + "/time")
        self.mut_rng = random.Random(label + "/mutations")
        graph = datasets.load(config.dataset, scale=config.scale)
        self.service = make_service(
            graph, config.serve_config(warm), config.workers, config.transport
        )
        self.catalog = default_catalog(config.algorithms)
        self.zipf = ZipfChooser(len(self.catalog), config.zipf_s)
        self.stats = LevelStats(config.mode, level, warm)
        #: request_id -> (user, scheduled arrival time)
        self._inflight: Dict[int, Tuple[int, float]] = {}
        self._seq = 0
        for name in _TRAFFIC_COUNTERS:
            self.service.metrics.inc(name, 0.0)

    # -- seeded event streams ------------------------------------------
    def _think(self) -> float:
        return self.time_rng.expovariate(1.0 / self.config.think_cycles)

    def _next_mutation(self, after: float) -> Optional[float]:
        every = self.config.mutation_every_cycles
        if every <= 0:
            return None
        return after + self.mut_rng.expovariate(1.0 / every)

    def _apply_mutation(self) -> None:
        graph = self.service.store.latest.graph
        n = graph.num_vertices
        adds, weights = [], []
        for _ in range(self.mut_rng.randint(1, self.config.mutation_edges)):
            adds.append((self.mut_rng.randrange(n), self.mut_rng.randrange(n)))
            weights.append(round(self.mut_rng.uniform(0.5, 1.5), 3))
        self.service.apply_update(
            GraphDelta(add_edges=tuple(adds), add_weights=tuple(weights))
        )
        self.stats.mutations += 1
        self.service.metrics.inc("traffic.mutations")

    # -- request lifecycle ---------------------------------------------
    def _submit(self, sched_time: float, user: int) -> Optional[ServeResponse]:
        """Offer one Zipf-drawn query; returns the terminal response when
        it was shed at admission, ``None`` when it is now in flight."""
        spec = self.catalog[self.zipf.pick(self.spec_rng)]
        self.stats.arrivals += 1
        self.service.metrics.inc("traffic.arrivals")
        outcome = self.service.submit(spec.algorithm, dict(spec.params))
        if isinstance(outcome, ServeResponse):
            self._record_terminal(sched_time, outcome)
            return outcome
        self._inflight[outcome] = (user, sched_time)
        return None

    def _record_terminal(self, sched_time: float, response: ServeResponse) -> None:
        metrics = self.service.metrics
        metrics.inc("traffic.completed")
        if response.ok:
            # offered-load latency: from the *scheduled* arrival, so time
            # spent waiting to be admitted (the service was mid-run when
            # the client showed up) counts too; the completion instant is
            # the response's own (cluster workers finish on their private
            # busy clocks, past the dispatcher's ``now``)
            latency = response.completed_cycles - sched_time
            self.stats.ok += 1
            self.stats.latencies.append(latency)
            metrics.inc("traffic.ok")
            metrics.observe("traffic.latency_cycles", latency)
        else:
            self.stats.shed += 1
            metrics.inc("traffic.shed")

    def _dispatch_one(self) -> List[Tuple[int, ServeResponse]]:
        """Dispatch the oldest batch; returns ``(user, response)`` pairs."""
        responses = self.service.dispatch_next()
        terminals: List[Tuple[int, ServeResponse]] = []
        for response in responses or ():
            entry = self._inflight.pop(response.request_id, None)
            if entry is None:
                continue
            user, sched_time = entry
            self._record_terminal(sched_time, response)
            terminals.append((user, response))
        return terminals

    # -- arrival processes ---------------------------------------------
    def run_closed(self, users: int, target: int) -> None:
        """``users`` concurrent clients until ``target`` terminals."""
        if users < 1:
            raise ValueError("closed-loop level must be >= 1 user")
        heap: List[Tuple[float, int, int]] = []
        for user in range(users):
            # stagger first arrivals uniformly over one think time so a
            # population of N does not arrive as one synchronized burst
            self._push(
                heap, self.time_rng.random() * self.config.think_cycles, user
            )
        next_mutation = self._next_mutation(0.0)
        service = self.service
        while self.stats.completed < target:
            if len(service.batcher) == 0:
                bounds = [heap[0][0]] if heap else []
                if next_mutation is not None:
                    bounds.append(next_mutation)
                if not bounds:
                    break  # no pending work and nothing scheduled
                service.advance_clock(min(bounds))
            now = service.now_cycles
            while next_mutation is not None and next_mutation <= now:
                self._apply_mutation()
                next_mutation = self._next_mutation(next_mutation)
            while heap and heap[0][0] <= now:
                sched_time, _, user = heapq.heappop(heap)
                if self._submit(sched_time, user) is not None:
                    # shed at admission: the user thinks, then retries
                    self._push(heap, now + self._think(), user)
            for user, response in self._dispatch_one():
                # the user's next think starts when their answer lands:
                # the batch's completion instant (== ``now`` for the
                # single service; a worker's busy clock for the cluster)
                done = max(response.completed_cycles, service.now_cycles)
                self._push(heap, done + self._think(), user)

    def run_open(self, per_mcycle: float, count: int) -> None:
        """A Poisson arrival stream at ``per_mcycle`` queries/Mcycle."""
        if per_mcycle <= 0:
            raise ValueError("open-loop level must be a positive rate")
        mean_gap = 1e6 / per_mcycle
        arrivals: List[float] = []
        t = 0.0
        for _ in range(count):
            t += self.time_rng.expovariate(1.0 / mean_gap)
            arrivals.append(t)
        next_mutation = self._next_mutation(0.0)
        service = self.service
        index = 0
        while index < len(arrivals) or len(service.batcher) > 0:
            if len(service.batcher) == 0:
                service.advance_clock(arrivals[index])
            now = service.now_cycles
            # mutations only while the stream is live: an open-loop run
            # should not keep mutating after the last client left
            while (
                next_mutation is not None
                and next_mutation <= now
                and index < len(arrivals)
            ):
                self._apply_mutation()
                next_mutation = self._next_mutation(next_mutation)
            while index < len(arrivals) and arrivals[index] <= now:
                self._submit(arrivals[index], index)
                index += 1
            self._dispatch_one()

    def _push(self, heap: List, when: float, user: int) -> None:
        self._seq += 1
        heapq.heappush(heap, (when, self._seq, user))

    # -- reporting ------------------------------------------------------
    def finalize(self) -> LevelStats:
        """Flush the level's gauges and snapshot every counter."""
        stats = self.stats
        service = self.service
        metrics = service.metrics
        # the cluster's span runs to its busiest worker's clock
        stats.sim_cycles = service.makespan_cycles
        # the cluster keeps serve.* counters in its workers, not in the
        # dispatcher registry, so read them from the aggregated snapshot
        snapshot = service.metrics_snapshot()
        metrics.set("traffic.offered_load", stats.level)
        metrics.set("traffic.sim_cycles", stats.sim_cycles)
        metrics.set("traffic.shed_rate", stats.shed_rate)
        metrics.set("traffic.cache_hit_rate", snapshot["obs.serve.cache_hit_rate"])
        metrics.set("traffic.warm_share", warm_run_share(snapshot))
        for q, name in ((0.50, "p50"), (0.95, "p95"), (0.99, "p99")):
            metrics.set(
                f"traffic.latency_{name}_cycles", stats.latency_quantile(q)
            )
        stats.counters = service.metrics_snapshot()
        return stats


def run_level(config: TrafficConfig, level: float, warm: bool = True) -> LevelStats:
    """Run one load level end-to-end and return its stats."""
    if config.mode not in ("closed", "open"):
        raise ValueError(
            f"unknown traffic mode {config.mode!r}; known: closed, open"
        )
    run = TrafficRun(config, level, warm)
    with run.service:
        if config.mode == "closed":
            run.run_closed(int(level), config.requests_per_level)
        else:
            run.run_open(float(level), config.requests_per_level)
        return run.finalize()


# ----------------------------------------------------------------------
# The sweep driver.
# ----------------------------------------------------------------------
@dataclass
class SweepLevel:
    """One load level's warm run plus its optional cold control."""

    stats: LevelStats
    cold: Optional[LevelStats] = None

    def label(self) -> str:
        return f"{self.stats.mode}@{self.stats.level:g}"


@dataclass
class SweepResult:
    config: TrafficConfig
    levels: List[SweepLevel]

    def table(self) -> ExperimentTable:
        config = self.config
        unit = "users" if config.mode == "closed" else "q/Mcycle"
        table = ExperimentTable(
            "traffic_slo",
            f"serving-tier load sweep ({config.mode}-loop, {unit}; dataset "
            f"{config.dataset}, scale {config.scale}, seed {config.seed}, "
            f"system {config.system}, backend {config.backend})",
            [
                "level",
                "arrivals",
                "ok",
                "shed_rate",
                "p50_kcyc",
                "p95_kcyc",
                "p99_kcyc",
                "cache_hit",
                "warm_share",
                "cold_p50_kcyc",
                "cold_p95_kcyc",
                "cold_shed_rate",
            ],
        )
        for entry in self.levels:
            stats = entry.stats
            cold = entry.cold
            table.add(
                f"{stats.level:g}",
                stats.arrivals,
                stats.ok,
                round(stats.shed_rate, 3),
                int(stats.latency_quantile(0.50) / 1e3),
                int(stats.latency_quantile(0.95) / 1e3),
                int(stats.latency_quantile(0.99) / 1e3),
                round(stats.counter("obs.traffic.cache_hit_rate"), 3),
                round(stats.counter("obs.traffic.warm_share"), 3),
                int(cold.latency_quantile(0.50) / 1e3) if cold else "-",
                int(cold.latency_quantile(0.95) / 1e3) if cold else "-",
                round(cold.shed_rate, 3) if cold else "-",
            )
        table.note(
            "latency is scheduled-arrival -> response, in simulated cycles "
            "(kcyc = thousands); shed_rate counts queue + deadline sheds "
            "over offered arrivals"
        )
        table.note(
            "cold_* columns replay the level with warm-start off and the "
            "result cache disabled — the control the serving layer is "
            "measured against"
        )
        table.note(
            "deterministic: repeat sweeps with one seed are bit-identical "
            "(obs.traffic.* / obs.serve.* counters and latency histograms); "
            "benchmarks/gate.py traffic gates p95 + shed rate in CI (slo-smoke)"
        )
        return table


def run_sweep(config: Optional[TrafficConfig] = None) -> SweepResult:
    """Ramp every configured load level (plus cold controls)."""
    config = config or TrafficConfig()
    levels: List[SweepLevel] = []
    for level in config.levels:
        stats = run_level(config, level, warm=True)
        cold = (
            run_level(config, level, warm=False) if config.cold_control else None
        )
        levels.append(SweepLevel(stats=stats, cold=cold))
    return SweepResult(config=config, levels=levels)


def write_artifacts(sweep: SweepResult) -> Tuple[Path, Path]:
    """Write ``traffic_slo.txt`` + ``traffic_slo.metrics.json``."""
    config = sweep.config
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / "traffic_slo.txt"
    table_path.write_text(sweep.table().render() + "\n", encoding="utf-8")

    payload: Dict[str, object] = {"config": config.gate_config()}
    payload["levels"] = {
        entry.label(): {
            "offered_load": entry.stats.level,
            "counters": entry.stats.counters,
            **(
                {
                    "cold": {
                        "p95_cycles": entry.cold.latency_quantile(0.95),
                        "shed_rate": entry.cold.shed_rate,
                        "counters": entry.cold.counters,
                    }
                }
                if entry.cold
                else {}
            ),
        }
        for entry in sweep.levels
    }
    metrics_path = out_dir / "traffic_slo.metrics.json"
    metrics_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return table_path, metrics_path


def main(config: Optional[TrafficConfig] = None) -> int:  # pragma: no cover
    sweep = run_sweep(config)
    sweep.table().print()
    table_path, metrics_path = write_artifacts(sweep)
    print(f"\ntable:   {table_path}")
    print(f"metrics: {metrics_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
