"""Streaming ingestion: windowed snapshots + continuously-warm queries.

``python -m repro traffic`` answers "what happens as *query* load ramps";
this module answers the complementary question the ROADMAP streaming item
asks: *what happens under sustained graph updates*.  A seeded,
timestamped edge-event stream (:mod:`repro.graph.stream`) is ingested on
the simulated clock, folded into immutable snapshot publications on a
configurable cadence, and a set of registered **standing queries** is
re-answered at every publication through the warm-start path — the
paper's Figure 10 delta regime run as a serving loop instead of a
one-shot experiment.

The moving parts:

* **Windowing** — :func:`iter_windows` splits the event stream into
  half-open windows, either **count-windowed** (every N events) or
  **interval-windowed** (every W simulated cycles; an event with
  timestamp exactly on a window edge belongs to the *next* window, so
  every event lands in exactly one snapshot).
* **Net-effect folding** — :func:`fold_events` turns one window of
  events into a single :class:`~repro.serve.store.GraphDelta` whose
  application reproduces sequential per-event mutation exactly (CSR is
  canonically sorted, so replaying the windowed deltas reconstructs the
  same arrays as a one-shot batch rebuild — a property test pins this).
* **Publication** — each window becomes one
  :meth:`GraphService.apply_update` (or the cluster's broadcast variant)
  at the window's close instant; every ``compact_every`` publications
  the store chain is compacted via ``GraphStore.compact(keep_last=K)``,
  so the delta chain stays bounded under sustained ingest.
* **Standing queries** — every publication re-answers each registered
  ``(algorithm, params)`` spec at the new version.  Because the engine
  retains the lineage's previous converged states and the chain from
  them is exactly one window's delta, refreshes ride the warm-start
  path; ``keep_last >= 1`` keeps that chain alive across compactions.
* **Staleness** — for every event and every standing query, the
  simulated cycles between the event's arrival and the completion of
  the first standing-query result reflecting it (the refresh at the
  first snapshot containing the event).  Reported as p50/p95 per run
  and recorded in the ``obs.stream.staleness_cycles`` histogram.

Everything is seeded and runs on the simulated clock, so repeat runs
with one seed are bit-identical: ``obs.stream.*`` counters, staleness
samples, and the published snapshot chain (digested by
:func:`chain_digest`) all replay exactly.  ``python -m repro stream``
drives one run; ``python -m repro experiment stream`` sweeps cadence
levels with cold controls into ``results/stream_ingest.*``, gated in CI
by ``benchmarks/gate.py stream`` (the ``stream-smoke``
job).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import datasets
from ..graph.stream import EdgeEvent, LiveEdgeSet, generate_edge_events
from .cluster.dispatch import make_service
from .config import build_serve_config
from .service import ServeResponse, nearest_rank, warm_run_share
from .store import GraphDelta
from .traffic import QuerySpec

#: counters zero-seeded into every stream run so the ``obs.stream.*``
#: family reports the same key set from every run (the
#: ``SchedCounters.flush_policy`` discipline)
STREAM_COUNTER_FAMILY = (
    "stream.events_ingested",
    "stream.events_add",
    "stream.events_remove",
    "stream.events_reweight",
    "stream.snapshots_published",
    "stream.compactions",
    "stream.versions_pruned",
    "stream.standing_refreshes",
    "stream.refresh_cache_hits",
)

#: the default standing-query set: one cheap min-type lineage, one
#: sum-type lineage (the heavy warm-start beneficiary), one component
#: query — together they cover every accumulator-kind soundness rule
DEFAULT_STANDING_QUERIES = (
    QuerySpec("sssp", (("source", 0),)),
    QuerySpec("pagerank", (("damping", 0.85),)),
    QuerySpec("wcc"),
)


# ----------------------------------------------------------------------
# Windowing.
# ----------------------------------------------------------------------
def iter_windows(
    events: Sequence[EdgeEvent],
    cadence: str,
    window: float,
) -> Iterator[Tuple[float, Tuple[EdgeEvent, ...]]]:
    """Split ``events`` (timestamp-ordered) into publication windows.

    Yields ``(publish_cycles, window_events)`` pairs.  ``cadence`` is
    ``"count"`` (every ``window`` events; published at the last event's
    timestamp) or ``"interval"`` (fixed windows ``[k*W, (k+1)*W)`` on
    the simulated clock, published at the closing boundary; empty
    windows are skipped).  Windows are half-open, so an event with
    timestamp exactly ``k*W`` belongs to window ``k`` — exactly one
    snapshot — and the final partial window is always flushed.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if cadence == "count":
        size = int(window)
        if size < 1:
            raise ValueError("count cadence needs a window of >= 1 event")
        for start in range(0, len(events), size):
            chunk = tuple(events[start : start + size])
            yield chunk[-1].timestamp, chunk
    elif cadence == "interval":
        pending: List[EdgeEvent] = []
        edge = window  # the current window's closing boundary
        for event in events:
            while event.timestamp >= edge:
                if pending:
                    yield edge, tuple(pending)
                    pending = []
                edge += window
            pending.append(event)
        if pending:
            yield edge, tuple(pending)
    else:
        raise ValueError(
            f"unknown cadence {cadence!r}; known: count, interval"
        )


def fold_events(
    events: Sequence[EdgeEvent], live: LiveEdgeSet, weighted: bool = True
) -> GraphDelta:
    """Fold one window of events into a net-effect :class:`GraphDelta`.

    ``live`` is the edge set *before* the window and is mutated to the
    post-window state.  The delta compares each touched edge's state at
    the window edges: absent→present becomes an add, present→absent a
    remove, and a weight change on a surviving edge a reweight (a
    remove-then-re-add inside one window nets to a reweight).  Applying
    the delta through :mod:`repro.graph.mutation` therefore reproduces
    sequential per-event application exactly — including when the same
    edge is touched several times within the window, which a naive
    add/remove/reweight grouping would mis-order.
    """
    before: Dict[Tuple[int, int], Optional[float]] = {}
    for event in events:
        if event.edge not in before:
            before[event.edge] = live.get(event.edge)
        live.apply(event)
    adds: List[Tuple[int, int]] = []
    add_weights: List[float] = []
    removes: List[Tuple[int, int]] = []
    reweights: List[Tuple[int, int, float]] = []
    for edge in sorted(before):
        was, now = before[edge], live.get(edge)
        if was is None and now is not None:
            adds.append(edge)
            add_weights.append(now)
        elif was is not None and now is None:
            removes.append(edge)
        elif was is not None and now is not None and now != was:
            reweights.append((edge[0], edge[1], now))
    return GraphDelta(
        add_edges=tuple(adds),
        add_weights=tuple(add_weights) if weighted else None,
        remove_edges=tuple(removes),
        reweight=tuple(reweights),
    )


def chain_digest(chain: Sequence[Tuple[int, GraphDelta]]) -> str:
    """A stable digest of a published snapshot chain (version + delta
    content, order-sensitive) — the replay-determinism fingerprint."""
    payload = json.dumps(
        [[version, delta.to_dict()] for version, delta in chain],
        sort_keys=True,
    )
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Configuration.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamConfig:
    """Knobs for one streaming-ingest run (defaults = the CI smoke)."""

    dataset: str = "AZ"
    scale: float = 0.1
    seed: int = 0
    system: str = "depgraph-h"
    cores: int = 4
    backend: str = "scalar"
    reorder: str = "identity"
    steal_policy: str = "auto"
    #: ``count``: publish every ``window`` events; ``interval``: publish
    #: every ``window`` simulated cycles
    cadence: str = "count"
    window: float = 8.0
    #: total edge events in the stream
    events: int = 48
    #: mean simulated cycles between events (exponential gaps)
    mean_gap_cycles: float = 25_000.0
    #: (add, remove, reweight) mix weights for the event generator
    event_mix: Tuple[float, float, float] = (0.7, 0.15, 0.15)
    #: the standing-query set re-answered at every publication
    queries: Tuple[QuerySpec, ...] = DEFAULT_STANDING_QUERIES
    #: compact the store chain every N publications (0 disables)
    compact_every: int = 2
    #: versions retained by each compaction; >= 1 keeps the last delta
    #: alive so standing baselines stay warm across compactions
    keep_last: int = 2
    queue_limit: int = 64
    cache_capacity: int = 32
    deadline_cycles: float = math.inf
    #: ``0`` drives the embedded single-process service; ``>= 1`` drives
    #: an N-worker :class:`~repro.serve.cluster.ClusterService`
    workers: int = 0
    transport: str = "inline"
    out_dir: str = "results"

    def serve_config(self, warm: bool = True):
        return build_serve_config(self, warm=warm)

    def gate_config(self) -> Dict[str, object]:
        """The identity the stream gate matches baselines against."""
        return {
            "dataset": self.dataset,
            "scale": self.scale,
            "seed": self.seed,
            "system": self.system,
            "cores": self.cores,
            "backend": self.backend,
            "reorder": self.reorder,
            "cadence": self.cadence,
            "events": self.events,
            "mean_gap_cycles": self.mean_gap_cycles,
            "event_mix": list(self.event_mix),
            "queries": [spec.label() for spec in self.queries],
            "compact_every": self.compact_every,
            "keep_last": self.keep_last,
            "queue_limit": self.queue_limit,
            "cache_capacity": self.cache_capacity,
            "workers": self.workers,
        }


@dataclass
class RefreshRecord:
    """One standing-query answer at one published snapshot."""

    version: int
    query: str
    algorithm: str
    warm: bool
    cache_hit: bool
    #: engine updates performed (0 for cache hits / cluster summaries)
    updates: int
    completed_cycles: float
    #: full converged states (single-process runs only)
    states: Optional[np.ndarray] = None
    #: compact digest (cluster runs; see ``summarize_states``)
    summary: Optional[dict] = None


@dataclass
class StreamStats:
    """Everything one stream run measured."""

    cadence: str
    window: float
    warm: bool
    events: int = 0
    snapshots: int = 0
    compactions: int = 0
    refreshes: List[RefreshRecord] = field(default_factory=list)
    #: per-(event, query) staleness samples, in simulated cycles
    staleness: List[float] = field(default_factory=list)
    sim_cycles: float = 0.0
    #: the published (version, delta) chain digest — replay fingerprint
    chain_sha: str = ""
    counters: Dict[str, float] = field(default_factory=dict)

    def label(self) -> str:
        return f"{self.cadence}@{self.window:g}"

    @property
    def updates_per_mcycle(self) -> float:
        """Sustained ingest rate: events per million simulated cycles."""
        return self.events / (self.sim_cycles / 1e6) if self.sim_cycles else 0.0

    def staleness_quantile(self, q: float) -> float:
        return nearest_rank(self.staleness, q)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    @property
    def engine_updates(self) -> float:
        """Total engine updates across refreshes (the Figure 10 cost)."""
        return self.counter("obs.serve.warm_updates") + self.counter(
            "obs.serve.cold_updates"
        )

    @property
    def warm_share(self) -> float:
        return warm_run_share(self.counters)


# ----------------------------------------------------------------------
# The driver.
# ----------------------------------------------------------------------
class StreamRun:
    """Drives one service through one seeded event stream."""

    def __init__(self, config: StreamConfig, warm: bool = True) -> None:
        self.config = config
        self.warm = warm
        graph = datasets.load(config.dataset, scale=config.scale)
        self.graph = graph
        self.events = generate_edge_events(
            graph,
            config.events,
            seed=config.seed,
            mean_gap_cycles=config.mean_gap_cycles,
            mix=config.event_mix,
        )
        self.service = make_service(
            graph, config.serve_config(warm), config.workers, config.transport
        )
        self._live = LiveEdgeSet(graph)
        self._chain: List[Tuple[int, GraphDelta]] = []
        self.stats = StreamStats(config.cadence, config.window, warm)
        for name in STREAM_COUNTER_FAMILY:
            self.service.metrics.inc(name, 0.0)

    # ------------------------------------------------------------------
    def _publish(self, publish_at: float, window: Sequence[EdgeEvent]):
        """Close one window: advance the clock, publish the snapshot."""
        service = self.service
        metrics = service.metrics
        service.advance_clock(publish_at)
        delta = fold_events(window, self._live, self.graph.is_weighted)
        version = service.apply_update(delta)
        self._chain.append((version.version, delta))
        self.stats.events += len(window)
        self.stats.snapshots += 1
        metrics.inc("stream.events_ingested", float(len(window)))
        for event in window:
            metrics.inc(f"stream.events_{event.kind}")
        metrics.inc("stream.snapshots_published")
        metrics.observe("stream.window_events", float(len(window)))
        return version

    def _compact(self) -> None:
        service = self.service
        pruned = service.compact(self.config.keep_last)
        if pruned:
            self.stats.compactions += 1
            service.metrics.inc("stream.compactions")
            service.metrics.inc("stream.versions_pruned", float(pruned))

    def _refresh(self, version: int, window: Sequence[EdgeEvent]) -> None:
        """Re-answer every standing query at the new snapshot."""
        service = self.service
        metrics = service.metrics
        submitted: Dict[int, QuerySpec] = {}
        for spec in self.config.queries:
            outcome = service.submit(
                spec.algorithm, dict(spec.params), version=version
            )
            if isinstance(outcome, ServeResponse):  # shed at admission
                raise RuntimeError(
                    f"standing query {spec.label()} shed at admission; "
                    "raise queue_limit above the standing-query count"
                )
            submitted[outcome] = spec
        for response in service.drain():
            spec = submitted.get(response.request_id)
            if spec is None or not response.ok:
                continue
            metrics.inc("stream.standing_refreshes")
            if response.cache_hit:
                metrics.inc("stream.refresh_cache_hits")
            run = response.run
            states = None
            if run is not None and run.result.states is not None:
                states = np.asarray(run.result.states, dtype=np.float64)
            self.stats.refreshes.append(
                RefreshRecord(
                    version=version,
                    query=spec.label(),
                    algorithm=spec.algorithm,
                    warm=response.warm,
                    cache_hit=response.cache_hit,
                    updates=(
                        0
                        if response.cache_hit or run is None
                        else run.result.total_updates
                    ),
                    completed_cycles=response.completed_cycles,
                    states=states,
                    summary=response.summary,
                )
            )
            # staleness: this refresh is the first result reflecting
            # every event in the window that produced the snapshot
            for event in window:
                sample = response.completed_cycles - event.timestamp
                self.stats.staleness.append(sample)
                metrics.observe("stream.staleness_cycles", sample)

    # ------------------------------------------------------------------
    def run(self) -> StreamStats:
        config = self.config
        for publish_at, window in iter_windows(
            self.events, config.cadence, config.window
        ):
            version = self._publish(publish_at, window)
            self._refresh(version.version, window)
            if (
                config.compact_every
                and self.stats.snapshots % config.compact_every == 0
            ):
                self._compact()
        return self.finalize()

    def finalize(self) -> StreamStats:
        stats = self.stats
        service = self.service
        metrics = service.metrics
        stats.sim_cycles = service.makespan_cycles
        stats.chain_sha = chain_digest(self._chain)
        metrics.set("stream.sim_cycles", stats.sim_cycles)
        metrics.set("stream.updates_per_mcycle", stats.updates_per_mcycle)
        metrics.set(
            "stream.staleness_p50_cycles", stats.staleness_quantile(0.50)
        )
        metrics.set(
            "stream.staleness_p95_cycles", stats.staleness_quantile(0.95)
        )
        metrics.set("stream.warm_share", warm_run_share(service.metrics_snapshot()))
        stats.counters = service.metrics_snapshot()
        service.close()
        return stats


def run_stream(config: Optional[StreamConfig] = None, warm: bool = True) -> StreamStats:
    """Run one configured stream end-to-end and return its stats."""
    return StreamRun(config or StreamConfig(), warm=warm).run()
