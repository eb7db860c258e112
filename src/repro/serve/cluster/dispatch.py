"""The cluster dispatcher: admission, routing, and fault handling.

:class:`ClusterService` scales the single-process :class:`GraphService`
model across a pool of workers while keeping its defining property —
**determinism on the simulated clock**.  It exposes the same driver
interface (``submit`` / ``dispatch_next`` / ``drain`` /
``advance_clock`` / ``apply_update`` / ``metrics_snapshot``), so the
traffic harness and the HTTP front door drive either one unchanged.

How the pieces fit:

* **Admission** is the dispatcher's alone: one bounded FIFO
  :class:`Batcher` coalesces identical queries cluster-wide and sheds
  the *newest* arrival when full (reject-new backpressure), exactly as
  the single service does.  Deadlines are checked against the request's
  projected *start* on its worker, so a request that would only begin
  after its deadline is shed before any engine work is spent.
* **Routing** is rendezvous hashing by query lineage
  (:mod:`repro.serve.cluster.routing`).  Lineage affinity is what makes
  the workers' warmth additive: each worker re-serves the baselines,
  orderings, and cached results of *its* lineages.  The first routing
  decision per lineage is pinned, so assignments never flap; a restart
  reuses the slot name and inherits the pin.
* **Time** is a discrete-event multi-server model: each worker has a
  ``busy_until`` clock; a batch dispatched at ``now`` starts at
  ``max(now, busy_until[w])``, finishes ``cycles`` later, and the
  request's latency is completion minus admission.  The dispatcher's
  own clock only pays a small per-batch overhead
  (:data:`DISPATCH_CYCLES`), which is why N workers drain a backlog ~N
  times faster — the scaling the ``cluster`` experiment measures.
  Counters depend only on arrival order and the routing table, never on
  wall-clock completion order, so same-seed replays are bit-identical
  even with real worker processes.
* **Faults**: a call on a dead worker raises ``WorkerDied``; the
  dispatcher restarts the slot (``obs.cluster.worker_restarts``),
  requeues the batch (``obs.cluster.requeued``), and re-executes on the
  replacement — no request is silently dropped.  Replacement process
  workers rebuild their replica from a fresh store snapshot and find
  their lineages' baselines in the shared spool, so they come back
  *warm*.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ... import algorithms as algorithms_mod
from ...graph.csr import CSRGraph
from ...observe import MetricRegistry, aggregate_metrics
from ..batching import Batcher
from ..engine import ParamsKey, QueryKey, canonical_params, lineage_label
from ..service import (
    STATUS_OK,
    STATUS_SHED_DEADLINE,
    STATUS_SHED_QUEUE,
    ServeConfig,
    ServeRequest,
    ServeResponse,
)
from ..store import GraphDelta, GraphStore, GraphVersion
from .routing import RoutingTable
from .worker import (
    InlineWorkerClient,
    ProcessWorkerClient,
    WorkerConfig,
    WorkerDied,
)

#: modeled dispatcher overhead per dispatched batch, in simulated cycles
#: (routing + handoff; deliberately tiny against any engine run)
DISPATCH_CYCLES = 1_000.0

#: give up on a worker slot after this many consecutive deaths
_MAX_ATTEMPTS = 3

#: counters zero-seeded into every dispatcher so the ``obs.cluster.*``
#: family reports the same key set from every run (per-lineage
#: ``cluster.by_lineage.<lineage>.*`` variants are created on first
#: touch — the lineage set is workload-defined)
CLUSTER_COUNTER_FAMILY = (
    "cluster.submitted",
    "cluster.admitted",
    "cluster.shed_queue",
    "cluster.shed_deadline",
    "cluster.dispatched",
    "cluster.routed",
    "cluster.requeued",
    "cluster.worker_restarts",
    "cluster.updates_applied",
    "cluster.compactions",
)


class _ClusterCacheView:
    """Aggregated result-cache statistics (the ``service.cache`` shape
    the traffic harness reads), summed across worker registries."""

    def __init__(self, service: "ClusterService") -> None:
        self._service = service

    @property
    def hits(self) -> float:
        return self._service._worker_counter_sum("serve.cache_hits")

    @property
    def misses(self) -> float:
        return self._service._worker_counter_sum("serve.cache_misses")

    @property
    def hit_rate(self) -> float:
        hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0


@dataclass
class _Slot:
    """Dispatcher-side state of one worker slot."""

    client: object
    busy_until: float = 0.0
    #: restart generation (names persisted store snapshots uniquely)
    generation: int = 0


class ClusterService:
    """A sharded, fault-tolerant, deterministic serving cluster."""

    def __init__(
        self,
        graph: Optional[CSRGraph] = None,
        config: Optional[ServeConfig] = None,
        workers: int = 2,
        transport: str = "inline",
        spool_dir: Optional[str] = None,
        store: Optional[GraphStore] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("cluster needs at least one worker")
        if transport not in ("inline", "process"):
            raise ValueError(
                f"unknown transport {transport!r}; known: inline, process"
            )
        if store is None:
            if graph is None:
                raise ValueError("need a base graph or an existing store")
            store = GraphStore(graph)
        self.config = config or ServeConfig()
        self.store = store
        self.transport = transport
        if spool_dir is None:
            spool_dir = tempfile.mkdtemp(prefix="repro-cluster-")
        self.spool_dir = spool_dir
        #: the shared cross-worker baseline spool (restart/fork warmth)
        self.baseline_dir = self.config.baseline_dir or os.path.join(
            spool_dir, "baselines"
        )

        names = [f"w{i}" for i in range(workers)]
        self.routing = RoutingTable(names)
        self._slots: Dict[str, _Slot] = {}
        for name in names:
            self._slots[name] = _Slot(client=self._spawn(name, generation=0))

        self.metrics = MetricRegistry()
        for counter in CLUSTER_COUNTER_FAMILY:
            self.metrics.inc(counter, 0.0)
        self.metrics.set("cluster.workers", float(workers))
        self.metrics.set("cluster.version", float(store.latest_version))

        self.batcher: Batcher[ServeRequest] = Batcher()
        self.now_cycles = 0.0
        self._next_request_id = 0
        #: every completed latency, kept for the exact quantiles; the
        #: responses themselves go back to the caller and are not kept
        self._latencies: List[float] = []
        #: lineage -> pinned worker slot (first routing decision wins)
        self._routed: Dict[Tuple[str, ParamsKey], str] = {}

    # ------------------------------------------------------------------
    # Worker lifecycle.
    # ------------------------------------------------------------------
    def _spawn(self, name: str, generation: int):
        """Build one worker client for slot ``name``."""
        if self.transport == "inline":
            worker_config = WorkerConfig.from_serve(
                name, self.config, baseline_dir=self.baseline_dir
            )
            return InlineWorkerClient(worker_config, store=self.store)
        store_dir = os.path.join(self.spool_dir, f"store-{name}-g{generation}")
        self.store.save(store_dir)
        worker_config = WorkerConfig.from_serve(
            name,
            self.config,
            store_dir=store_dir,
            baseline_dir=self.baseline_dir,
        )
        return ProcessWorkerClient(worker_config)

    def _restart(self, name: str) -> None:
        """Replace a dead worker under the same slot name.

        The slot name is the routing identity, so assignments are
        untouched; the replacement rebuilds from the current store state
        and inherits its lineages' warmth from the baseline spool."""
        slot = self._slots[name]
        try:
            slot.client.close()
        except Exception:  # noqa: BLE001 - already dead, best effort
            pass
        slot.generation += 1
        slot.client = self._spawn(name, generation=slot.generation)
        self.metrics.inc("cluster.worker_restarts")

    def _call(self, name: str, command: Tuple):
        """One command on slot ``name`` with restart-on-death."""
        for _ in range(_MAX_ATTEMPTS):
            try:
                return self._slots[name].client.call(command)
            except WorkerDied:
                self._restart(name)
        raise RuntimeError(
            f"worker slot {name} died {_MAX_ATTEMPTS} times in a row"
        )

    def kill_worker(self, name: str) -> None:
        """Fault injection: hard-kill one worker (tests, chaos drills).
        The next batch routed to it triggers restart + requeue."""
        self._slots[name].client.kill()

    def workers_alive(self) -> Dict[str, bool]:
        """Liveness by slot (the ``/readyz`` payload)."""
        return {
            name: bool(slot.client.alive)
            for name, slot in sorted(self._slots.items())
        }

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        for slot in self._slots.values():
            try:
                slot.client.close()
            except Exception:  # noqa: BLE001 - teardown is best effort
                pass

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Admission (mirrors GraphService.submit).
    # ------------------------------------------------------------------
    def submit(
        self,
        algorithm: str,
        params: Optional[dict] = None,
        version: Optional[int] = None,
        deadline_cycles: Optional[float] = None,
    ) -> ServeResponse | int:
        """Admit one query (returns its request id) or shed it."""
        metrics = self.metrics
        metrics.inc("cluster.submitted")
        request_id = self._next_request_id
        self._next_request_id += 1
        if len(self.batcher) >= self.config.queue_limit:
            metrics.inc("cluster.shed_queue")
            response = ServeResponse(
                request_id, STATUS_SHED_QUEUE,
                completed_cycles=self.now_cycles,
            )
            return response
        resolved = self.store.latest_version if version is None else version
        self.store.get(resolved)  # validate
        # validate the query itself at admission: a bad algorithm/params
        # must bounce here (HTTP 400), not poison a dispatched batch
        try:
            algorithms_mod.make(algorithm, **dict(params or {}))
        except KeyError as exc:
            raise ValueError(str(exc)) from None
        deadline = (
            self.config.default_deadline_cycles
            if deadline_cycles is None
            else deadline_cycles
        )
        request = ServeRequest(
            request_id=request_id,
            algorithm=algorithm,
            params=dict(params or {}),
            version=resolved,
            deadline_cycles=deadline,
            enqueued_at=self.now_cycles,
        )
        key = QueryKey(algorithm, canonical_params(request.params), resolved)
        metrics.inc("cluster.admitted")
        metrics.observe("cluster.queue_depth", len(self.batcher) + 1)
        self.batcher.add(key, request)
        return request_id

    # ------------------------------------------------------------------
    # Updates / compaction (authoritative store + broadcast).
    # ------------------------------------------------------------------
    def apply_update(self, delta: GraphDelta) -> GraphVersion:
        """Apply one mutation batch and fan it out to replica stores."""
        version = self.store.apply(delta)
        for name, slot in sorted(self._slots.items()):
            if slot.client.shares_store:
                continue
            replica_version = self._call(name, ("update", delta.to_dict()))
            if replica_version != version.version:
                raise RuntimeError(
                    f"worker {name} replica diverged: v{replica_version} "
                    f"!= v{version.version}"
                )
        self.metrics.inc("cluster.updates_applied")
        self.metrics.set("cluster.version", float(version.version))
        return version

    def compact(self, keep_last: int = 8) -> int:
        """Compact the authoritative store and every replica."""
        pruned = self.store.compact(keep_last)
        if pruned:
            for name, slot in sorted(self._slots.items()):
                if slot.client.shares_store:
                    continue
                self._call(name, ("compact", keep_last))
            self.metrics.inc("cluster.compactions")
        return pruned

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def drain(self) -> List[ServeResponse]:
        """Dispatch every pending batch; returns the new responses."""
        responses: List[ServeResponse] = []
        while True:
            batch = self.dispatch_next()
            if batch is None:
                return responses
            responses.extend(batch)

    def dispatch_next(self) -> Optional[List[ServeResponse]]:
        """Route + execute the oldest pending batch; ``None`` when idle."""
        batch = self.batcher.next_batch()
        if batch is None:
            return None
        key, group = batch
        responses: List[ServeResponse] = []
        metrics = self.metrics

        lineage = key.lineage()
        label = lineage_label(*lineage)
        worker = self._routed.get(lineage)
        if worker is None:
            worker = self.routing.route(label)
            self._routed[lineage] = worker
            metrics.inc("cluster.routed")
            metrics.inc(f"cluster.by_lineage.{label}.routed")
        metrics.inc("cluster.dispatched")
        metrics.inc(f"cluster.by_lineage.{label}.dispatched")
        metrics.observe("cluster.batch_size", len(group))

        start = max(self.now_cycles, self._slots[worker].busy_until)
        live: List[ServeRequest] = []
        for request in group:
            waited = start - request.enqueued_at
            if waited > request.deadline_cycles:
                metrics.inc("cluster.shed_deadline")
                responses.append(
                    ServeResponse(
                        request.request_id,
                        STATUS_SHED_DEADLINE,
                        key=key,
                        latency_cycles=waited,
                        completed_cycles=start,
                        worker=worker,
                    )
                )
            else:
                live.append(request)
        self.now_cycles += DISPATCH_CYCLES

        if live:
            reply = self._execute(worker, key, label)
            completion = start + reply["cycles"]
            self._slots[worker].busy_until = completion
            for request in live:
                latency = completion - request.enqueued_at
                self._latencies.append(latency)
                metrics.observe("cluster.latency_cycles", latency)
                responses.append(
                    ServeResponse(
                        request.request_id,
                        STATUS_OK,
                        key=key,
                        cache_hit=reply["cache_hit"],
                        warm=reply["warm"],
                        inherited=reply["inherited"],
                        fallback_reason=reply["fallback_reason"],
                        latency_cycles=latency,
                        completed_cycles=completion,
                        worker=worker,
                        summary=reply["summary"],
                    )
                )
        return responses

    def _execute(self, worker: str, key: QueryKey, label: str) -> dict:
        """Execute one batch with restart + requeue on worker death."""
        command = ("execute", key.algorithm, dict(key.params), key.version)
        for _ in range(_MAX_ATTEMPTS):
            try:
                return self._slots[worker].client.call(command)
            except WorkerDied:
                self._restart(worker)
                self.metrics.inc("cluster.requeued")
                self.metrics.inc(f"cluster.by_lineage.{label}.requeued")
        raise RuntimeError(
            f"batch {key.label()} could not be served: worker {worker} "
            f"died {_MAX_ATTEMPTS} times"
        )

    def advance_clock(self, to_cycles: float) -> None:
        """Advance the dispatcher clock (never backwards)."""
        if to_cycles > self.now_cycles:
            self.now_cycles = to_cycles

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    @property
    def makespan_cycles(self) -> float:
        """When the cluster finishes all work charged so far — the
        dispatcher clock or the busiest worker, whichever is later."""
        return max(
            [self.now_cycles]
            + [slot.busy_until for slot in self._slots.values()]
        )

    @property
    def cache(self) -> _ClusterCacheView:
        return _ClusterCacheView(self)

    def latency_quantile(self, q: float) -> float:
        """Exact nearest-rank quantile of completed-request latency."""
        if not self._latencies:
            return 0.0
        ordered = sorted(self._latencies)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def worker_metrics(self) -> Dict[str, Dict[str, float]]:
        """Per-worker ``serve.*`` registry snapshots, by slot name."""
        return {
            name: self._call(name, ("metrics",))
            for name in sorted(self._slots)
        }

    def _worker_counter_sum(self, name: str) -> float:
        return sum(
            snapshot.get(name, 0.0)
            for snapshot in self.worker_metrics().values()
        )

    def metrics_snapshot(self) -> Dict[str, float]:
        """One flattened ``obs.*`` view of the whole cluster.

        Worker ``serve.*`` registries are combined with
        :func:`repro.observe.aggregate_metrics` (sums for counters,
        min/max/mean rules for histogram keys); the cache hit rate is
        recomputed exactly from the summed hit/miss counters; the
        dispatcher's own ``cluster.*`` family rides along with its
        latency gauges flushed.
        """
        snapshots = self.worker_metrics()
        aggregated = aggregate_metrics(snapshots.values())
        hits = aggregated.get("serve.cache_hits", 0.0)
        misses = aggregated.get("serve.cache_misses", 0.0)
        total = hits + misses
        aggregated["serve.cache_hit_rate"] = hits / total if total else 0.0

        metrics = self.metrics
        metrics.set("cluster.queue_pending", float(len(self.batcher)))
        metrics.set("cluster.latency_p50_cycles", self.latency_quantile(0.50))
        metrics.set("cluster.latency_p95_cycles", self.latency_quantile(0.95))
        metrics.set("cluster.makespan_cycles", self.makespan_cycles)

        out = {f"obs.{key}": value for key, value in aggregated.items()}
        out.update(metrics.as_dict(prefix="obs."))
        return dict(sorted(out.items()))
