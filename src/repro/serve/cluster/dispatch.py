"""The cluster dispatcher: routing, per-worker clocks, and fault handling.

:class:`ClusterService` scales the single-process :class:`GraphService`
model across a pool of workers while keeping its defining property —
**determinism on the simulated clock**.  Both are a
:class:`~repro.serve.service.DispatcherCore`, so they share one
admission, batching, deadline-shedding and draining path and one
interface (``submit`` / ``dispatch_next`` / ``drain`` /
``advance_clock`` / ``apply_update`` / ``compact`` /
``metrics_snapshot``); the traffic harness, the stream harness and the
HTTP front door drive either one unchanged.

How the pieces fit:

* **Admission** is the core's: one bounded FIFO :class:`Batcher`
  coalesces identical queries cluster-wide and sheds the *newest*
  arrival when full (reject-new backpressure), counted under
  ``cluster.*``.  Deadlines are checked against the request's projected
  *start* on its worker, so a request that would only begin after its
  deadline is shed before any engine work is spent.
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
  workers map the spool's saved copy of the current store (saved once
  per version in the service's own spool, shared by every process
  worker) and find their lineages' baselines in that spool, so they
  come back *warm*.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ...graph.csr import CSRGraph
from ...observe import aggregate_metrics
from ..config import ServeConfig
from ..engine import ParamsKey, QueryKey, lineage_label
from ..service import DispatcherCore, GraphService, ServeRequest, ServeResponse, cache_hit_rate
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


def make_service(
    graph: CSRGraph,
    config: ServeConfig,
    workers: int = 0,
    transport: str = "inline",
) -> DispatcherCore:
    """The single service for ``workers=0``, else a ``workers``-slot
    cluster — how every harness picks its serving tier."""
    if workers >= 1:
        return ClusterService(graph, config, workers=workers, transport=transport)
    return GraphService(graph, config)


@dataclass
class _Slot:
    """Dispatcher-side state of one worker slot."""

    client: object
    busy_until: float = 0.0


class ClusterService(DispatcherCore):
    """A sharded, fault-tolerant, deterministic serving cluster."""

    # perfbench's layer tracer wraps only the attributes a class defines
    # itself, so the shared entry points are bound here by name too
    submit = DispatcherCore.submit
    dispatch_next = DispatcherCore.dispatch_next

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
        super().__init__(store, config or ServeConfig(), "cluster")
        self.transport = transport
        if spool_dir is not None:
            os.makedirs(spool_dir, exist_ok=True)
        #: this service's own spool (a fresh directory, under
        #: ``spool_dir`` when one is given): its saved stores and its
        #: default baseline spool.  Their names identify a version, not
        #: a graph, so no other service may read them; ``close``
        #: removes the directory.
        self.spool_dir = tempfile.mkdtemp(prefix="repro-cluster-", dir=spool_dir)
        #: (base version, latest version) -> the saved store's directory
        self._saved: Dict[Tuple[int, int], str] = {}
        #: the workers' config: the shared cross-worker baseline spool
        #: gives restarted and forked workers their lineages' warmth
        self._worker_serve = replace(
            self.config,
            baseline_dir=self.config.baseline_dir
            or os.path.join(self.spool_dir, "baselines"),
        )

        names = [f"w{i}" for i in range(workers)]
        self.routing = RoutingTable(names)
        self._slots: Dict[str, _Slot] = {
            name: _Slot(client=self._spawn(name)) for name in names
        }

        for counter in CLUSTER_COUNTER_FAMILY:
            self.metrics.inc(counter, 0.0)
        self.metrics.set("cluster.workers", float(workers))
        self.metrics.set("cluster.version", float(store.latest_version))
        #: lineage -> pinned worker slot (first routing decision wins)
        self._routed: Dict[Tuple[str, ParamsKey], str] = {}

    # ------------------------------------------------------------------
    # Worker lifecycle.
    # ------------------------------------------------------------------
    def _spawn(self, name: str):
        """Build one worker client for slot ``name``."""
        if self.transport == "inline":
            return InlineWorkerClient(
                WorkerConfig(name, self._worker_serve), self.store
            )
        return ProcessWorkerClient(
            WorkerConfig(name, self._worker_serve, self._saved_store())
        )

    def _saved_store(self) -> str:
        """The spool copy every process worker maps, saved once per
        (base version, latest version) and never rewritten, so no
        mapped page changes."""
        store = self.store
        versions = (store.first_version, store.latest_version)
        path = self._saved.get(versions)
        if path is None:
            path = os.path.join(self.spool_dir, "store-v%d-%d" % versions)
            store.save(path)
            self._saved[versions] = path
        return path

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
        slot.client = self._spawn(name)
        self.metrics.inc("cluster.worker_restarts")

    def _call(self, name: str, command: Tuple, label: Optional[str] = None):
        """One command on slot ``name`` with restart-on-death; for a
        batch (its lineage ``label`` given) each retry is a requeue."""
        for _ in range(_MAX_ATTEMPTS):
            try:
                return self._slots[name].client.call(command)
            except WorkerDied:
                self._restart(name)
                if label is not None:
                    self.metrics.inc("cluster.requeued")
                    self.metrics.inc(f"cluster.by_lineage.{label}.requeued")
        raise RuntimeError(
            f"worker slot {name} died {_MAX_ATTEMPTS} times in a row"
        )

    def _broadcast(self, command: Tuple) -> Dict[str, object]:
        """``command`` on every replica worker (those not sharing the
        dispatcher's store); returns the replies by slot."""
        return {
            name: self._call(name, command)
            for name, slot in sorted(self._slots.items())
            if not slot.client.shares_store
        }

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
        """Stop every worker and remove the service's spool (idempotent)."""
        for slot in self._slots.values():
            try:
                slot.client.close()
            except Exception:  # noqa: BLE001 - teardown is best effort
                pass
        shutil.rmtree(self.spool_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Updates / compaction (authoritative store + broadcast).
    # ------------------------------------------------------------------
    def apply_update(self, delta: GraphDelta) -> GraphVersion:
        """Apply one mutation batch and fan it out to replica stores."""
        version = self.store.apply(delta)
        replicas = self._broadcast(("update", delta.to_dict()))
        for name, replica_version in replicas.items():
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
        pruned = super().compact(keep_last)
        if pruned:
            self._broadcast(("compact", keep_last))
            self.metrics.inc("cluster.compactions")
        return pruned

    # ------------------------------------------------------------------
    # Dispatch: route, then charge the batch to its worker's clock.
    # ------------------------------------------------------------------
    def _dispatch(
        self, key: QueryKey, group: List[ServeRequest]
    ) -> List[ServeResponse]:
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

        slot = self._slots[worker]
        start = max(self.now_cycles, slot.busy_until)
        live, responses = self._shed_expired(key, group, start, worker)
        self.now_cycles += DISPATCH_CYCLES
        if live:
            command = ("execute", key.algorithm, dict(key.params), key.version)
            reply = self._call(worker, command, label=label)
            slot.busy_until = start + reply.pop("cycles")
            responses += self._answered(
                key, live, slot.busy_until, worker=worker, **reply
            )
        return responses

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

    def worker_metrics(self) -> Dict[str, Dict[str, float]]:
        """Per-worker ``serve.*`` registry snapshots, by slot name."""
        return {
            name: self._call(name, ("metrics",))
            for name in sorted(self._slots)
        }

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
        aggregated["serve.cache_hit_rate"] = cache_hit_rate(aggregated)

        self._flush_gauges()
        self.metrics.set("cluster.makespan_cycles", self.makespan_cycles)

        out = {f"obs.{key}": value for key, value in aggregated.items()}
        out.update(self.metrics.as_dict(prefix="obs."))
        return dict(sorted(out.items()))
