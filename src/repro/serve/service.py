"""The serving core: admission, batching, caching, warm engine.

Two services share everything here.  :class:`DispatcherCore` is the
request path both of them run::

    submit() -> admission (bounded queue, shed when full; version and
                query validated, deadline fixed)
             -> Batcher (coalesce identical queries)
    dispatch_next() -> deadline check at the batch's start instant
                       (shed expired requests)
                    -> WorkerCore.answer: ResultCache hit, or a
                       QueryEngine run (warm-start when sound, cold
                       otherwise)

:class:`WorkerCore` is the only code that answers a :class:`QueryKey`
and counts the ``serve.*`` cache, warm, cold, fallback and inheritance
outcomes.  :class:`GraphService` is the core plus one inline worker
sharing its store and registry; the cluster
(:class:`repro.serve.cluster.ClusterService`) is the core plus routing
across many.  They differ in one policy, the clock: the single service
is synchronous (each answer advances ``now`` by its cycles), the
cluster keeps one ``busy_until`` clock per worker.

Time comes in two currencies.  *Simulated cycles* are authoritative: the
service clock advances by each engine run's simulated makespan (cache
hits cost a small constant), queue latencies and deadlines are accounted
in cycles, and everything cycle-denominated is deterministic — repeat
runs of the same workload produce bit-identical ``obs.serve.*``
counters.  *Wall time* is measured alongside for operator reporting only
and is deliberately kept out of the metric registry so determinism
survives.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .. import algorithms as algorithms_mod
from ..graph.csr import CSRGraph
from ..observe import MetricRegistry
from .batching import Batcher, ResultCache
from .config import ServeConfig, summarize_states
from .engine import EngineRun, QueryEngine, QueryKey, canonical_params
from .store import GraphDelta, GraphStore, GraphVersion
from .warmstart import FALLBACK_NO_BASELINE

#: modeled cycles to answer a request from the result cache (key lookup +
#: response copy; tiny against any engine run on purpose)
CACHE_HIT_CYCLES = 2_000.0

#: request terminal states
STATUS_OK = "ok"
STATUS_SHED_QUEUE = "shed-queue"
STATUS_SHED_DEADLINE = "shed-deadline"

#: the ``serve.*`` counters every worker core pre-creates, so every
#: service (and every cluster worker) reports the same key set and
#: counter diffs line up key-for-key (the ``SchedCounters.flush_policy``
#: discipline)
SERVE_COUNTER_FAMILY = (
    "serve.submitted",
    "serve.admitted",
    "serve.shed_queue",
    "serve.shed_deadline",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.engine_runs",
    "serve.warm_runs",
    "serve.cold_runs",
    "serve.warm_fallbacks",
    "serve.baseline_inherited",
    "serve.warm_updates",
    "serve.cold_updates",
    "serve.updates_applied",
    "serve.edges_added",
    "serve.edges_removed",
    "serve.edges_reweighted",
    "serve.vertices_added",
)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank quantile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def cache_hit_rate(counters: Dict[str, float]) -> float:
    """Share of answered batches served from the result cache, from the
    ``serve.cache_hits`` / ``serve.cache_misses`` counters."""
    hits = counters.get("serve.cache_hits", 0.0)
    total = hits + counters.get("serve.cache_misses", 0.0)
    return hits / total if total else 0.0


def warm_run_share(snapshot: Dict[str, float]) -> float:
    """Share of engine runs that started warm, from an ``obs.*`` snapshot."""
    runs = snapshot.get("obs.serve.engine_runs", 0.0)
    return snapshot.get("obs.serve.warm_runs", 0.0) / runs if runs else 0.0


@dataclass
class ServeRequest:
    """One admitted query waiting for (or holding) its answer."""

    request_id: int
    algorithm: str
    params: dict
    #: version resolved at admission — the snapshot this request reads
    version: int
    deadline_cycles: float
    enqueued_at: float  # simulated cycles


@dataclass
class ServeResponse:
    """Terminal outcome of one request."""

    request_id: int
    status: str
    key: Optional[QueryKey] = None
    cache_hit: bool = False
    warm: bool = False
    #: warm-started from an inherited baseline (see ``serve.engine``)
    inherited: bool = False
    fallback_reason: str = ""
    latency_cycles: float = 0.0
    #: simulated-clock instant the request reached this terminal state
    completed_cycles: float = 0.0
    run: Optional[EngineRun] = None
    #: cluster only: the worker slot that executed the run ("" locally)
    worker: str = ""
    #: cluster only: compact digest of the converged states (the HTTP
    #: response payload; local responses carry the full ``run`` instead)
    summary: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class Answer(NamedTuple):
    """One query answered by a :class:`WorkerCore`."""

    run: EngineRun
    cache_hit: bool
    #: simulated cycles the answer costs: the run's makespan, or
    #: :data:`CACHE_HIT_CYCLES` for a cache hit
    cycles: float

    def outcome(self) -> Dict[str, object]:
        """The :class:`ServeResponse` fields this answer decides."""
        run = self.run
        return {
            "cache_hit": self.cache_hit,
            "warm": run.warm,
            "inherited": run.inherited,
            "fallback_reason": run.fallback_reason,
        }


class WorkerCore:
    """One warm engine, its result cache and its ``serve.*`` counters.

    The core answers queries; admission, batching and the clock belong
    to the dispatcher that owns it.  ``metrics`` lets an owner share its
    own registry (the single service does); a cluster worker keeps a
    private one that the dispatcher aggregates.
    """

    def __init__(
        self,
        config: ServeConfig,
        store: GraphStore,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        self.config = config
        self.store = store
        self.engine = QueryEngine(
            store,
            system=config.system,
            hardware=config.hardware(),
            warm=config.warm,
            max_rounds=config.max_rounds,
            reorder=config.reorder,
            baseline_dir=config.baseline_dir,
            sum_reanchor_every=config.sum_reanchor_every,
            steal_policy=config.steal_policy,
            backend=config.backend,
        )
        self.cache: ResultCache[EngineRun] = ResultCache(config.cache_capacity)
        self.metrics = MetricRegistry() if metrics is None else metrics
        for name in SERVE_COUNTER_FAMILY:
            self.metrics.inc(name, 0.0)

    def answer(self, key: QueryKey) -> Answer:
        """Answer one coalesced batch from the cache or the engine."""
        metrics = self.metrics
        run = self.cache.get(key)
        if run is not None:
            metrics.inc("serve.cache_hits")
            return Answer(run, True, CACHE_HIT_CYCLES)
        metrics.inc("serve.cache_misses")
        run = self.engine.execute(key.algorithm, dict(key.params), key.version)
        self.cache.put(key, run)
        metrics.inc("serve.engine_runs")
        metrics.observe("serve.run_cycles", run.cycles)
        if run.warm:
            metrics.inc("serve.warm_runs")
            metrics.inc("serve.warm_updates", run.updates)
            metrics.observe("serve.warm_seeded", run.seeded)
            if run.inherited:
                # warm-started from a baseline another engine converged
                # (installed or spool-loaded): a fork answering warm
                metrics.inc("serve.baseline_inherited")
        else:
            metrics.inc("serve.cold_runs")
            metrics.inc("serve.cold_updates", run.updates)
            # first-ever runs of a lineage have nothing to warm from; a
            # *fallback* means a baseline existed but warm-starting from
            # it would have been unsound (removal under min/max,
            # untransformable algorithm, ...)
            if run.fallback_reason and run.fallback_reason != FALLBACK_NO_BASELINE:
                metrics.inc("serve.warm_fallbacks")
        return Answer(run, False, run.cycles)

    def execute(
        self, algorithm: str, params: Optional[dict], version: int
    ) -> Dict[str, object]:
        """:meth:`answer` as a picklable reply: the response fields, the
        ``cycles`` to charge and a ``summary`` of the states."""
        answer = self.answer(QueryKey(algorithm, canonical_params(params), version))
        return dict(
            answer.outcome(),
            cycles=float(answer.cycles),
            summary=summarize_states(answer.run.result.states),
        )

    def apply_delta(self, delta: GraphDelta) -> GraphVersion:
        """Apply one delta to the core's store (a replica, for a process
        worker) and publish the new version id."""
        version = self.store.apply(delta)
        self.metrics.set("serve.version", version.version)
        return version

    def compact(self, keep_last: int) -> int:
        return self.store.compact(keep_last)

    def metrics_snapshot(self) -> Dict[str, float]:
        return self.metrics.as_dict()

    def handle(self, command: Tuple) -> object:
        """Execute one transport command tuple."""
        op = command[0]
        if op == "execute":
            return self.execute(command[1], command[2], command[3])
        if op == "update":
            return self.apply_delta(GraphDelta.from_dict(command[1])).version
        if op == "compact":
            return self.compact(command[1])
        if op == "metrics":
            return self.metrics_snapshot()
        raise ValueError(f"unknown worker command {op!r}")


class DispatcherCore:
    """Admission, batching, deadline shedding and the simulated clock.

    Subclasses supply :meth:`_dispatch` (who answers a batch, and when)
    and :meth:`apply_update`.  ``prefix`` names the counter family the
    core writes (``serve`` for the single service, ``cluster`` for the
    dispatcher), so both report admission the same way under their own
    names.
    """

    def __init__(self, store: GraphStore, config: ServeConfig, prefix: str) -> None:
        self.store = store
        self.config = config
        self.prefix = prefix
        self.batcher: Batcher[ServeRequest] = Batcher()
        self.metrics = MetricRegistry()
        #: the dispatcher's simulated clock (see the subclass's policy)
        self.now_cycles = 0.0
        self._next_request_id = 0
        #: every completed latency, kept for the exact quantiles; the
        #: responses themselves go back to the caller and are not kept
        self._latencies: List[float] = []

    # ------------------------------------------------------------------
    # Admission.
    # ------------------------------------------------------------------
    def submit(
        self,
        algorithm: str,
        params: Optional[dict] = None,
        version: Optional[int] = None,
        deadline_cycles: Optional[float] = None,
    ) -> ServeResponse | int:
        """Admit one query (returns its request id) or shed it.

        ``version=None`` resolves to the latest version *at admission* —
        the snapshot-isolation point; updates applied later never bleed
        into an already-admitted request.  A full queue sheds the newest
        arrival (deterministic reject-new backpressure) and returns the
        terminal :class:`ServeResponse` immediately.  An unknown version
        raises ``KeyError`` and an unknown algorithm or bad params raise
        ``ValueError``, before anything is queued.
        """
        metrics = self.metrics
        prefix = self.prefix
        metrics.inc(f"{prefix}.submitted")
        request_id = self._next_request_id
        self._next_request_id += 1
        if len(self.batcher) >= self.config.queue_limit:
            metrics.inc(f"{prefix}.shed_queue")
            return ServeResponse(
                request_id, STATUS_SHED_QUEUE, completed_cycles=self.now_cycles
            )
        resolved = self.store.latest_version if version is None else version
        self.store.get(resolved)  # validate
        params = dict(params or {})
        # a bad algorithm/params must bounce here (HTTP 400), not poison
        # a dispatched batch
        try:
            algorithms_mod.make(algorithm, **params)
        except (KeyError, TypeError) as exc:
            raise ValueError(str(exc)) from None
        deadline = (
            self.config.default_deadline_cycles
            if deadline_cycles is None
            else deadline_cycles
        )
        request = ServeRequest(
            request_id=request_id,
            algorithm=algorithm,
            params=params,
            version=resolved,
            deadline_cycles=deadline,
            enqueued_at=self.now_cycles,
        )
        key = QueryKey(algorithm, canonical_params(params), resolved)
        metrics.inc(f"{prefix}.admitted")
        metrics.observe(f"{prefix}.queue_depth", len(self.batcher) + 1)
        self.batcher.add(key, request)
        return request_id

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
        """Dispatch the single oldest pending batch; ``None`` when empty.

        Event-driven drivers (the traffic harness, the HTTP front door)
        use this instead of :meth:`drain` so they can interleave new
        arrivals and mutations between batches as the clock advances.
        """
        batch = self.batcher.next_batch()
        if batch is None:
            return None
        key, group = batch
        self.metrics.observe(f"{self.prefix}.batch_size", len(group))
        return self._dispatch(key, group)

    def _dispatch(
        self, key: QueryKey, group: List[ServeRequest]
    ) -> List[ServeResponse]:
        raise NotImplementedError

    def _shed_expired(
        self, key: QueryKey, group: List[ServeRequest], start: float, worker: str = ""
    ) -> Tuple[List[ServeRequest], List[ServeResponse]]:
        """Split a batch at the instant it would ``start``: a request that
        waited past its deadline is shed before any engine work is spent
        on it.  Returns ``(live requests, shed responses)``."""
        live: List[ServeRequest] = []
        shed: List[ServeResponse] = []
        for request in group:
            waited = start - request.enqueued_at
            if waited > request.deadline_cycles:
                self.metrics.inc(f"{self.prefix}.shed_deadline")
                shed.append(
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
        return live, shed

    def _answered(
        self,
        key: QueryKey,
        live: List[ServeRequest],
        completion: float,
        **outcome,
    ) -> List[ServeResponse]:
        """The ``ok`` responses of a batch answered at ``completion``."""
        responses = []
        for request in live:
            latency = completion - request.enqueued_at
            self._latencies.append(latency)
            self.metrics.observe(f"{self.prefix}.latency_cycles", latency)
            responses.append(
                ServeResponse(
                    request.request_id,
                    STATUS_OK,
                    key=key,
                    latency_cycles=latency,
                    completed_cycles=completion,
                    **outcome,
                )
            )
        return responses

    def advance_clock(self, to_cycles: float) -> None:
        """Advance the simulated clock to ``to_cycles`` (never backwards).

        Models idle time: an arrival process whose next event lies in the
        future fast-forwards the service to it instead of busy-waiting.
        """
        if to_cycles > self.now_cycles:
            self.now_cycles = to_cycles

    # ------------------------------------------------------------------
    # Updates, compaction, lifetime.
    # ------------------------------------------------------------------
    def compact(self, keep_last: int = 8) -> int:
        """Fold old versions into a new base snapshot (see
        ``GraphStore.compact``); returns the versions pruned."""
        return self.store.compact(keep_last)

    def close(self) -> None:
        """Release whatever the service holds (idempotent)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    @property
    def makespan_cycles(self) -> float:
        """When the service finishes all work charged so far."""
        return self.now_cycles

    def latency_quantile(self, q: float) -> float:
        """Exact quantile (nearest-rank) of completed-request latency, in
        simulated cycles."""
        return nearest_rank(self._latencies, q)

    def _flush_gauges(self) -> None:
        metrics = self.metrics
        prefix = self.prefix
        metrics.set(f"{prefix}.queue_pending", float(len(self.batcher)))
        metrics.set(f"{prefix}.latency_p50_cycles", self.latency_quantile(0.50))
        metrics.set(f"{prefix}.latency_p95_cycles", self.latency_quantile(0.95))


class GraphService(DispatcherCore):
    """Versioned graph serving with batching, caching, and backpressure.

    One inline :class:`WorkerCore` answers every batch, sharing the
    service's store and metric registry.  The clock is synchronous: a
    batch starts at ``now`` and ``now`` advances by the answer's cycles.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: Optional[ServeConfig] = None,
        store: Optional[GraphStore] = None,
    ) -> None:
        super().__init__(store or GraphStore(graph), config or ServeConfig(), "serve")
        self.worker = WorkerCore(self.config, self.store, metrics=self.metrics)
        self.engine = self.worker.engine
        self.metrics.set("serve.version", 0.0)
        #: wall seconds spent answering batches (reporting only)
        self.wall_engine_seconds = 0.0

    def apply_update(self, delta: GraphDelta) -> GraphVersion:
        """Apply one mutation batch; the new version becomes ``latest``.

        Already-admitted requests keep their admission-time snapshot;
        the version advance invalidates the cache for subsequent
        latest-version queries simply because the key changes.
        """
        version = self.worker.apply_delta(delta)
        metrics = self.metrics
        metrics.inc("serve.updates_applied")
        metrics.inc("serve.edges_added", len(delta.add_edges))
        metrics.inc("serve.edges_removed", len(delta.remove_edges))
        metrics.inc("serve.edges_reweighted", len(delta.reweight))
        metrics.inc("serve.vertices_added", delta.add_vertices)
        return version

    def _dispatch(
        self, key: QueryKey, group: List[ServeRequest]
    ) -> List[ServeResponse]:
        live, responses = self._shed_expired(key, group, self.now_cycles)
        if live:
            wall_start = time.perf_counter()
            answer = self.worker.answer(key)
            self.wall_engine_seconds += time.perf_counter() - wall_start
            self.now_cycles += answer.cycles
            responses += self._answered(
                key, live, self.now_cycles, run=answer.run, **answer.outcome()
            )
        return responses

    def metrics_snapshot(self) -> dict:
        """Flattened ``obs.serve.*`` counters (deterministic)."""
        self.metrics.set("serve.cache_hit_rate", cache_hit_rate(self.metrics.as_dict()))
        self._flush_gauges()
        return self.metrics.as_dict(prefix="obs.")
