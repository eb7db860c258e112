"""``repro.serve``: a versioned graph service over the runtime registry.

The serving subsystem closes the loop the ROADMAP north star asks for —
ingesting graph updates and answering queries continuously instead of
one cold batch run per CLI invocation:

* :class:`GraphStore` — append-only chain of versioned CSR snapshots
  built from :mod:`repro.graph.mutation` deltas; snapshot-isolated reads.
* :class:`QueryEngine` — ``(algorithm, version, params)`` execution with
  warm-start incremental recomputation (the paper's Figure 10 delta
  regime): seeded from the previous version's converged states so only
  dependency-affected vertices reconverge.
* :class:`Batcher` / :class:`ResultCache` — single-flight coalescing of
  identical queries plus a version-keyed LRU over completed runs.
* :class:`GraphService` — admission control (bounded queue, deterministic
  reject-new shed, per-request deadlines in simulated cycles), metrics
  under ``obs.serve.*``; it and the cluster share one dispatcher core
  and one worker core (:mod:`repro.serve.service`).
* ``python -m repro serve-bench`` — the seeded replay harness
  (:mod:`repro.serve.bench`).
* ``python -m repro traffic`` — the open/closed-loop traffic generator
  and latency-SLO sweep (:mod:`repro.serve.traffic`), reported under
  ``obs.traffic.*`` and gated in CI by ``benchmarks/gate.py traffic``.
* :class:`ClusterService` / ``python -m repro serve`` — the multi-worker
  serving cluster and its HTTP/JSON front door
  (:mod:`repro.serve.cluster`): lineage-sharded workers (inline or OS
  processes), rendezvous routing, restart + requeue fault handling,
  ``obs.cluster.*`` metrics aggregated across workers.
* :class:`StreamRun` / ``python -m repro stream`` — the streaming
  ingestion driver (:mod:`repro.serve.stream`): seeded edge-event
  streams folded into windowed snapshot publications, standing queries
  kept continuously warm, per-event staleness under ``obs.stream.*``,
  gated in CI by ``benchmarks/gate.py stream``.

See ``docs/SERVING.md`` for the architecture, warm-start soundness
rules, and the counter glossary.
"""

from .batching import Batcher, ResultCache
from .cluster import ClusterHTTPServer, ClusterService, RoutingTable, WorkerDied
from .config import ServeConfig, build_serve_config, compare_states, summarize_states
from .engine import EngineRun, QueryEngine, QueryKey, canonical_params
from .traffic import (
    LevelStats,
    QuerySpec,
    SweepResult,
    TrafficConfig,
    TrafficRun,
    ZipfChooser,
    default_catalog,
    run_level,
    run_sweep,
)
from .service import (
    CACHE_HIT_CYCLES,
    STATUS_OK,
    STATUS_SHED_DEADLINE,
    STATUS_SHED_QUEUE,
    GraphService,
    ServeRequest,
    ServeResponse,
)
from .store import GraphDelta, GraphStore, GraphVersion
from .stream import (
    STREAM_COUNTER_FAMILY,
    RefreshRecord,
    StreamConfig,
    StreamRun,
    StreamStats,
    chain_digest,
    fold_events,
    iter_windows,
    run_stream,
)
from .warmstart import WarmStartAlgorithm, WarmStartPlan, plan_warm_start

__all__ = [
    "Batcher",
    "CACHE_HIT_CYCLES",
    "ClusterHTTPServer",
    "ClusterService",
    "EngineRun",
    "GraphDelta",
    "GraphService",
    "GraphStore",
    "GraphVersion",
    "LevelStats",
    "QueryEngine",
    "QueryKey",
    "QuerySpec",
    "RefreshRecord",
    "ResultCache",
    "RoutingTable",
    "STATUS_OK",
    "STREAM_COUNTER_FAMILY",
    "STATUS_SHED_DEADLINE",
    "STATUS_SHED_QUEUE",
    "ServeConfig",
    "ServeRequest",
    "ServeResponse",
    "StreamConfig",
    "StreamRun",
    "StreamStats",
    "SweepResult",
    "TrafficConfig",
    "TrafficRun",
    "WarmStartAlgorithm",
    "WarmStartPlan",
    "WorkerDied",
    "ZipfChooser",
    "build_serve_config",
    "canonical_params",
    "chain_digest",
    "compare_states",
    "default_catalog",
    "fold_events",
    "iter_windows",
    "plan_warm_start",
    "run_level",
    "run_stream",
    "run_sweep",
    "summarize_states",
]
