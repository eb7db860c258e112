"""The query engine: ``(algorithm, version, params) -> converged states``.

One :class:`QueryEngine` owns the bridge between the version chain and
the runtime registry.  Every execution goes through
:func:`repro.runtime.run` on the queried version's snapshot; what the
engine adds is *warm-start bookkeeping*: it remembers the last converged
states per ``(algorithm, params)`` lineage and, when the same query
arrives for a later version, seeds the run through
:mod:`repro.serve.warmstart` so only dependency-affected vertices
reconverge — the paper's Figure 10 delta regime, measured here as
``EngineRun.result.total_updates`` (warm runs should report far fewer
than cold ones for small deltas).

Baselines are also *transferable*: :meth:`QueryEngine.install_baseline`
seeds a lineage from converged states computed elsewhere (a parent
engine, a worker that previously owned the lineage, a persisted spool),
and ``baseline_dir`` turns that into automatic **cross-lineage baseline
inheritance** — after every converged run the engine checkpoints the
lineage's states to the directory, and an engine that has never run the
lineage (a forked service, a restarted cluster worker) picks the
checkpoint up on first query and answers *warm* instead of cold.  The
existing warm-start soundness rules apply unchanged: an inherited
baseline is just a ``(version, states)`` pair, and
:func:`repro.serve.warmstart.plan_warm_start` decides per delta chain
whether seeding from it is sound.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .. import algorithms as algorithms_mod
from ..algorithms.detect import AccumKind, detect_accum_kind
from ..graph.csr import CSRGraph
from ..graph.reorder import VertexOrdering, make_ordering
from ..hardware.config import HardwareConfig
from ..runtime import run as run_system
from ..runtime.stats import ExecutionResult
from .store import GraphStore
from .warmstart import (
    FALLBACK_COMPACTED,
    FALLBACK_NO_BASELINE,
    FALLBACK_OK,
    FALLBACK_REANCHOR,
    plan_warm_start,
)

#: params are canonicalised to a sorted item tuple so dict ordering never
#: splits cache/batch keys
ParamsKey = Tuple[Tuple[str, object], ...]


def canonical_params(params: Optional[dict]) -> ParamsKey:
    """A hashable, order-insensitive form of an algorithm kwargs dict."""
    if not params:
        return ()
    return tuple(sorted(params.items()))


def lineage_label(algorithm: str, params: ParamsKey) -> str:
    """The human-readable identity of one query lineage (no version)."""
    inner = ",".join(f"{k}={v}" for k, v in params)
    return f"{algorithm}({inner})"


def lineage_digest(algorithm: str, params: ParamsKey) -> str:
    """A stable filesystem-safe digest of a lineage identity."""
    label = lineage_label(algorithm, params)
    return hashlib.sha1(label.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class QueryKey:
    """Identity of one answerable query — the cache/batch coalescing key."""

    algorithm: str
    params: ParamsKey
    version: int

    def label(self) -> str:
        return f"{lineage_label(self.algorithm, self.params)}@v{self.version}"

    def lineage(self) -> Tuple[str, ParamsKey]:
        return (self.algorithm, self.params)


@dataclass
class _Baseline:
    """One retained converged baseline for a query lineage."""

    version: int
    states: np.ndarray
    #: True when the states came from another engine (install/spool), and
    #: have not yet been replaced by this engine's own converged run
    inherited: bool = False


@dataclass
class EngineRun:
    """One engine execution and how it was started."""

    key: QueryKey
    result: ExecutionResult
    warm: bool
    #: why a warm start was not used ("" when it was)
    fallback_reason: str
    #: vertices the warm seed activated (0 for cold runs)
    seeded: int
    #: True when the warm seed came from an inherited baseline (installed
    #: from a parent engine or loaded from the baseline spool)
    inherited: bool = False

    @property
    def updates(self) -> int:
        return self.result.total_updates

    @property
    def cycles(self) -> float:
        return self.result.cycles


class QueryEngine:
    """Executes queries against store snapshots through the registry.

    ``warm=True`` (the default) enables incremental recomputation: after
    a converged run the final states are retained per
    ``(algorithm, params)`` and used to seed the next run of the same
    query lineage at a newer version.  Retention is deliberately
    last-write-wins per lineage — the store keeps every snapshot, the
    engine only needs one baseline to move forward from.

    ``baseline_dir`` (optional) is the cross-engine inheritance spool:
    converged baselines are checkpointed there after every run, and a
    lineage with no in-memory baseline checks the spool before running
    cold (see :meth:`install_baseline`).
    """

    def __init__(
        self,
        store: GraphStore,
        system: str = "depgraph-h",
        hardware: Optional[HardwareConfig] = None,
        warm: bool = True,
        max_rounds: int = 4000,
        reorder: str = "identity",
        baseline_dir: Optional[str] = None,
        sum_reanchor_every: int = 6,
        **run_options,
    ) -> None:
        self.store = store
        self.system = system
        self.hardware = hardware or HardwareConfig.scaled(num_cores=8)
        self.warm = warm
        self.max_rounds = max_rounds
        self.reorder = reorder
        self.baseline_dir = baseline_dir
        self.sum_reanchor_every = sum_reanchor_every
        self.run_options = dict(run_options)
        #: (algorithm, params) -> retained converged baseline
        self._baselines: Dict[Tuple[str, ParamsKey], _Baseline] = {}
        #: (algorithm, params) -> consecutive warm runs since the last
        #: cold one; drives the sum-type drift re-anchor (see ``execute``)
        self._warm_streaks: Dict[Tuple[str, ParamsKey], int] = {}
        #: version -> resolved ordering; orderings are a function of the
        #: snapshot topology, so every query lineage on a version shares one
        self._orderings: Dict[int, VertexOrdering] = {}
        self.runs = 0

    def _ordering_for(self, version: int, graph: CSRGraph) -> VertexOrdering:
        """The version's cached :class:`VertexOrdering` (built on demand)."""
        ordering = self._orderings.get(version)
        if ordering is None:
            ordering = make_ordering(
                self.reorder, graph, num_parts=self.hardware.num_cores
            )
            self._orderings[version] = ordering
        return ordering

    # ------------------------------------------------------------------
    def execute(
        self,
        algorithm: str,
        params: Optional[dict] = None,
        version: Optional[int] = None,
        force_cold: bool = False,
    ) -> EngineRun:
        """Run one query; warm-starts when sound, falls back cold."""
        resolved = self.store.latest_version if version is None else version
        key = QueryKey(algorithm, canonical_params(params), resolved)
        snapshot = self.store.get(resolved)
        algo = algorithms_mod.make(algorithm, **dict(key.params))

        warm = False
        inherited = False
        seeded = 0
        reason = FALLBACK_NO_BASELINE
        run_algo = algo
        if self.warm and not force_cold:
            baseline = self._baseline_for(key.lineage())
            if baseline is not None and baseline.version <= resolved:
                plan = None
                if (
                    self.sum_reanchor_every > 0
                    and detect_accum_kind(algo) is AccumKind.SUM
                    and self._warm_streaks.get(key.lineage(), 0)
                    >= self.sum_reanchor_every
                ):
                    # A sum-type warm run converges to within the
                    # algorithm's epsilon of the fixpoint *starting from
                    # the previous warm result*, so residual error
                    # compounds along an unbroken warm chain (min/max
                    # runs snap to exact values and never drift).  Every
                    # ``sum_reanchor_every`` consecutive warm runs the
                    # lineage re-anchors cold, bounding accumulated
                    # drift well inside ``SUM_STATE_TOLERANCE``.
                    reason = FALLBACK_REANCHOR
                else:
                    try:
                        plan, reason = plan_warm_start(
                            algo,
                            self.store.get(baseline.version).graph,
                            snapshot.graph,
                            self.store.chain(baseline.version, resolved),
                            baseline.states,
                        )
                    except KeyError:
                        # the baseline predates the store's compaction
                        # horizon: the delta chain needed to seed from it is
                        # gone, so run cold and let the converged result
                        # replace the baseline
                        reason = FALLBACK_COMPACTED
                        self._baselines.pop(key.lineage(), None)
                if plan is not None:
                    run_algo = plan.make_algorithm(algo)
                    warm = True
                    inherited = baseline.inherited
                    seeded = plan.seeded
                    reason = FALLBACK_OK

        options = dict(self.run_options)
        if self.reorder != "identity":
            # Warm-start baselines live in original vertex ids (results are
            # always restored to them), so reordering composes with seeding:
            # the ReorderedAlgorithm wrapper translates on the way in.
            options["reorder"] = self._ordering_for(resolved, snapshot.graph)
        result = run_system(
            self.system,
            snapshot.graph,
            run_algo,
            self.hardware,
            max_rounds=self.max_rounds,
            **options,
        )
        self.runs += 1
        self._warm_streaks[key.lineage()] = (
            self._warm_streaks.get(key.lineage(), 0) + 1 if warm else 0
        )
        if result.converged:
            states = np.asarray(result.states, dtype=np.float64)
            states.setflags(write=False)
            self._baselines[key.lineage()] = _Baseline(resolved, states)
            if self.baseline_dir is not None:
                self._spool_write(key.algorithm, key.params, resolved, states)
        return EngineRun(
            key=key,
            result=result,
            warm=warm,
            fallback_reason="" if warm else reason,
            seeded=seeded,
            inherited=warm and inherited,
        )

    # ------------------------------------------------------------------
    # Baseline inheritance.
    # ------------------------------------------------------------------
    def _baseline_for(
        self, lineage: Tuple[str, ParamsKey]
    ) -> Optional[_Baseline]:
        """The lineage's baseline, consulting the spool on a memory miss."""
        baseline = self._baselines.get(lineage)
        if baseline is None and self.baseline_dir is not None:
            baseline = self._spool_read(*lineage)
            if baseline is not None:
                self._baselines[lineage] = baseline
        return baseline

    def install_baseline(
        self,
        algorithm: str,
        params: Optional[dict],
        version: int,
        states,
        inherited: bool = True,
    ) -> None:
        """Seed a lineage with converged states computed elsewhere.

        The baseline participates in warm-start planning exactly like one
        this engine converged itself; the soundness rules in
        :mod:`repro.serve.warmstart` still decide, per delta chain,
        whether seeding from it is sound.  Runs warm-started from an
        installed baseline report ``EngineRun.inherited = True`` until
        the engine's own converged run replaces it.
        """
        array = np.asarray(states, dtype=np.float64).copy()
        array.setflags(write=False)
        self._baselines[(algorithm, canonical_params(params))] = _Baseline(
            int(version), array, inherited=inherited
        )

    def export_baselines(self) -> Iterator[Tuple[str, ParamsKey, int, np.ndarray]]:
        """Yield every retained baseline as ``(algorithm, params, version,
        states)`` — the transfer format :meth:`install_baseline` accepts."""
        for (algorithm, params), baseline in sorted(self._baselines.items()):
            yield algorithm, params, baseline.version, baseline.states

    def inherit_from(self, parent: "QueryEngine") -> int:
        """Install every baseline of ``parent`` (fork inheritance)."""
        count = 0
        for algorithm, params, version, states in parent.export_baselines():
            self.install_baseline(
                algorithm, dict(params), version, states, inherited=True
            )
            count += 1
        return count

    # -- the on-disk spool ---------------------------------------------
    # Layout: one self-describing pair per lineage under baseline_dir —
    # ``<digest>.npz`` (the states) and ``<digest>.json`` (algorithm,
    # params, version), the JSON published atomically last so a reader
    # never sees a half-written baseline.  Lineage affinity (cluster
    # routing) means at most one writer per lineage, so no shared
    # manifest is needed and concurrent workers never collide.
    def _spool_write(
        self,
        algorithm: str,
        params: ParamsKey,
        version: int,
        states: np.ndarray,
    ) -> None:
        target = self.baseline_dir
        os.makedirs(target, exist_ok=True)
        digest = lineage_digest(algorithm, params)
        states_path = os.path.join(target, f"{digest}.npz")
        np.savez_compressed(states_path, states=np.asarray(states))
        meta_path = os.path.join(target, f"{digest}.json")
        tmp_path = meta_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "algorithm": algorithm,
                    "params": [list(pair) for pair in params],
                    "version": int(version),
                    "states": f"{digest}.npz",
                },
                handle,
            )
            handle.write("\n")
        os.replace(tmp_path, meta_path)

    def _spool_read(
        self, algorithm: str, params: ParamsKey
    ) -> Optional[_Baseline]:
        digest = lineage_digest(algorithm, params)
        meta = self._read_meta(os.path.join(self.baseline_dir, f"{digest}.json"))
        if meta is None:
            return None
        meta_algorithm, meta_params, version, states_file = meta
        if meta_algorithm != algorithm or meta_params != params:
            return None  # digest collision or stale spool: ignore
        states_path = os.path.join(self.baseline_dir, states_file)
        if not os.path.exists(states_path):
            return None
        with np.load(states_path) as data:
            states = np.asarray(data["states"], dtype=np.float64)
        states.setflags(write=False)
        return _Baseline(version, states, inherited=True)

    @staticmethod
    def _read_meta(path: str):
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            params = tuple(
                (str(k), v) for k, v in (tuple(p) for p in meta["params"])
            )
            return meta["algorithm"], params, int(meta["version"]), meta["states"]
        except (ValueError, KeyError, OSError):
            return None  # unreadable spool entry: treat as absent

    # ------------------------------------------------------------------
    def baseline_version(
        self, algorithm: str, params: Optional[dict] = None
    ) -> Optional[int]:
        """Version of the retained converged baseline for a lineage."""
        entry = self._baselines.get((algorithm, canonical_params(params)))
        return None if entry is None else entry.version

    def drop_baselines(self) -> None:
        """Forget all warm-start baselines (every next run starts cold)."""
        self._baselines.clear()
