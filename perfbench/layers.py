"""Outside-in per-layer attribution for the traced run.

The benchmark may not change the program, so layers are measured from
here: the public functions of each layer are replaced by timing
wrappers (class attributes and module globals patched before the
objects that use them are built).  Every wrapper call is a span with a
parent, so a layer's self time is its spans' time minus the time of
the wrapped calls made inside them.

A wrapper also costs time, and that time lands in the *caller's* self
time.  ``wrapper_cost_ns`` is measured on an empty function, and each
layer's self time is reported net of ``calls it made into wrapped
functions x that cost``; the sum of those estimates is reported as the
trace overhead.  Call-heavy callers (the memory hierarchy calling the
caches, the runtime calling algorithm callbacks) are then not
overstated.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Dict, List

import repro
from repro.accel.depgraph.ddmu import DDMU
from repro.accel.depgraph.engine import DepGraphEngine
from repro.accel.depgraph.hdtl import HDTL
from repro.accel.depgraph.hub_index import HubIndex
from repro.accel.depgraph.queue import LocalCircularQueue
from repro.algorithms.base import Algorithm
from repro.hardware.cache import Cache
from repro.hardware.hierarchy import MemorySystem
from repro.runtime import registry
from repro.runtime.context import SimContext
from repro.runtime.execore import ExecutionKernel
from repro.runtime.vector import VectorEngine
from repro.serve import engine as serve_engine
from repro.serve.batching import Batcher, ResultCache
from repro.serve.cluster.dispatch import ClusterService
from repro.serve.cluster.worker import WorkerCore
from repro.serve.store import GraphStore

_ALGORITHM_CALLBACKS = ("edge_compute", "edge_linear", "accum", "apply", "is_significant")
#: calls of an empty function, bare and wrapped, per wrapper-cost trial
_COST_TRIPS = 200_000


def _public(cls) -> List[str]:
    return [
        name
        for name, value in vars(cls).items()
        if callable(value)
        and not isinstance(value, (staticmethod, classmethod, type))
        and not name.startswith("_")
    ]


def layer_table():
    """(layer, owner, attribute names).  Only functions an owner defines
    itself are patched; subclasses reach the wrapper through the MRO."""
    table = [
        ("hardware", MemorySystem, ("access", "access_range", "prefetch")),
        ("hardware", Cache, ("access",)),
        ("accel.hdtl", HDTL, ("traverse",)),
        ("accel.ddmu", DDMU, tuple(_public(DDMU))),
        ("accel.hub_index", HubIndex, tuple(_public(HubIndex))),
        (
            "accel.engine",
            DepGraphEngine,
            tuple(n for n in _public(DepGraphEngine) if n.startswith("charge_")),
        ),
        ("accel.queue", LocalCircularQueue, tuple(_public(LocalCircularQueue))),
        # ``repro.run`` and the serving engine's ``run_system`` are two
        # bindings of ``registry.run``, each patched where it is looked up
        ("runtime.dispatch", repro, ("run",)),
        ("runtime.dispatch", serve_engine, ("run_system",)),
        ("runtime.dispatch", registry, ("run_depgraph", "run_vector")),
        ("runtime.context", SimContext, tuple(_public(SimContext))),
        ("runtime.execore", ExecutionKernel, tuple(_public(ExecutionKernel))),
        ("runtime.kernel_init", ExecutionKernel, ("__init__",)),
        ("vector.setup", VectorEngine, ("__init__",)),
        ("vector.rounds", VectorEngine, ("run",)),
        ("store.apply", GraphStore, ("apply",)),
        ("store.compact", GraphStore, ("compact",)),
        ("engine", serve_engine.QueryEngine, ("execute",)),
        ("warmstart", serve_engine, ("plan_warm_start",)),
        (
            "dispatch",
            ClusterService,
            ("submit", "dispatch_next", "apply_update", "compact"),
        ),
        ("worker", WorkerCore, ("execute", "apply_delta", "compact")),
        ("batching", ResultCache, ("get", "put")),
        ("batching", Batcher, ("add", "next_batch")),
    ]
    for cls in _algorithm_classes():
        names = tuple(n for n in _ALGORITHM_CALLBACKS if n in vars(cls))
        if names:
            table.append(("algorithms", cls, names))
    return table


def _algorithm_classes():
    seen, todo = [], [Algorithm]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


class _ThreadState:
    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: wrapped calls made from inside each layer (their wrapper cost
        #: lands in this layer's self time)
        self.child_calls: Dict[str, int] = defaultdict(int)


class LayerTracer:
    """Patches the layer table and accumulates per-layer self time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list = []
        self.memory_systems: List[MemorySystem] = []
        self.wrapper_cost_ns = 0.0

    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def _wrap(self, fn, layer: str, clock=time.perf_counter_ns):
        perf = clock
        local = self._local
        get_state = self._state

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = get_state()
            stack = state.stack
            frame = [layer, 0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                state.self_ns[layer] += elapsed - frame[1]
                state.calls[layer] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    state.child_calls[parent[0]] += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def patch(self, layer: str, owner, names, clock=time.perf_counter_ns) -> None:
        """Wrap ``owner``'s own attributes ``names`` as spans of ``layer``,
        timed by ``clock`` (wall time unless a caller says otherwise)."""
        for name in names:
            original = vars(owner)[name]
            setattr(owner, name, self._wrap(original, layer, clock))
            self._patched.append((owner, name, original))

    def install(self) -> None:
        self.wrapper_cost_ns = self._measure_wrapper_cost()
        for layer, owner, names in layer_table():
            self.patch(layer, owner, names)
        # keep every memory hierarchy built while tracing: the hit and
        # DRAM shares are read from their own counters afterwards
        init = vars(MemorySystem)["__init__"]
        systems = self.memory_systems

        def tracked_init(mem, *args, **kwargs):
            init(mem, *args, **kwargs)
            systems.append(mem)

        MemorySystem.__init__ = tracked_init
        self._patched.append((MemorySystem, "__init__", init))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def reset(self) -> None:
        with self._lock:
            for state in self._states:
                state.self_ns.clear()
                state.calls.clear()
                state.child_calls.clear()
        self.memory_systems.clear()

    def _measure_wrapper_cost(self) -> float:
        def empty():
            return None

        wrapped = self._wrap(empty, "_calibrate")
        best_bare = best_wrapped = float("inf")
        for _ in range(3):
            start = time.perf_counter_ns()
            for _ in range(_COST_TRIPS):
                empty()
            best_bare = min(best_bare, time.perf_counter_ns() - start)
            start = time.perf_counter_ns()
            for _ in range(_COST_TRIPS):
                wrapped()
            best_wrapped = min(best_wrapped, time.perf_counter_ns() - start)
        self.reset()
        return max(0.0, (best_wrapped - best_bare) / _COST_TRIPS)

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """layer -> {self_ms (net of wrapper cost), calls, overhead_ms}."""
        self_ns: Dict[str, int] = defaultdict(int)
        calls: Dict[str, int] = defaultdict(int)
        child_calls: Dict[str, int] = defaultdict(int)
        with self._lock:
            for state in self._states:
                for key, value in state.self_ns.items():
                    self_ns[key] += value
                for key, value in state.calls.items():
                    calls[key] += value
                for key, value in state.child_calls.items():
                    child_calls[key] += value
        out = {}
        for layer in set(self_ns) | set(child_calls):
            overhead = child_calls[layer] * self.wrapper_cost_ns
            out[layer] = {
                "self_ms": (self_ns[layer] - overhead) / 1e6,
                "overhead_ms": overhead / 1e6,
                "calls": float(calls[layer]),
            }
        return out

    def report(self) -> dict:
        """Layer totals and memory-hierarchy access counts, as JSON data."""
        memory = {"accesses": 0, "l1_hits": 0, "dram": 0}
        for mem in self.memory_systems:
            memory["accesses"] += sum(c.accesses for c in mem.l1)
            memory["l1_hits"] += mem.stats.l1_hits
            memory["dram"] += mem.stats.dram_accesses
        return {"totals": self.totals(), "memory": memory}
