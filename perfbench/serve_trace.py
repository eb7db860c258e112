"""Traced-run extras for the serving workloads.

``ServiceHooks`` runs inside the server process.  It installs the layer
wrappers, adds the HTTP front door as a layer of its own, and records
how long each admitted request waited before ``dispatch_next`` picked
it up.  The front door runs on an asyncio event loop, so its layer is
every callback that loop runs (``asyncio.Handle._run``): request
parsing, routing, JSON encoding and the hand-offs to and from the
service's dispatch thread.  ``client_counters`` runs in the benchmark
process and turns the ``/metrics`` deltas and the queue waits into the
serve layers' per-layer counters.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List

from layers import LayerTracer
from repro.serve.cluster.dispatch import ClusterService


class ServiceHooks:
    def __init__(self) -> None:
        self.tracer = LayerTracer()
        self.submitted: Dict[int, float] = {}
        self.waits: List[float] = []
        self._originals = {}

    def install(self) -> None:
        self.tracer.install()
        # the loop's callbacks run beside the dispatch thread, so their wall
        # time would include waits for the interpreter lock that thread
        # holds, counted again in its own layers: time them in CPU time
        self.tracer.patch("http", asyncio.Handle, ("_run",), time.thread_time_ns)
        submitted, waits = self.submitted, self.waits
        submit = vars(ClusterService)["submit"]
        dispatch_next = vars(ClusterService)["dispatch_next"]
        self._originals = {"submit": submit, "dispatch_next": dispatch_next}

        def timed_submit(service, *args, **kwargs):
            out = submit(service, *args, **kwargs)
            if isinstance(out, int):
                submitted[out] = time.perf_counter()
            return out

        def timed_dispatch_next(service, *args, **kwargs):
            start = time.perf_counter()
            out = dispatch_next(service, *args, **kwargs)
            for response in out or ():
                queued = submitted.pop(response.request_id, None)
                if queued is not None:
                    waits.append(start - queued)
            return out

        ClusterService.submit = timed_submit
        ClusterService.dispatch_next = timed_dispatch_next

    def uninstall(self) -> None:
        for name, inner in self._originals.items():
            setattr(ClusterService, name, inner)
        self._originals.clear()
        self.tracer.uninstall()

    def reset(self) -> None:
        self.tracer.reset()
        self.submitted.clear()
        self.waits.clear()

    def report(self) -> dict:
        return dict(self.tracer.report(), queue_waits_s=list(self.waits))


def _delta(after: Dict[str, float], before: Dict[str, float], key: str) -> float:
    return after.get(f"obs.{key}", 0.0) - before.get(f"obs.{key}", 0.0)


def client_counters(record, report: dict, before: dict, after: dict) -> None:
    """Fill ``record.counters`` with the serve layers' counters."""
    waits = report["queue_waits_s"]
    counters = record.counters
    counters["serve.queue_wait_ms"] = (
        1e3 * record.calib.factor * sum(waits) / len(waits) if waits else 0.0
    )
    hits = _delta(after, before, "serve.cache_hits")
    misses = _delta(after, before, "serve.cache_misses")
    counters["serve.cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    admitted = _delta(after, before, "cluster.admitted")
    dispatched = _delta(after, before, "cluster.dispatched")
    counters["serve.batched_share"] = 1.0 - dispatched / admitted if admitted else 0.0
    counters["serve.shed"] = _delta(after, before, "cluster.shed_queue") + _delta(
        after, before, "cluster.shed_deadline"
    )
    counters["cluster.worker_restarts"] = _delta(after, before, "cluster.worker_restarts")
    runs = _delta(after, before, "serve.engine_runs")
    warm = _delta(after, before, "serve.warm_runs")
    cold = _delta(after, before, "serve.cold_runs")
    counters["serve.warm_share"] = warm / runs if runs else 0.0
    counters["serve.warm_fallbacks"] = _delta(after, before, "serve.warm_fallbacks")
    warm_updates = _delta(after, before, "serve.warm_updates")
    cold_updates = _delta(after, before, "serve.cold_updates")
    counters["serve.warm_update_ratio"] = (
        (warm_updates / warm) / (cold_updates / cold)
        if warm and cold and cold_updates
        else 0.0
    )
