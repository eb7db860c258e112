"""Cluster workers: one warm :class:`WorkerCore` per worker slot.

A worker hosts exactly the serving state that must stay *hot* to answer
queries fast — the warm-start baselines of the lineages routed to it,
the per-version :class:`VertexOrdering` cache inside its engine, and a
bounded LRU :class:`ResultCache` — plus its own zero-seeded
``serve.*`` :class:`MetricRegistry`, aggregated cluster-wide by the
dispatcher (see :func:`repro.observe.aggregate_metrics`).  The core
itself lives in :mod:`repro.serve.service`, where the single service
hosts one inline; this module holds the two transports that host it
for the cluster:

* :class:`InlineWorkerClient` runs the core in the dispatcher's own
  process, *sharing* the authoritative :class:`GraphStore` object.
  This is the deterministic default — traffic sweeps and the scaling
  experiment use it, and repeat same-seed runs are bit-identical.
* :class:`ProcessWorkerClient` runs the core in a spawned OS process
  (``multiprocessing`` spawn context — no fork-inherited state, safe
  under threads) with command/reply queues.  The worker maps its
  *replica* store from the dispatcher's saved copy
  (:meth:`GraphStore.save` / :meth:`GraphStore.load` with ``mmap=True``;
  every process worker maps the same directory) and keeps it in sync by
  replaying every broadcast delta; commands and replies are picklable
  primitives only.

Worker death is a first-class event, not an exception path: any call on
a dead process raises :class:`WorkerDied` and the dispatcher restarts
the slot (same name — routing is unchanged) and requeues the batch.  A
replacement worker finds its lineages' baselines in the shared spool
directory (``QueryEngine.baseline_dir``), so it answers *warm* — the
restart costs one process spawn, not a reconvergence.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..config import ServeConfig
from ..service import WorkerCore
from ..store import GraphStore


class WorkerDied(RuntimeError):
    """A worker process (or a fault-injected inline worker) is gone."""


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to build its core — picklable, because
    the spawn transport ships it to the child process as the sole
    constructor argument."""

    name: str
    serve: ServeConfig
    #: saved-store directory a process worker maps its replica from
    #: (``None`` for inline workers, which share the dispatcher's store)
    store_dir: Optional[str] = None


# ----------------------------------------------------------------------
# Transports.
# ----------------------------------------------------------------------
class InlineWorkerClient:
    """In-process worker sharing the dispatcher's :class:`GraphStore`.

    ``shares_store`` tells the dispatcher to skip update/compact
    broadcasts (the shared object is already current).  ``kill`` is the
    fault-injection hook: the next call raises :class:`WorkerDied`, so
    the restart/requeue path is testable without spawning processes.
    """

    shares_store = True

    def __init__(self, config: WorkerConfig, store: GraphStore) -> None:
        self.name = config.name
        self.config = config
        self._core = WorkerCore(config.serve, store)
        self._dead = False

    @property
    def alive(self) -> bool:
        return not self._dead

    def call(self, command: Tuple, timeout: float = 0.0) -> Any:
        if self._dead:
            raise WorkerDied(f"worker {self.name} was killed")
        return self._core.handle(command)

    def kill(self) -> None:
        self._dead = True

    def close(self) -> None:
        self._dead = True


def _worker_main(config: WorkerConfig, commands, replies) -> None:
    """Spawned-process entry point: build the core, answer commands.

    Top-level (not a closure/lambda) so the spawn context can pickle it;
    every reply is ``("ok", payload)`` or ``("error", repr)`` so a
    worker-side exception surfaces at the dispatcher instead of hanging
    the reply queue.
    """
    core = WorkerCore(config.serve, GraphStore.load(config.store_dir, mmap=True))
    replies.put(("ready", config.name))
    while True:
        command = commands.get()
        if command[0] == "stop":
            break
        try:
            replies.put(("ok", core.handle(command)))
        except Exception as exc:  # noqa: BLE001 - forwarded to dispatcher
            replies.put(("error", repr(exc)))


class ProcessWorkerClient:
    """A worker in its own spawned OS process, driven over two queues."""

    shares_store = False

    #: seconds to wait for the child's ready handshake / one reply
    SPAWN_TIMEOUT = 120.0
    CALL_TIMEOUT = 600.0

    def __init__(self, config: WorkerConfig) -> None:
        if config.store_dir is None:
            raise ValueError("process workers need a persisted store_dir")
        self.name = config.name
        self.config = config
        context = multiprocessing.get_context("spawn")
        self._commands = context.Queue()
        self._replies = context.Queue()
        self._process = context.Process(
            target=_worker_main,
            args=(config, self._commands, self._replies),
            name=f"repro-worker-{config.name}",
            daemon=True,
        )
        self._process.start()
        status, _ = self._receive(self.SPAWN_TIMEOUT)
        if status != "ready":
            raise WorkerDied(f"worker {self.name} failed to start")

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    def call(self, command: Tuple, timeout: float = 0.0) -> Any:
        if not self._process.is_alive():
            raise WorkerDied(f"worker {self.name} process is dead")
        self._commands.put(command)
        status, payload = self._receive(timeout or self.CALL_TIMEOUT)
        if status == "error":
            raise RuntimeError(f"worker {self.name}: {payload}")
        return payload

    def _receive(self, timeout: float) -> Tuple[str, Any]:
        """Poll the reply queue, noticing death instead of hanging."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self._replies.get(timeout=0.2)
            except queue_mod.Empty:
                if not self._process.is_alive():
                    raise WorkerDied(
                        f"worker {self.name} died mid-call "
                        f"(exitcode {self._process.exitcode})"
                    ) from None
                if time.monotonic() > deadline:
                    raise WorkerDied(
                        f"worker {self.name} timed out after {timeout}s"
                    ) from None

    def kill(self) -> None:
        """Fault injection / hard teardown: SIGKILL the process."""
        if self._process.is_alive():
            self._process.kill()
        self._process.join(timeout=10)

    def close(self) -> None:
        if self._process.is_alive():
            try:
                self._commands.put(("stop",))
                self._process.join(timeout=5)
            except (ValueError, OSError):
                pass
        self.kill()
