"""The per-core DepGraph engine (Figure 6/7).

One engine couples with each core: it owns the local circular queue, the
HDTL walker, the FIFO edge buffer window, and a handle to the shared DDMU /
hub index.  The engine has its *own timeline*: memory fetches issued by HDTL
advance ``engine.time`` while the core's cycles advance separately, and the
core only stalls when it tries to consume an edge the engine has not
finished fetching (or when the bounded FIFO forces the engine to wait for
the core).  That producer-consumer overlap is precisely the hardware's
benefit over DepGraph-S, where the same walk runs on the core's own
timeline with software bookkeeping costs.

``DEP_configure`` / ``DEP_fetch_edge`` — the paper's two low-level APIs —
map to :meth:`configure` and the runtime's edge handler, which HDTL calls
once per fetched edge.  The engine is its walker's fetch port:
:meth:`fetch` and :meth:`fetch_state` put HDTL's line fetches on the
engine timeline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from ...graph.csr import CSRGraph
from ...graph.partition import Partition
from ...hardware.hierarchy import MemorySystem
from ...hardware.layout import MemoryLayout
from .edge_buffer import DEFAULT_CAPACITY
from .hdtl import HDTL, CSRViews
from .queue import LocalCircularQueue


@dataclass
class EngineConfig:
    """The DEP_configure() payload (Section III-B2 'Initialization')."""

    partition: Partition
    stack_depth: int = 10
    buffer_capacity: int = DEFAULT_CAPACITY


#: cycles of engine occupancy to issue one fetch (pipeline slot)
ISSUE_CYCLES = 2
#: memory-level parallelism of the engine's fetch pipeline: the four HDTL
#: stages keep several line fetches outstanding, so per-fetch occupancy is
#: latency / MLP rather than the full round-trip
ENGINE_MLP = 4


class DepGraphEngine:
    """One core's engine: timeline, queue, HDTL, and fetch accounting."""

    def __init__(
        self,
        core: int,
        graph: CSRGraph,
        memsys: MemorySystem,
        layout: MemoryLayout,
        hub_membership: Callable[[int], bool],
        config: EngineConfig,
        csr: Optional[CSRViews] = None,
    ) -> None:
        self.core = core
        self.graph = graph
        self.memsys = memsys
        self.layout = layout
        self.config = config
        self.queue = LocalCircularQueue(core)
        self.time = 0.0
        self.ops = 0
        self.stall_cycles = 0.0
        #: optional MetricRegistry attached by the runtime when observing
        self.metrics = None
        self._window: Deque[float] = deque()
        # the "vertex state arrays" of Figure 2 are the recent-state and
        # delta arrays; a state fetch brings in both lines of the target
        self._state_base = layout.states.base
        self._state_stride = layout.states.stride
        self._delta_base = layout.deltas.base
        self._delta_stride = layout.deltas.stride
        self.hdtl = HDTL(
            graph,
            hub_membership,
            stack_depth=config.stack_depth,
            port=self,
            layout=layout,
            line_bytes=memsys.config.line_bytes,
            csr=csr,
        )

    # ------------------------------------------------------------------
    def configure(self, config: EngineConfig) -> None:
        """DEP_configure(): convey array bases/sizes, partition bounds, the
        H'' bitmap, and the circular-queue location.  The model re-points
        the walker; the memory-mapped register writes cost a handful of
        engine cycles."""
        self.config = config
        self.hdtl.stack_depth = config.stack_depth
        self.time += 8  # register-write cost
        self.ops += 1

    # ------------------------------------------------------------------
    # Timeline plumbing.
    # ------------------------------------------------------------------
    def sync_to(self, core_time: float) -> None:
        """The engine starts a root no earlier than the core popped it."""
        if core_time > self.time:
            self.time = core_time

    def fetch(self, *addrs: int) -> None:
        """HDTL port: one fetch slot for ``addrs`` — a CSR-array line
        (offsets, edges or weights), or a target's state lines — on the
        engine timeline (the engine 'issues the instructions to access
        the data from the L2 cache', Section III-B)."""
        if len(self._window) >= self.config.buffer_capacity:
            # FIFO full: the engine waits for the core to drain an entry.
            release = self._window.popleft()
            if release > self.time:
                self.stall_cycles += release - self.time
                self.time = release
        access = self.memsys.access
        core = self.core
        metrics = self.metrics
        for addr in addrs:
            latency = access(core, addr, False, self.time)
            self.time += ISSUE_CYCLES + latency / ENGINE_MLP
            self.ops += 1
            if metrics is not None:
                metrics.observe("engine.fetch_latency", latency)

    def fetch_state(self, vertex: int) -> None:
        """HDTL port: the target's state and delta lines, so the core's
        scatter into them hits privately."""
        self.fetch(
            self._state_base + self._state_stride * vertex,
            self._delta_base + self._delta_stride * vertex,
        )

    def note_consumed(self, core_time: float) -> None:
        """The core popped one FIFO entry at ``core_time``."""
        self._window.append(core_time)

    # ------------------------------------------------------------------
    # Hub-index access timing (DDMU-issued memory traffic).
    # ------------------------------------------------------------------
    def charge_hub_probe(self, root: int, entry_count: int) -> None:
        """Hash-table probe plus reading ``entry_count`` index entries."""
        layout = self.layout
        self.time += self.memsys.access(self.core, layout.hub_hash_addr(root))
        for i in range(entry_count):
            self.time += self.memsys.access(
                self.core, layout.hub_index_addr((root * 7 + i))
            )
        self.ops += 1 + entry_count

    def charge_hub_insert(self) -> None:
        """Writing one new hub-index entry through the L2 (Section III-B)."""
        self.time += self.memsys.access(
            self.core, self.layout.hub_index_addr(len(self._window) + self.ops), write=True
        )
        self.ops += 2  # solve + store

    def stats_dict(self) -> dict:
        """Counter snapshot for the observability layer (metrics.json)."""
        out = {
            "ops": self.ops,
            "stall_cycles": self.stall_cycles,
            "time": self.time,
        }
        for kind, count in self.hdtl.fetch_counts().items():
            out[f"fetch_{kind}"] = count
        return out

    def charge_queue_op(self, write: bool = False) -> None:
        self.time += self.memsys.access(
            self.core, self.layout.queues.addr(self.core % self.layout.queues.length), write
        )
        self.ops += 1
