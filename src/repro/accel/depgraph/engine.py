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
engine timeline, through the memory hierarchy's one entry point
(:meth:`MemorySystem.access <repro.hardware.hierarchy.MemorySystem.access>`,
bound once per engine).  ``fetch_state`` runs once per edge and issues
the target's state and delta line fetches itself, back to back in one
FIFO slot.

Those two fetches land in the core's own L1 (the engine shares its
core's caches), state line first, and the core's delta read-modify-write
and state read for the same target come next, with no access in
between.  So under an LRU L1 of at least two ways both core accesses
hit, and the runtime declares that once per run
(``SimContext.engines_prefetch_chain_lines``, which asks
``MemorySystem.prefetched_hit_bindings``): the chain edge is then
charged from per-run constants instead of two hierarchy walks.  A
non-LRU or 1-way L1, and "fast" fidelity, keep the walks.  The engine's own fetches always
walk the hierarchy.
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
        #: the FIFO's capacity as a plain int, read on every fetch
        #: (``configure`` refreshes it)
        self._capacity = config.buffer_capacity
        #: ``note_consumed(core_time)``: the core popped one FIFO entry at
        #: ``core_time`` (the window's own append, run once per edge)
        self.note_consumed = self._window.append
        # the "vertex state arrays" of Figure 2 are the recent-state and
        # delta arrays; a state fetch brings in both lines of the target
        self._state_base = layout.states.base
        self._state_stride = layout.states.stride
        self._delta_base = layout.deltas.base
        self._delta_stride = layout.deltas.stride
        self._access = memsys.access
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
        self._capacity = config.buffer_capacity
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

    def fetch(self, addr: int) -> None:
        """HDTL port: one fetch slot for a CSR-array line (offsets, edges
        or weights) on the engine timeline (the engine 'issues the
        instructions to access the data from the L2 cache', Section
        III-B)."""
        window = self._window
        if len(window) >= self._capacity:
            # FIFO full: the engine waits for the core to drain an entry.
            release = window.popleft()
            if release > self.time:
                self.stall_cycles += release - self.time
                self.time = release
        latency = self._access(self.core, addr, False, self.time)
        self.time += ISSUE_CYCLES + latency / ENGINE_MLP
        self.ops += 1
        if self.metrics is not None:
            self.metrics.observe("engine.fetch_latency", latency)

    def fetch_state(self, vertex: int) -> None:
        """HDTL port: one fetch slot for the target's state and delta
        lines, so the core's scatter into them hits privately.  The two
        fetches are issued back to back on the engine timeline, without
        a round trip through :meth:`fetch`: this runs once per edge."""
        window = self._window
        time = self.time
        if len(window) >= self._capacity:
            release = window.popleft()
            if release > time:
                self.stall_cycles += release - time
                time = release
        access = self._access
        core = self.core
        state_latency = access(
            core, self._state_base + self._state_stride * vertex, False, time
        )
        time += ISSUE_CYCLES + state_latency / ENGINE_MLP
        delta_latency = access(
            core, self._delta_base + self._delta_stride * vertex, False, time
        )
        self.time = time + (ISSUE_CYCLES + delta_latency / ENGINE_MLP)
        self.ops += 2
        if self.metrics is not None:
            self.metrics.observe("engine.fetch_latency", state_latency)
            self.metrics.observe("engine.fetch_latency", delta_latency)

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
