"""The dependency-driven asynchronous runtimes (Section III).

One execution engine covers four published configurations:

* **sequential** — one core, software walk, hub index off: the paper's
  sequential asynchronous DFS baseline whose update count is ``u_s``;
* **DepGraph-S** — all cores, software walk (the core pays traversal and
  hub-index bookkeeping), hub index on;
* **DepGraph-H** — all cores, hardware engines (HDTL fetches on the engine
  timeline, overlapped with core compute; DDMU maintains the hub index);
* **DepGraph-H-w** — DepGraph-H with the hub index disabled (Figure 11's
  ablation).

The graph is divided into several contiguous partitions per core (the
software preprocessing of Section III-B); each partition has a local
circular queue of active roots.  Popping a root applies its pending delta
and walks the dependency chain depth-first *within the partition*, applying
each significantly-updated vertex in chain order (observation one).  Chains
end at partition boundaries (the owning core continues them) and at H''
vertices, whose walked segments become core-paths: the DDMU turns them into
hub-index shortcuts so a later activation of the head immediately
influences the tail — typically on another core, which is where the extra
parallelism comes from (observation two / Figure 5c).  Sum-type algorithms
receive the shortcut influence twice (directly and along the chain) and are
reconciled by the fictitious reset edge (Section III-B2).

Unlike the frontier systems, chain propagation is core-local and explicit,
so scatters commit directly instead of through the staged-visibility
machinery — the locality/synchronisation advantage the paper claims.

Dispatch, steal charging, round accounting, and result assembly come from
:class:`repro.runtime.execore.ExecutionKernel`; the chain-walking policy
here additionally keeps a :class:`repro.runtime.execore.PartWorkIndex` in
lockstep with the circular queues so "which core has work" and "what does
this partition's queue cost" are array reads instead of queue scans (the
seed dispatch loop's top host-time cost at full scale).

The per-edge path binds nothing per call: each core's HDTL handlers and
its ``enqueue(vertex)`` (queue-slot write plus push) are closures built
once per run over lists the run mutates in place.  The edge-op count is
not kept per edge either: the walker fetches exactly one edge per
``on_edge`` call, so the run sums the walkers' ``edges_fetched`` into
``edge_ops`` at its end.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..accel.depgraph.ddmu import DDMU
from ..accel.depgraph.engine import DepGraphEngine, EngineConfig
from ..accel.depgraph.hdtl import HDTL, csr_views
from ..accel.depgraph.hub_index import HubIndex
from ..accel.depgraph.hubs import (
    DEFAULT_BETA,
    DEFAULT_LAMBDA,
    HubSets,
    select_hubs,
)
from ..accel.depgraph.queue import LocalCircularQueue
from ..algorithms.base import Algorithm
from ..graph.csr import CSRGraph
from ..graph.partition import by_edge_count
from ..hardware.config import HardwareConfig
from .execore import STEAL_CYCLES, ExecutionKernel, PartWorkIndex
from .scheduling import (
    REBALANCE_MOVE_CYCLES,
    SchedulingPolicy,
    rebalance_ownership,
)
from .stats import ExecutionResult

DEFAULT_MAX_ROUNDS = 4000

#: cycles for the core to pop one FIFO edge-buffer entry (DEP_FETCH_EDGE)
BUFFER_POP_CYCLES = 2
#: cycles to consume a fictitious reset edge
RESET_EDGE_CYCLES = 2
#: partitions per core (the paper assigns several partitions to each core
#: and balances them by work stealing)
PARTITIONS_PER_CORE = 4

_INF = float("inf")


@dataclass(frozen=True)
class DepGraphOptions:
    """Configuration of the dependency-driven execution."""

    hardware: bool = True
    hub_enabled: bool = True
    lam: float = DEFAULT_LAMBDA
    beta: float = DEFAULT_BETA
    stack_depth: int = 10
    buffer_capacity: int = 24
    ddmu_mode: str = "analytic"  # "analytic" | "learned"
    simd: bool = True
    work_stealing: bool = True
    seed: int = 0


SEQUENTIAL_OPTIONS = DepGraphOptions(
    hardware=False, hub_enabled=False, simd=False, work_stealing=False
)


def vector_profile(options: DepGraphOptions, hardware: HardwareConfig):
    """This family's cost profile under the vector backend.

    Span name stays ``root`` (backend-invariant).  The per-edge overhead
    mirrors the scalar chain walk: hardware traversal pops fictitious
    FIFO entries (:data:`BUFFER_POP_CYCLES`); software traversal pays
    the full per-hop traversal op.
    """
    from .vector import VectorProfile

    edge_overhead = (
        float(BUFFER_POP_CYCLES)
        if options.hardware
        else float(hardware.timing.sw_traverse_op)
    )
    return VectorProfile(
        span="root",
        cat="chain",
        simd=options.simd,
        vertex_overhead=float(hardware.timing.dispatch_op),
        edge_overhead=edge_overhead,
    )


class _CoreFetch:
    """DepGraph-S's fetch port: the core runs HDTL's fetch stages itself,
    so every line is charged on the core's clock.  State fetches read the
    target's state line only."""

    __slots__ = ("_charge_mem", "_core", "_state_base", "_state_stride")

    def __init__(self, ctx, core: int) -> None:
        self._charge_mem = ctx.charge_mem
        self._core = core
        self._state_base = ctx.state_base
        self._state_stride = ctx.state_stride

    def fetch(self, addr: int) -> None:
        self._charge_mem(self._core, addr)

    def fetch_state(self, vertex: int) -> None:
        self._charge_mem(
            self._core, self._state_base + self._state_stride * vertex
        )


class _DepGraphExecution:
    def __init__(
        self,
        graph: CSRGraph,
        algorithm: Algorithm,
        hardware: HardwareConfig,
        options: DepGraphOptions,
        system: str,
        max_rounds: int,
        tracer=None,
        sched: Optional[SchedulingPolicy] = None,
    ) -> None:
        self.options = options
        self.max_rounds = max_rounds
        self.kernel = ExecutionKernel(
            graph, algorithm, hardware, system, options.simd,
            tracer=tracer, sched=sched,
        )
        kernel = self.kernel
        self.ctx = kernel.ctx
        self.sched = kernel.sched
        ctx = self.ctx
        cores = ctx.num_cores
        kernel.declare_span("root")

        # --- software preprocessing: partitions + hub vertices (one pass) --
        if cores == 1:
            part_count = 1
        else:
            part_count = min(
                PARTITIONS_PER_CORE * cores,
                max(cores, ctx.graph.num_vertices // 16 or 1),
            )
        self.partitioning = by_edge_count(ctx.graph, part_count)
        self.part_count = len(self.partitioning)
        self._vertex_part = [
            self.partitioning.owner_of(v)
            for v in range(ctx.graph.num_vertices)
        ]
        #: partition -> owning core (rebalanced by work stealing)
        self.part_owner: List[int] = [
            p % cores for p in range(self.part_count)
        ]
        self.core_parts: List[List[int]] = [[] for _ in range(cores)]
        for p, owner in enumerate(self.part_owner):
            self.core_parts[owner].append(p)
        self.queues: List[LocalCircularQueue] = [
            LocalCircularQueue(p) for p in range(self.part_count)
        ]
        #: incremental per-partition/per-core work accounting, kept in
        #: lockstep with every queue mutation below
        self.windex = PartWorkIndex(kernel.estimator, self.part_owner, cores)
        self.current_part: List[Optional[int]] = [None] * cores

        hubs = (
            select_hubs(ctx.graph, options.lam, options.beta, options.seed)
            if options.hub_enabled
            else set()
        )
        self.hubsets = HubSets(hubs)
        self.hub_index = HubIndex()
        self.ddmu = DDMU(
            ctx.graph, ctx.algorithm, self.hub_index, mode=options.ddmu_mode
        )
        self.hub_active = options.hub_enabled and self.ddmu.enabled
        if self.hub_active and hardware.l3.policy == "grasp":
            # GRASP hot-region hints (Figure 16b): pin the hub index and its
            # hash table, the structures most state propagations traverse.
            ctx.memsys.add_hot_range(
                ctx.layout.hub_index.base, ctx.layout.hub_index.end
            )
            ctx.memsys.add_hot_range(
                ctx.layout.hub_hash.base, ctx.layout.hub_hash.end
            )
        #: which core-path currently claims each intermediate vertex; a
        #: second claim promotes the vertex to core-vertex (Definition 2)
        self.claimed: Dict[int, Tuple[int, int, int]] = {}

        # H'' membership, shared by every walker and chain handler: the
        # set's own C-level __contains__ (promotions mutate it in place)
        membership = self.hubsets.members.__contains__
        # the CSR arrays as memoryviews, shared by every core's walker
        csr = csr_views(ctx.graph)
        if options.hardware:
            self.engines: Optional[List[DepGraphEngine]] = [
                DepGraphEngine(
                    core,
                    ctx.graph,
                    ctx.memsys,
                    ctx.layout,
                    membership,
                    EngineConfig(
                        self.partitioning[self.core_parts[core][0]]
                        if self.core_parts[core]
                        else self.partitioning[0],
                        stack_depth=options.stack_depth,
                        buffer_capacity=options.buffer_capacity,
                    ),
                    csr=csr,
                )
                for core in range(cores)
            ]
            if ctx.tracer.enabled:
                for engine in self.engines:
                    engine.metrics = ctx.metrics
            self.walkers = [engine.hdtl for engine in self.engines]
            # each engine's fetch_state precedes the core's chain edge
            ctx.engines_prefetch_chain_lines()
        else:
            self.engines = None
            self.walkers = [
                HDTL(
                    ctx.graph,
                    membership,
                    stack_depth=options.stack_depth,
                    port=_CoreFetch(ctx, core),
                    layout=ctx.layout,
                    line_bytes=hardware.line_bytes,
                    csr=csr,
                )
                for core in range(cores)
            ]
        #: the applied-vertex set of the current round (cleared, never
        #: rebound: the chain handlers hold it)
        self.visited: Set[int] = set()
        layout = ctx.layout
        self._queue_base = layout.queues.base
        self._queue_stride = layout.queues.stride
        self._queue_slots = layout.queues.length
        #: partition -> the address of its queue slot
        self._queue_slot_addr = [
            self._queue_base + self._queue_stride * (part % self._queue_slots)
            for part in range(self.part_count)
        ]
        #: whether the chain being walked is rooted in H''
        self._root_is_hub = False
        #: per core, ``enqueue(vertex)``: bound once, like the handlers
        self._enqueuers = [self._enqueuer(core) for core in range(cores)]
        self._handlers = [
            self._chain_handlers(
                core, self.engines[core] if self.engines is not None else None
            )
            for core in range(cores)
        ]
        self._expected_resets: Dict[Tuple[int, int, int], float] = {}
        self._learning_entries: Set[Tuple[int, int, int]] = set()
        self._shortcuts_before = 0

    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        ctx = self.ctx
        kernel = self.kernel
        windex = self.windex
        queues = self.queues
        for vertex in ctx.initial_frontier():
            part = self._vertex_part[vertex]
            if queues[part].push_current(vertex):
                windex.pushed_current(part, vertex)
        converged = True
        core_count = windex.core_count
        for round_index in range(self.max_rounds):
            if not any(core_count):
                promoted = sum(q.advance_round() for q in queues)
                windex.advance_round()
                if promoted == 0:
                    break
            start_peak, updates_before = kernel.begin_round(round_index)
            active = sum(core_count)
            self.visited.clear()
            if (
                self.sched.partition_aware
                and self.options.work_stealing
                and ctx.num_cores > 1
            ):
                self._maybe_rebalance()
            self._run_round()
            if self.options.ddmu_mode == "learned":
                self._observe_learning_entries()
            if kernel.end_round(round_index, active, start_peak, updates_before):
                converged = False
                break
        else:
            converged = False
        if self.engines is not None:
            ctx.engine_ops += sum(engine.ops for engine in self.engines)
        # the walker fetches one edge per on_edge call
        ctx.edge_ops += sum(walker.edges_fetched for walker in self.walkers)
        self._flush_metrics()
        result = kernel.finish(converged)
        result.hub_index_entries = len(self.hub_index)
        result.hub_index_bytes = self.hub_index.memory_bytes
        # internal ids here; the registry maps them back to original
        # vertex ids for reordered runs
        result.hub_vertex_ids = np.asarray(
            sorted(self.hubsets.hubs), dtype=np.int64
        )
        result.extra["hub_vertices"] = float(len(self.hubsets.hubs))
        result.extra["core_vertices"] = float(len(self.hubsets.core_vertices))
        result.extra["hub_lookups"] = float(self.hub_index.lookups)
        result.extra["partitions"] = float(self.part_count)
        if self.engines is not None:
            result.extra["engine_stall_cycles"] = float(
                sum(engine.stall_cycles for engine in self.engines)
            )
        return result

    def _flush_metrics(self) -> None:
        """Fold the accelerator-side counters (DDMU, hub index, engines)
        into the context's metric registry before the final flush."""
        metrics = self.ctx.metrics
        for key, value in self.ddmu.stats_dict().items():
            metrics.set(f"ddmu.{key}", float(value))
        for key, value in self.hub_index.stats_dict().items():
            metrics.set(f"hub_index.{key}", float(value))
        metrics.set(
            "depgraph.shortcut_applications",
            float(self.ctx.shortcut_applications),
        )
        if self.engines is not None:
            totals: Dict[str, float] = {}
            for engine in self.engines:
                for key, value in engine.stats_dict().items():
                    totals[key] = totals.get(key, 0.0) + float(value)
            for key, value in totals.items():
                metrics.set(f"engine.{key}", value)

    # ------------------------------------------------------------------
    # Scheduling: cores drain their partitions' queues; idle cores steal
    # whole partitions (the engine is then reconfigured for the new range).
    # The work index keeps per-core entry counts and per-partition queue
    # costs current, so none of this rescans queues.
    # ------------------------------------------------------------------
    def _pick_part(self, core: int) -> Optional[int]:
        counts = self.windex.count_current
        current = self.current_part[core]
        if current is not None and self.part_owner[current] == core:
            if counts[current]:
                return current
        for part in self.core_parts[core]:
            if counts[part]:
                return part
        return None

    def _switch_part(self, core: int, part: int) -> None:
        if self.current_part[core] == part:
            return
        self.current_part[core] = part
        partition = self.partitioning[part]
        self.walkers[core].confine(partition.begin, partition.end)
        if self.engines is not None:
            engine = self.engines[core]
            engine.configure(
                EngineConfig(
                    partition,
                    stack_depth=self.options.stack_depth,
                    buffer_capacity=self.options.buffer_capacity,
                )
            )
        else:
            self.ctx.charge_overhead(core, 8)

    def _maybe_rebalance(self) -> None:
        """Between rounds: re-map partition ownership when the upcoming
        queue costs are skewed (the makespan histogram's p95 tail comes
        from rounds whose hot partitions all start on one core).  The
        barrier has just synchronised every clock, so charging the
        receiving cores is deterministic."""
        windex = self.windex
        new_owner = rebalance_ownership(
            windex.cost_current,
            self.part_owner,
            self.ctx.num_cores,
            self.kernel.ranker,
            self.sched.rebalance_skew,
        )
        if new_owner is None:
            return
        ctx = self.ctx
        moves = 0
        for part, (old, new) in enumerate(zip(self.part_owner, new_owner)):
            if old != new:
                moves += 1
                ctx.charge_overhead(new, REBALANCE_MOVE_CYCLES)
        # mutate in place: the work index shares this list
        self.part_owner[:] = new_owner
        self.core_parts = [[] for _ in range(ctx.num_cores)]
        for part, owner in enumerate(new_owner):
            self.core_parts[owner].append(part)
        windex.reassign(new_owner)
        self.kernel.note_rebalance(moves)

    def _run_round(self) -> None:
        ctx = self.ctx
        kernel = self.kernel
        windex = self.windex
        num_cores = ctx.num_cores
        clock = ctx.clock
        core_count = windex.core_count
        queues = self.queues
        popped = windex.popped
        process_item = kernel.process_item
        root_args = self._root_span_args
        handle = self._handle_root_inner
        work_stealing = self.options.work_stealing
        steal = (
            self._maybe_steal_partition
            if self.sched.partition_aware
            else self._maybe_steal
        )
        cores = range(num_cores)
        by_clock = clock.__getitem__
        while True:
            # dispatch: the min-clock core holding work (min keeps the
            # first of equal clocks, so ties go to the lowest id); fewer
            # working cores than cores opens the steal gate
            working = list(compress(cores, core_count))
            if not working:
                break
            if work_stealing and len(working) < num_cores:
                steal()
                # ownership may have moved: re-derive the dispatch choice
                working = list(compress(cores, core_count))
                if not working:  # pragma: no cover - steals never consume work
                    break
            best = min(working, key=by_clock)
            part = self._pick_part(best)
            if part is None:  # pragma: no cover - defensive
                continue
            self._switch_part(best, part)
            root = queues[part].pop()
            if root is not None:
                popped(part, root)
                process_item("root", "chain", best, root, handle, root_args)

    def _maybe_steal(self) -> None:
        """An idle core claims a pending partition from the busiest core
        (the seed scheduler, preserved as ``steal_policy="random"``)."""
        ctx = self.ctx
        self.kernel.sched_counters.attempt()
        windex = self.windex
        core_count = windex.core_count
        count_current = windex.count_current
        clock = ctx.clock
        busiest = -1
        busiest_load = 0
        for core in range(ctx.num_cores):
            load = core_count[core]
            if load > busiest_load:
                busiest_load = load
                busiest = core
        if busiest < 0:  # pragma: no cover - only called with work present
            return
        busy_parts = [
            p for p in self.core_parts[busiest] if count_current[p]
        ]
        if len(busy_parts) < 2:
            return
        busy_clock = clock[busiest]
        thief = -1
        thief_clock = _INF
        for core in range(ctx.num_cores):
            if not core_count[core] and clock[core] < busy_clock:
                if clock[core] < thief_clock:
                    thief_clock = clock[core]
                    thief = core
        if thief < 0:
            return
        part = busy_parts[-1]
        self._move_partitions(thief, busiest, [part], STEAL_CYCLES)

    def _maybe_steal_partition(self) -> None:
        """Partition-aware chunked steal: the idle core that is furthest
        behind picks a NoC-near victim holding substantial estimated work
        and claims half of its pending partitions — preferring partitions
        whose vertex ranges sit adjacent to the thief's own."""
        ctx = self.ctx
        kernel = self.kernel
        kernel.sched_counters.attempt()
        windex = self.windex
        core_count = windex.core_count
        count_current = windex.count_current
        cost_current = windex.cost_current
        clock = ctx.clock
        num_cores = ctx.num_cores
        thief = -1
        thief_clock = _INF
        for core in range(num_cores):
            if not core_count[core] and clock[core] < thief_clock:
                thief_clock = clock[core]
                thief = core
        if thief < 0:
            return
        loads = [0] * num_cores
        for core in range(num_cores):
            if core_count[core]:
                busy = 0
                cost = 0
                for p in self.core_parts[core]:
                    if count_current[p]:
                        busy += 1
                        cost += cost_current[p]
                if busy >= 2:
                    loads[core] = cost
        victim = kernel.ranker.choose(thief, loads, min_load=1.0)
        if victim is None or clock[thief] >= clock[victim]:
            return
        busy_parts = [
            p for p in self.core_parts[victim] if count_current[p]
        ]
        if len(busy_parts) < 2:
            return
        # partition adjacency: among equally-loaded ranges prefer the ones
        # nearest the thief's own, so the chains the thief continues stay
        # close to data it already owns
        anchors = self.core_parts[thief] or [self.part_count * 2]

        def adjacency(part: int) -> int:
            return min(abs(part - a) for a in anchors)

        ranked = sorted(
            busy_parts, key=lambda p: (-cost_current[p], adjacency(p), p)
        )
        # chunked steal: claim heavy partitions until about half the
        # victim's queued cost has moved, always leaving it at least one
        victim_cost = sum(cost_current[p] for p in busy_parts)
        chosen: List[int] = []
        taken_cost = 0
        for part in ranked[: len(busy_parts) - 1]:
            chosen.append(part)
            taken_cost += cost_current[part]
            if taken_cost * 2 >= victim_cost:
                break
        self._move_partitions(
            thief, victim, chosen, kernel.steal_cost(thief, victim)
        )

    def _move_partitions(
        self, thief: int, victim: int, parts: List[int], cost: float
    ) -> None:
        windex = self.windex
        count_current = windex.count_current
        cost_current = windex.cost_current
        items = 0
        work = 0
        for part in parts:
            self.core_parts[victim].remove(part)
            self.core_parts[thief].append(part)
            windex.move_part(part, thief)
            self.part_owner[part] = thief
            items += count_current[part]
            work += cost_current[part]
        self.ctx.charge_overhead(thief, cost)
        self.kernel.note_steal(
            thief,
            victim,
            items,
            float(work),
            args={"partitions": list(parts), "victim": victim},
        )

    # ------------------------------------------------------------------
    def _root_span_args(self, root: int) -> dict:
        return {
            "vertex": root,
            "shortcuts": self.ctx.shortcut_applications - self._shortcuts_before,
        }

    def _handle_root_inner(self, core: int, root: int) -> None:
        ctx = self.ctx
        timing = ctx.timing
        self._shortcuts_before = ctx.shortcut_applications

        ctx.charge_overhead(core, timing.dispatch_op)
        ctx.charge_mem(
            core, self._queue_base + self._queue_stride * (core % self._queue_slots)
        )
        if root in self.visited:
            if ctx.significant(ctx.pending[root], root):
                part = self._vertex_part[root]
                if self.queues[part].push_next(root):
                    self.windex.pushed_next(part, root)
            return
        ctx.charge_state_entry(core, root)
        delta = ctx.pending[root]
        if not ctx.significant(delta, root):
            return
        ctx.pending[root] = ctx.identity
        value = ctx.apply_vertex(root, delta)
        ctx.charge_state_update(core, root)

        engine = self.engines[core] if self.engines is not None else None
        if engine is not None:
            engine.sync_to(ctx.clock[core])

        self._expected_resets = {}
        if self.hub_active and root in self.hubsets.members:
            self._apply_shortcuts(core, root, value, engine)

        if not (ctx.is_sum and value == 0.0):
            self._walk_chain(core, root)
        # Every applied shortcut is balanced by exactly one fictitious reset
        # edge ("only one copy of f finally affects v15", Section III-B2).
        # Resets for core-paths the walk completed were consumed at their
        # path end; any leftover (the walk pruned the path, or reached the
        # tail via a different core-path) is applied now so the shortcut's
        # influence never double-counts.
        for key, influence in self._expected_resets.items():
            tail = key[1]
            ctx.pending[tail] = ctx.pending[tail] - influence
            ctx.charge_overhead(core, RESET_EDGE_CYCLES)
            ctx.charge_mem(
                core, ctx.delta_base + ctx.delta_stride * tail, True, True
            )
            if ctx.significant(ctx.pending[tail], tail):
                self._enqueue_active(core, tail)
        self._expected_resets = {}

    # ------------------------------------------------------------------
    def _apply_shortcuts(
        self, core: int, root: int, value: float, engine: Optional[DepGraphEngine]
    ) -> None:
        """Faster Propagation Based on Hub Index (Section III-B2)."""
        ctx = self.ctx
        timing = ctx.timing
        layout = ctx.layout
        entries = self.ddmu.shortcuts_for(root)
        count = self.hub_index.head_entry_count(root)
        if engine is not None:
            engine.charge_hub_probe(root, count)
            if engine.time > ctx.clock[core]:
                ctx.charge_overhead(core, engine.time - ctx.clock[core])
        else:
            ctx.charge_mem(core, layout.hub_hash_addr(root))
            for i in range(count):
                ctx.charge_mem(core, layout.hub_index_addr(root * 7 + i))
            ctx.charge_overhead(core, timing.sw_hub_op)
        for entry in entries:
            influence = self.ddmu.shortcut_influence(entry, value)
            tail = entry.tail
            ctx.pending[tail] = ctx.algorithm.accum(ctx.pending[tail], influence)
            ctx.charge_rmw(core, ctx.delta_base + ctx.delta_stride * tail)
            ctx.charge_compute(core, timing.edge_op)
            ctx.shortcut_applications += 1
            if ctx.tracer.enabled:
                ctx.tracer.instant(
                    "shortcut",
                    ctx.clock[core],
                    track=core + 1,
                    cat="hub",
                    args={"head": root, "tail": tail},
                )
            if self.ddmu.needs_reset_edge:
                self._expected_resets[entry.key] = influence
            self._enqueue_active(core, tail)

    def _enqueue_active(self, core: int, vertex: int) -> None:
        """Insert ``vertex`` into its owning partition's circular queue
        (current round when it has not been applied yet, else next round)."""
        self._enqueuers[core](vertex)

    def _enqueuer(self, core: int):
        """The core's ``enqueue(vertex)``: the queue-slot write on the
        core's clock, then the push.  Built once per core, over lists
        the run mutates in place (partition owners, queues, the visited
        set), so the per-edge call binds nothing."""
        ctx = self.ctx
        vertex_part = self._vertex_part
        part_owner = self.part_owner
        queues = self.queues
        slot_addr = self._queue_slot_addr
        core_access = ctx.core_access
        clock = ctx.clock
        mem = ctx.mem
        visited = self.visited
        pending = ctx.pending
        states = ctx.states
        is_significant = ctx.algorithm.is_significant
        pushed_current = self.windex.pushed_current
        pushed_next = self.windex.pushed_next

        def enqueue(vertex: int) -> None:
            part = vertex_part[vertex]
            cycles = core_access(core, slot_addr[part], True, clock[core])
            clock[core] += cycles
            mem[core] += cycles
            queue = queues[part]
            remote = part_owner[part] != core
            if vertex not in visited:
                if queue.push_current(vertex, remote):
                    pushed_current(part, vertex)
            elif is_significant(pending[vertex], states[vertex]):
                if queue.push_next(vertex, remote):
                    pushed_next(part, vertex)

        return enqueue

    # ------------------------------------------------------------------
    def _walk_chain(self, core: int, root: int) -> None:
        self._root_is_hub = self.hub_active and root in self.hubsets.members
        on_edge, on_path_end = self._handlers[core]
        self.walkers[core].traverse(root, self.visited, on_edge, on_path_end)

    def _chain_handlers(self, core: int, engine: Optional[DepGraphEngine]):
        """The core's two HDTL handlers: ``on_edge`` consumes one fetched
        edge (DEP_FETCH_EDGE, scatter, and the descend decision) and
        ``on_path_end`` re-enqueues an ended path's endpoint.  Built once
        per core, so the per-edge call binds nothing."""
        ctx = self.ctx
        algorithm = ctx.algorithm
        graph = ctx.graph
        timing = ctx.timing
        edge_compute = algorithm.edge_compute
        accum = algorithm.accum
        is_significant = algorithm.is_significant
        propval = ctx.propval
        pending = ctx.pending
        states = ctx.states
        identity = ctx.identity
        charge_chain_edge = ctx.charge_chain_edge
        charge_chain_apply = ctx.charge_chain_apply
        apply_vertex = ctx.apply_vertex
        sw_traverse_op = timing.sw_traverse_op
        visited = self.visited
        hubsets = self.hubsets
        hub_members = hubsets.members
        hub_active = self.hub_active
        walker = self.walkers[core]
        enqueue = self._enqueuers[core]
        note_consumed = engine.note_consumed if engine is not None else None
        # a float, like the clocks it adds to (an int costs an
        # unspecialised add per edge; the sums are the same)
        pop_cycles = float(BUFFER_POP_CYCLES)

        def on_edge(source: int, target: int, weight: float, depth: int) -> bool:
            influence = edge_compute(source, propval[source], weight, graph)
            folded = accum(pending[target], influence)
            pending[target] = folded
            # The delta RMW and state read hit the private cache when the
            # engine prefetched the target's lines (fetch_state).
            if engine is None:
                # The core itself ran the four fetch stages (already
                # charged through its fetch port) and pays the full walk;
                # add the software bookkeeping per edge.
                charge_chain_edge(core, target, 0.0, sw_traverse_op)
            else:
                # DEP_FETCH_EDGE: pop the FIFO, stalling if the engine is
                # behind (its last entry is ready at the engine's time).
                note_consumed(
                    charge_chain_edge(core, target, engine.time, pop_cycles)
                )

            if not is_significant(folded, states[target]):
                return False
            if target in visited:
                # Re-activation: the vertex already ran this round.
                enqueue(target)
                return False
            if hub_active and target in hub_members:
                # HDTL ends the path at the hub; the endpoint is
                # enqueued there.
                return True
            if not walker.part_begin <= target < walker.part_end:
                # HDTL ends the path at the boundary; ditto.
                return True
            if depth >= walker.stack_depth:
                # HDTL splits the chain at the full stack; ditto.
                return True
            # Descend: apply the target asynchronously, in chain order.
            pending[target] = identity
            apply_vertex(target, folded)
            charge_chain_apply(core, target)
            return True

        def on_path_end(path: Tuple[int, ...], reason: str) -> None:
            endpoint = path[-1]
            if self._root_is_hub and len(path) >= 2:
                if reason == "boundary":
                    # A hub-rooted segment left G^m: its endpoint is a
                    # boundary member of H''^m (the H^m' set of Section
                    # III-B2) and joins H'' as a core-vertex (capped), so
                    # the segments *it* walks later become core-paths —
                    # chains of such segments let shortcut cascades cross
                    # partitions hub-to-hub.
                    hubsets.promote_core_vertex(endpoint)
                if endpoint in hub_members and len(path) >= 3:
                    # Multi-hop segments between H'' vertices get
                    # hub-index entries; a single edge is already a direct
                    # dependency and is not worth an entry.
                    self._record_core_path(core, path, engine)
            enqueue(endpoint)

        return on_edge, on_path_end

    # ------------------------------------------------------------------
    def _record_core_path(
        self,
        core: int,
        path: Tuple[int, ...],
        engine: Optional[DepGraphEngine],
    ) -> None:
        ctx = self.ctx
        key = (path[0], path[-1], path[1])
        existed = self.hub_index.get(*key) is not None
        entry = self.ddmu.core_path_identified(path)
        if entry is None:
            return
        if not existed:
            if engine is not None:
                engine.charge_hub_insert()
            else:
                ctx.charge_overhead(core, ctx.timing.sw_hub_op)
                ctx.charge_mem(
                    core,
                    ctx.layout.hub_index_addr(self.hub_index.inserts),
                    write=True,
                )
            # Promote intersection vertices to core-vertices so future
            # traversals keep core-paths edge-disjoint (Definition 2).
            for vertex in path[1:-1]:
                previous = self.claimed.get(vertex)
                if previous is not None and previous != key:
                    self.hubsets.promote_core_vertex(vertex)
                else:
                    self.claimed[vertex] = key
        if self.options.ddmu_mode == "learned" and not entry.usable:
            self._learning_entries.add(entry.key)
        # Fictitious reset edge: reconcile the doubled shortcut influence.
        if self.ddmu.needs_reset_edge and entry.key in self._expected_resets:
            influence = self._expected_resets.pop(entry.key)
            tail = entry.tail
            ctx.pending[tail] = ctx.pending[tail] - influence
            ctx.charge_overhead(core, RESET_EDGE_CYCLES)
            ctx.charge_mem(
                core, ctx.delta_base + ctx.delta_stride * tail, True, True
            )

    def _observe_learning_entries(self) -> None:
        """Learned mode: feed end-of-round (s_head, s_tail) snapshots to the
        DDMU (the 'two successive rounds' observations of Section III-B2)."""
        done = set()
        for key in self._learning_entries:
            entry = self.hub_index.get(*key)
            if entry is None or entry.usable:
                done.add(key)
                continue
            self.ddmu.path_processed(
                entry, self.ctx.states[entry.head], self.ctx.states[entry.tail]
            )
            if entry.usable:
                done.add(key)
        self._learning_entries -= done


# ----------------------------------------------------------------------
def run_depgraph(
    graph: CSRGraph,
    algorithm: Algorithm,
    hardware: HardwareConfig,
    options: DepGraphOptions = DepGraphOptions(),
    system: str = "depgraph-h",
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    tracer=None,
    sched: Optional[SchedulingPolicy] = None,
) -> ExecutionResult:
    """Run one dependency-driven execution."""
    return _DepGraphExecution(
        graph,
        algorithm,
        hardware,
        options,
        system,
        max_rounds,
        tracer=tracer,
        sched=sched,
    ).run()


def run_sequential(
    graph: CSRGraph,
    algorithm: Algorithm,
    hardware: Optional[HardwareConfig] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    tracer=None,
    sched: Optional[SchedulingPolicy] = None,
) -> ExecutionResult:
    """The single-thread asynchronous DFS baseline (u_s measurement)."""
    hw = (hardware or HardwareConfig.scaled()).with_cores(1)
    return run_depgraph(
        graph,
        algorithm,
        hw,
        SEQUENTIAL_OPTIONS,
        system="sequential",
        max_rounds=max_rounds,
        tracer=tracer,
        sched=sched,
    )
