"""The round-based (frontier-driven) execution family.

Ligra, Ligra-o, Mosaic, Wonderland, FBSGraph, and the HATS/PHI-accelerated
variants of Ligra-o all share one skeleton: rounds of frontier processing
with a barrier between rounds, newly activated vertices deferred to the next
round.  A :class:`RoundPolicy` captures what distinguishes them:

* ``synchronous`` — BSP visibility: a vertex's apply consumes only deltas
  published in earlier rounds (Ligra/Mosaic/Wonderland); asynchronous
  systems also consume deltas staged by their own core within the round and
  see other cores' deltas at the kernel's periodic flushes
  (:data:`repro.runtime.execore.FLUSH_INTERVAL`);
* ``ordering`` — how each core orders its slice of the frontier (vertex id,
  hubs-first abstraction priority, DFS path order, or HATS's bounded-DFS);
* ``prefetch`` — a HATS-style engine overlaps sequential fetches;
* ``phi`` — PHI's commutative scatter coalescing replaces read-modify-write
  scatters;
* ``simd`` — whether state processing is vectorised (the paper's Ligra-o
  and DepGraph-S are SIMD-optimised; plain Ligra is not).

The simulation machinery — deterministic min-clock dispatch, staged-delta
flush discipline, steal charging, round/convergence accounting — lives in
:class:`repro.runtime.execore.ExecutionKernel`; this module is the frontier
*policy* driving it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..accel.hats import HATSScheduler, PrefetchTimeline
from ..accel.phi import PHIUpdateBuffer
from ..algorithms.base import Algorithm
from ..graph.csr import CSRGraph
from ..hardware.config import HardwareConfig
from .execore import ExecutionKernel, next_core
from .scheduling import SchedulingPolicy, chunk_split
from .stats import ExecutionResult

#: safety valve against non-converging configurations
DEFAULT_MAX_ROUNDS = 4000


@dataclass(frozen=True)
class RoundPolicy:
    """Knobs distinguishing the round-based systems."""

    name: str
    synchronous: bool = False
    simd: bool = True
    ordering: str = "id"  # "id" | "hubs_first" | "dfs" | "hats"
    prefetch: bool = False
    phi: bool = False
    atomic_cycles: int = 6
    work_stealing: bool = True


#: the published software baselines (Section II / IV)
LIGRA = RoundPolicy("ligra", synchronous=True, simd=False)
LIGRA_O = RoundPolicy("ligra-o", synchronous=False, simd=True, ordering="hubs_first")
MOSAIC = RoundPolicy("mosaic", synchronous=True, simd=True)
WONDERLAND = RoundPolicy(
    "wonderland", synchronous=True, simd=False, ordering="hubs_first"
)
FBSGRAPH = RoundPolicy("fbsgraph", synchronous=False, simd=False, ordering="dfs")
#: Ligra-o + accelerator models (Figure 11 baselines)
HATS = RoundPolicy(
    "hats", synchronous=False, simd=True, ordering="hats", prefetch=True
)
PHI = RoundPolicy(
    "phi",
    synchronous=False,
    simd=True,
    ordering="hubs_first",
    phi=True,
    atomic_cycles=1,
)

POLICIES = {
    p.name: p for p in (LIGRA, LIGRA_O, MOSAIC, WONDERLAND, FBSGRAPH, HATS, PHI)
}


def vector_profile(policy: RoundPolicy, hardware: HardwareConfig):
    """This family's cost profile under the vector backend.

    The span name stays ``vertex`` (backend-invariant); per-item costs
    come from the same model constants the scalar loop charges — the
    dispatch op per frontier vertex and the per-edge scatter atomic
    (PHI's coalescing buffer drops it to its cheaper atomic already via
    ``atomic_cycles=1``; single-core runs pay no atomic at all, matching
    the scalar path).
    """
    from .vector import VectorProfile

    edge_overhead = (
        float(policy.atomic_cycles) if hardware.num_cores > 1 else 0.0
    )
    return VectorProfile(
        span="vertex",
        cat="frontier",
        simd=policy.simd,
        vertex_overhead=float(hardware.timing.dispatch_op),
        edge_overhead=edge_overhead,
    )


class _RoundEngine:
    """One full round-based execution (a frontier policy over the kernel)."""

    def __init__(
        self,
        graph: CSRGraph,
        algorithm: Algorithm,
        hardware: HardwareConfig,
        policy: RoundPolicy,
        max_rounds: int,
        tracer=None,
        sched: Optional[SchedulingPolicy] = None,
    ) -> None:
        self.policy = policy
        self.kernel = ExecutionKernel(
            graph, algorithm, hardware, policy.name, policy.simd,
            tracer=tracer, sched=sched,
        )
        kernel = self.kernel
        self.ctx = kernel.ctx
        self.sched = kernel.sched
        self.max_rounds = max_rounds
        ctx = self.ctx
        n = ctx.graph.num_vertices
        self.degrees = kernel.estimator.degrees
        kernel.declare_span("vertex")
        self.in_next = bytearray(n)
        self.next_frontier: List[int] = []
        self.prefetchers = (
            [PrefetchTimeline() for _ in range(ctx.num_cores)]
            if policy.prefetch
            else None
        )
        self.phi_buffers = (
            [PHIUpdateBuffer(c) for c in range(ctx.num_cores)]
            if policy.phi
            else None
        )
        self.scheduler = (
            HATSScheduler(ctx.graph, bound=8 if policy.ordering == "hats" else 64)
            if policy.ordering in ("hats", "dfs")
            else None
        )

    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        ctx = self.ctx
        kernel = self.kernel
        frontier = ctx.initial_frontier()
        converged = True
        for round_index in range(self.max_rounds):
            if not frontier:
                break
            start_peak, updates_before = kernel.begin_round(round_index)
            self._run_round(frontier)
            kernel.flush_all(self._activate)
            if self.phi_buffers is not None:
                self._flush_phi()
            if kernel.end_round(
                round_index, len(frontier), start_peak, updates_before
            ):
                converged = False
                break
            frontier = self.next_frontier
            self.next_frontier = []
            self.in_next = bytearray(ctx.graph.num_vertices)
        else:
            converged = False
        return kernel.finish(converged)

    # ------------------------------------------------------------------
    def _activate(self, vertex: int) -> None:
        if not self.in_next[vertex]:
            self.in_next[vertex] = 1
            self.next_frontier.append(vertex)

    def _order(self, vertices: List[int], active: set) -> List[int]:
        policy = self.policy
        if policy.ordering == "id":
            return sorted(vertices)
        if policy.ordering == "hubs_first":
            degrees = self.degrees
            return sorted(vertices, key=lambda v: (-degrees[v], v))
        return self.scheduler.order(sorted(vertices), active)

    def _run_round(self, frontier: List[int]) -> None:
        ctx = self.ctx
        kernel = self.kernel
        active = set(frontier)
        num_cores = ctx.num_cores
        queues: List[List[int]] = [[] for _ in range(num_cores)]
        for v in frontier:
            queues[ctx.owner_of(v)].append(v)
        for core in range(num_cores):
            if queues[core]:
                queues[core] = self._order(queues[core], active)
        cursors = [0] * num_cores
        # Every core with work contributes one min-clock dispatch entry
        # keyed by its live clock, so one fused scan (execore.next_core)
        # reproduces the seed's heap pop order exactly — a core leaves the
        # live set only when its cursor is exhausted and a steal fails.
        live = bytearray(num_cores)
        for core in range(num_cores):
            if queues[core]:
                live[core] = 1
        clock = ctx.clock
        work_stealing = self.policy.work_stealing
        partition_aware = self.sched.partition_aware
        synchronous = self.policy.synchronous
        process = self._process_vertex_inner
        while True:
            core = next_core(clock, live)
            if core < 0:
                break
            if cursors[core] >= len(queues[core]):
                if work_stealing:
                    stole = (
                        self._steal_partition(core, queues, cursors)
                        if partition_aware
                        else self._steal(core, queues, cursors)
                    )
                    if stole:
                        continue
                live[core] = 0
                continue
            vertex = queues[core][cursors[core]]
            cursors[core] += 1
            kernel.process_item("vertex", "frontier", core, vertex, process)
            if not synchronous:
                kernel.tick_flush(core, self._activate)

    def _steal(self, thief: int, queues, cursors) -> bool:
        """Take the back half of the most loaded core's remaining work
        (the seed scheduler, preserved as ``steal_policy="random"``)."""
        kernel = self.kernel
        kernel.sched_counters.attempt()
        best, best_left = -1, 1
        for core in range(self.ctx.num_cores):
            left = len(queues[core]) - cursors[core]
            if left > best_left:
                best, best_left = core, left
        if best < 0:
            return False
        take = best_left // 2
        if take <= 0:
            return False
        stolen = queues[best][-take:]
        del queues[best][-take:]
        queues[thief] = stolen
        cursors[thief] = 0
        kernel.charge_steal(thief)
        self._note_steal(thief, best, stolen)
        return True

    def _steal_partition(self, thief: int, queues, cursors) -> bool:
        """Partition-aware chunked steal: pick a NoC-near victim holding
        substantial *estimated* work and take roughly half that work's
        cost off the back of its queue (the cheap tail under hubs-first
        ordering can be many vertices; a hot head few)."""
        kernel = self.kernel
        kernel.sched_counters.attempt()
        estimator = kernel.estimator
        num_cores = self.ctx.num_cores
        loads = [0] * num_cores
        for core in range(num_cores):
            if core != thief and len(queues[core]) - cursors[core] >= 2:
                loads[core] = estimator.queue_cost(queues[core], cursors[core])
        victim = kernel.ranker.choose(thief, loads, min_load=1.0)
        if victim is None:
            return False
        take = chunk_split(queues[victim], cursors[victim], estimator)
        if take <= 0:
            return False
        stolen = queues[victim][-take:]
        del queues[victim][-take:]
        queues[thief] = stolen
        cursors[thief] = 0
        kernel.charge_steal(thief, victim)
        self._note_steal(thief, victim, stolen)
        return True

    def _note_steal(self, thief: int, victim: int, stolen: List[int]) -> None:
        self.kernel.note_steal(
            thief, victim, len(stolen), self.kernel.estimator.queue_cost(stolen)
        )

    # ------------------------------------------------------------------
    def _read_stream(self, core: int, addr: int) -> None:
        """A sequential-stream read (offsets/edges/own state): under a
        HATS-style prefetcher the engine pays the miss and the core pays the
        resulting hit; otherwise the core pays everything."""
        ctx = self.ctx
        if self.prefetchers is None:
            ctx.charge_mem(core, addr)
            return
        engine = self.prefetchers[core]
        ready = engine.fetch(ctx.mem_cost(core, addr))
        if ready > ctx.clock[core]:
            ctx.charge_overhead(core, ready - ctx.clock[core])
        ctx.charge_mem(core, addr)  # installed by the engine: near hit
        engine.note_consumed(ctx.clock[core])
        ctx.engine_ops += 1

    def _process_vertex_inner(self, core: int, vertex: int) -> None:
        ctx = self.ctx
        policy = self.policy
        algorithm = ctx.algorithm
        graph = ctx.graph
        layout = ctx.layout
        timing = ctx.timing
        line = ctx.hardware.line_bytes

        ctx.charge_overhead(core, timing.dispatch_op)
        ctx.charge_state_entry(core, vertex)
        if policy.synchronous:
            # BSP: consume only deltas published in earlier rounds.
            delta = ctx.pending[vertex]
        else:
            delta = ctx.visible_pending(core, vertex)
        if not algorithm.is_significant(delta, ctx.states[vertex]):
            return
        if policy.synchronous:
            ctx.pending[vertex] = ctx.identity
        else:
            ctx.consume_pending(core, vertex)
        value = ctx.apply_vertex(vertex, delta)
        ctx.charge_state_update(core, vertex)
        if ctx.is_sum and value == 0.0:
            return

        self._read_stream(core, layout.offsets.addr(vertex))
        begin, end = graph.edge_range(vertex)
        last_target_line = -1
        last_weight_line = -1
        multicore = ctx.num_cores > 1
        for e in range(begin, end):
            target_addr = layout.targets.addr(e)
            if target_addr // line != last_target_line:
                last_target_line = target_addr // line
                self._read_stream(core, target_addr)
            target = int(graph.targets[e])
            if graph.is_weighted:
                weight_addr = layout.weights.addr(e)
                if weight_addr // line != last_weight_line:
                    last_weight_line = weight_addr // line
                    self._read_stream(core, weight_addr)
                weight = graph.weights[e]
            else:
                weight = 1.0
            influence = algorithm.edge_compute(vertex, value, weight, graph)
            ctx.edge_ops += 1
            ctx.charge_compute(core, timing.edge_op)
            visible = ctx.stage_scatter(core, target, influence)
            delta_addr = layout.deltas.addr(target)
            if self.phi_buffers is not None:
                if not self.phi_buffers[core].scatter(delta_addr // line):
                    ctx.charge_mem(core, delta_addr, write=True)
                else:
                    ctx.charge_compute(core, 1)
            else:
                ctx.charge_rmw(core, delta_addr)
                if multicore:
                    ctx.charge_overhead(core, policy.atomic_cycles)
            # activation test against what this core can see
            if not ctx.is_sum:
                ctx.charge_mem(core, layout.states.addr(target), state=True)
            if not self.in_next[target] and algorithm.is_significant(
                visible, ctx.states[target]
            ):
                self._activate(target)
                owner = ctx.owner_of(target)
                ctx.charge_mem(
                    core,
                    layout.queues.addr(owner % layout.queues.length),
                    write=True,
                )

    # ------------------------------------------------------------------
    def _flush_phi(self) -> None:
        ctx = self.ctx
        for core, buffer in enumerate(self.phi_buffers):
            count = buffer.flush()
            if count:
                cost = count * ctx.hardware.l2.latency
                ctx.charge_overhead(core, cost)


def run_roundbased(
    graph: CSRGraph,
    algorithm: Algorithm,
    hardware: HardwareConfig,
    policy: RoundPolicy,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    tracer=None,
    sched: Optional[SchedulingPolicy] = None,
) -> ExecutionResult:
    """Execute ``algorithm`` on ``graph`` under a round-based system."""
    return _RoundEngine(
        graph, algorithm, hardware, policy, max_rounds, tracer=tracer, sched=sched
    ).run()
