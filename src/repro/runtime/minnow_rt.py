"""The Minnow-accelerated runtime (priority worklist offload) [59].

Minnow executes continuously rather than in rounds: each core's hardware
worklist serves the most urgent vertex next (smallest tentative distance for
SSSP, largest |delta| for PageRank-style algorithms), activations are pushed
the moment they occur, and the engine prefetches the vertex data for popped
work items.  Worklist operations cost the core almost nothing because the
engine manages them.

What Minnow does *not* do — and where DepGraph wins (Figure 11/12) — is
follow dependency chains: every hop of a propagation is a separate worklist
round-trip through the priority queue, each paying queue traffic and a fresh
(if prefetched) vertex access, and long chains still serialise across pops.

The worklist policy drives :class:`repro.runtime.execore.ExecutionKernel`:
the kernel owns min-clock dispatch, the staged-delta flush cadence
(:data:`repro.runtime.execore.FLUSH_INTERVAL` — previously a private copy
here), steal charging, and result assembly.
"""

from __future__ import annotations

from typing import List, Optional

from ..accel.hats import PrefetchTimeline
from ..accel.minnow import MinnowWorklist
from ..algorithms.base import Algorithm
from ..algorithms.detect import AccumKind
from ..graph.csr import CSRGraph
from ..hardware.config import HardwareConfig
from .execore import ExecutionKernel
from .scheduling import SchedulingPolicy
from .stats import ExecutionResult, RoundLog

#: core-side cost of an offloaded worklist operation (near-free)
WORKLIST_OP_CYCLES = 1
#: safety valve against livelock in non-converging configurations
MAX_POPS_FACTOR = 400

_INF = float("inf")


def vector_profile(hardware: HardwareConfig):
    """This family's cost profile under the vector backend.

    Span name stays ``pop`` (backend-invariant).  The hardware worklist
    makes both the pop and the activation push near-free
    (:data:`WORKLIST_OP_CYCLES`), which is exactly what the bulk engine
    charges per applied vertex and per scattered edge.
    """
    from .vector import VectorProfile

    return VectorProfile(
        span="pop",
        cat="worklist",
        simd=True,
        vertex_overhead=float(WORKLIST_OP_CYCLES),
        edge_overhead=float(WORKLIST_OP_CYCLES),
    )


class _MinnowExecution:
    def __init__(
        self,
        graph: CSRGraph,
        algorithm: Algorithm,
        hardware: HardwareConfig,
        tracer=None,
        sched: Optional[SchedulingPolicy] = None,
    ) -> None:
        self.kernel = ExecutionKernel(
            graph, algorithm, hardware, "minnow", simd=True,
            tracer=tracer, sched=sched,
        )
        kernel = self.kernel
        self.ctx = kernel.ctx
        self.sched = kernel.sched
        ctx = self.ctx
        kernel.declare_span("pop")
        self.worklists: List[MinnowWorklist] = [
            MinnowWorklist(core) for core in range(ctx.num_cores)
        ]
        self.prefetchers: List[PrefetchTimeline] = [
            PrefetchTimeline() for _ in range(ctx.num_cores)
        ]
        # Urgency is a pure function of the algorithm's accumulator kind,
        # so resolve it once instead of re-detecting per push.
        if ctx.accum_kind is AccumKind.SUM:
            self._urgency = lambda pending: -abs(pending)
        elif ctx.algorithm.accum(0.0, 1.0) == 0.0:  # min-style
            self._urgency = lambda pending: pending
        else:  # max-style: large values first
            self._urgency = lambda pending: -pending

    # ------------------------------------------------------------------
    def run(self, max_pops: Optional[int] = None) -> ExecutionResult:
        ctx = self.ctx
        kernel = self.kernel
        graph = ctx.graph
        if max_pops is None:
            max_pops = MAX_POPS_FACTOR * max(1, graph.num_vertices)

        worklists = self.worklists
        pending = ctx.pending
        urgency = self._urgency
        owner_of = ctx.owner_of
        for vertex in ctx.initial_frontier():
            worklists[owner_of(vertex)].push(vertex, urgency(pending[vertex]))
        pops = 0
        converged = True

        def activate(vertex: int) -> None:
            worklists[owner_of(vertex)].push(vertex, urgency(pending[vertex]))

        # Dispatch hot path: heapq mutates each worklist's heap list in
        # place, so the list identities are stable and one fused scan over
        # them finds the min-clock non-empty core (ties to the lowest id,
        # matching the seed's candidates-list + min()) and counts the
        # non-empty cores for the steal precondition.
        heaps = [w._heap for w in worklists]
        clock = ctx.clock
        num_cores = ctx.num_cores
        partition_aware = self.sched.partition_aware
        tracer = ctx.tracer
        process = self._process_inner
        tick_flush = kernel.tick_flush
        process_item = kernel.process_item
        while True:
            best = -1
            best_clock = _INF
            nonempty = 0
            core = 0
            for heap in heaps:
                if heap:
                    nonempty += 1
                    candidate = clock[core]
                    if candidate < best_clock:
                        best_clock = candidate
                        best = core
                core += 1
            if best < 0:
                # quiescence: publish all staged deltas; late arrivals
                # re-activate their vertices.
                kernel.flush_all(activate, reset=False)
                if not any(heaps):
                    break
                continue
            if pops >= max_pops:
                converged = False
                break
            core = best
            if (
                partition_aware
                and nonempty < num_cores
                and self._maybe_steal(heaps, clock[core])
            ):
                continue
            vertex = worklists[core].pop()
            if vertex is None:
                continue
            pops += 1
            process_item("pop", "worklist", core, vertex, process)
            if tick_flush(core, activate) and tracer.enabled:
                tracer.counter(
                    "worklist_backlog",
                    clock[core],
                    {"entries": float(sum(len(w) for w in worklists))},
                )
        ctx.rounds = 1
        ctx.engine_ops += sum(engine.ops for engine in self.prefetchers)
        ctx.engine_ops += sum(w.pushes + w.pops for w in worklists)
        metrics = ctx.metrics
        metrics.set("worklist.pushes", float(sum(w.pushes for w in worklists)))
        metrics.set("worklist.pops", float(sum(w.pops for w in worklists)))
        metrics.set(
            "worklist.stale_pops",
            float(sum(w.stale_pops for w in worklists)),
        )
        result = kernel.finish(converged)
        result.round_log.append(RoundLog(0, pops, ctx.updates, result.cycles))
        return result

    # ------------------------------------------------------------------
    def _maybe_steal(self, heaps: List[list], busy_clock: float) -> bool:
        """Partition-aware stealing for the continuous worklist model: an
        idle core that has fallen behind the simulated present grabs half
        of a NoC-near victim's pending entries.  The seed Minnow never
        stole (activations always land on the owner core), so this path
        only exists under ``steal_policy="partition"``."""
        ctx = self.ctx
        kernel = self.kernel
        clock = ctx.clock
        worklists = self.worklists
        thief = -1
        thief_clock = _INF
        for core in range(ctx.num_cores):
            if not heaps[core] and clock[core] < busy_clock:
                if clock[core] < thief_clock:
                    thief_clock = clock[core]
                    thief = core
        if thief < 0:
            return False
        kernel.sched_counters.attempt()
        loads = [
            float(worklists[c].valid_entries) if heaps[c] else 0.0
            for c in range(ctx.num_cores)
        ]
        victim = kernel.ranker.choose(thief, loads, min_load=4.0)
        if victim is None:
            return False
        take = worklists[victim].valid_entries // 2
        stolen: List[int] = []
        for _ in range(take):
            vertex = worklists[victim].pop()
            if vertex is None:
                break
            stolen.append(vertex)
        if not stolen:
            return False
        pending = ctx.pending
        urgency = self._urgency
        for vertex in stolen:
            worklists[thief].push(vertex, urgency(pending[vertex]))
        kernel.charge_steal(thief, victim)
        kernel.note_steal(
            thief,
            victim,
            len(stolen),
            float(kernel.estimator.queue_cost(stolen)),
        )
        return True

    # ------------------------------------------------------------------
    def _process_inner(self, core: int, vertex: int) -> None:
        ctx = self.ctx
        algorithm = ctx.algorithm
        layout = ctx.layout
        timing = ctx.timing
        graph = ctx.graph
        line = ctx.hardware.line_bytes
        # the prefetched-read sequence runs per touched line, so bind its
        # pieces once per pop rather than per call
        engine = self.prefetchers[core]
        fetch = engine.fetch
        note_consumed = engine.note_consumed
        mem_cost = ctx.mem_cost
        charge_mem = ctx.charge_mem
        charge_overhead = ctx.charge_overhead
        clock = ctx.clock

        charge_overhead(core, WORKLIST_OP_CYCLES)
        for addr in (layout.deltas.addr(vertex), layout.states.addr(vertex)):
            ready = fetch(mem_cost(core, addr))
            if ready > clock[core]:
                charge_overhead(core, ready - clock[core])
            charge_mem(core, addr)
            note_consumed(clock[core])
        delta = ctx.visible_pending(core, vertex)
        if not algorithm.is_significant(delta, ctx.states[vertex]):
            return
        ctx.consume_pending(core, vertex)
        value = ctx.apply_vertex(vertex, delta)
        ctx.charge_state_update(core, vertex)
        if ctx.is_sum and value == 0.0:
            return

        addr = layout.offsets.addr(vertex)
        ready = fetch(mem_cost(core, addr))
        if ready > clock[core]:
            charge_overhead(core, ready - clock[core])
        charge_mem(core, addr)
        note_consumed(clock[core])
        begin, end = graph.edge_range(vertex)
        last_target_line = -1
        last_weight_line = -1
        is_weighted = graph.is_weighted
        targets = graph.targets
        weights = graph.weights
        edge_compute = algorithm.edge_compute
        is_significant = algorithm.is_significant
        charge_compute = ctx.charge_compute
        charge_rmw = ctx.charge_rmw
        stage_scatter = ctx.stage_scatter
        states = ctx.states
        owner_of = ctx.owner_of
        worklists = self.worklists
        urgency = self._urgency
        target_area = layout.targets
        weight_area = layout.weights
        delta_area = layout.deltas
        state_area = layout.states
        edge_op = timing.edge_op
        is_sum = ctx.is_sum
        for e in range(begin, end):
            target_addr = target_area.addr(e)
            if target_addr // line != last_target_line:
                last_target_line = target_addr // line
                ready = fetch(mem_cost(core, target_addr))
                if ready > clock[core]:
                    charge_overhead(core, ready - clock[core])
                charge_mem(core, target_addr)
                note_consumed(clock[core])
            target = int(targets[e])
            if is_weighted:
                weight_addr = weight_area.addr(e)
                if weight_addr // line != last_weight_line:
                    last_weight_line = weight_addr // line
                    ready = fetch(mem_cost(core, weight_addr))
                    if ready > clock[core]:
                        charge_overhead(core, ready - clock[core])
                    charge_mem(core, weight_addr)
                    note_consumed(clock[core])
                weight = weights[e]
            else:
                weight = 1.0
            influence = edge_compute(vertex, value, weight, graph)
            ctx.edge_ops += 1
            charge_compute(core, edge_op)
            visible = stage_scatter(core, target, influence)
            charge_rmw(core, delta_area.addr(target))
            if not is_sum:
                charge_mem(core, state_area.addr(target), state=True)
            if is_significant(visible, states[target]):
                worklists[owner_of(target)].push(target, urgency(visible))
                charge_overhead(core, WORKLIST_OP_CYCLES)


def run_minnow(
    graph: CSRGraph,
    algorithm: Algorithm,
    hardware: HardwareConfig,
    max_pops: Optional[int] = None,
    tracer=None,
    sched: Optional[SchedulingPolicy] = None,
) -> ExecutionResult:
    """Execute under the Minnow priority-worklist model."""
    return _MinnowExecution(
        graph, algorithm, hardware, tracer=tracer, sched=sched
    ).run(max_pops)
