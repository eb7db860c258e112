"""Shared simulation context for all runtimes.

``SimContext`` owns the simulated machine state for one execution: the
(possibly symmetrised) graph, the memory hierarchy, the address layout, the
vertex state/delta arrays, per-core clocks, and the category-split cycle
accounting (compute vs memory vs overhead) that feeds Figure 9's breakdown.

All runtimes charge costs exclusively through this object so that the
figures compare like with like.

Every memory charge goes through ``core_access`` except one that needs
no walk: on DepGraph-H the engine fetches each chain target's state
line, then its delta line, into the core's L1 just before the core's
delta read-modify-write and state read.  Under an LRU L1 of at least
two ways both are hits whatever the cache held before, so
``charge_chain_edge`` charges them from per-run constants, bumps the
L1's hit counter (``AccessStats`` derives its hit counts from the
caches' own, so there is no second counter) and moves the state line to
the end of its set, the one LRU effect the two accesses have.  The
runtime opts in once per run
(:meth:`SimContext.engines_prefetch_chain_lines`), and the memory
system decides whether its L1 makes the rule hold
(:meth:`MemorySystem.prefetched_hit_bindings`).  DepGraph-S, any other
L1 and "fast" fidelity keep going through ``core_access``.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from ..algorithms.base import Algorithm
from ..algorithms.detect import AccumKind, detect_accum_kind
from ..algorithms.reference import symmetrize
from ..graph.csr import CSRGraph
from ..graph.partition import Partitioning, by_edge_count
from ..hardware.config import HardwareConfig
from ..hardware.hierarchy import MemorySystem
from ..hardware.layout import MemoryLayout
from ..observe import MetricRegistry, get_tracer
from .stats import ExecutionResult, RoundLog

#: cycles to cross a barrier at round end (sync flag + fence)
BARRIER_CYCLES = 200
#: extra barrier cost per doubling of the core count
BARRIER_PER_LOG_CORE = 40
#: flat per-access memory cost used by the "fast" fidelity mode (roughly
#: the detailed model's average across hit levels)
FAST_MEM_CYCLES = 24.0


def _fast_access(core: int, addr: int, write: bool, now: float) -> float:
    """The "fast" fidelity's memory model: every access costs
    :data:`FAST_MEM_CYCLES`, wherever it would hit."""
    return FAST_MEM_CYCLES


class SimContext:
    """Mutable simulation state for one run."""

    def __init__(
        self,
        graph: CSRGraph,
        algorithm: Algorithm,
        hardware: HardwareConfig,
        system: str,
        simd: bool = True,
        tracer=None,
    ) -> None:
        if getattr(algorithm, "needs_symmetric", False):
            graph = symmetrize(graph)
        if algorithm.needs_weights and not graph.is_weighted:
            raise ValueError(
                f"{algorithm.name} needs edge weights; build the graph with "
                "weighted=True"
            )
        self.graph = graph
        self.algorithm = algorithm
        self.hardware = hardware
        self.system = system
        self.simd = simd
        self.timing = hardware.timing
        self.num_cores = hardware.num_cores
        self.fast = hardware.fidelity == "fast"
        self.memsys = MemorySystem(hardware)
        # Observability: the tracer defaults to the process-wide one (a
        # NullTracer unless `repro.observe.tracing` is active), so hot
        # loops gate on `self.tracer.enabled` — one attribute check.
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = MetricRegistry()
        if self.tracer.enabled:
            self.memsys.attach_observer(self.metrics)
            self.tracer.name_track(0, f"scheduler [{system}]")
            for core in range(hardware.num_cores):
                self.tracer.name_track(core + 1, f"core {core}")
        self.layout = MemoryLayout(graph, hardware.num_cores)
        #: the state and delta arrays' address ints: hot paths compute
        #: ``base + stride * vertex`` instead of calling ArrayRegion.addr
        self.state_base = self.layout.states.base
        self.state_stride = self.layout.states.stride
        self.delta_base = self.layout.deltas.base
        self.delta_stride = self.layout.deltas.stride
        self.partitioning: Partitioning = by_edge_count(graph, hardware.num_cores)
        self._owner = self.partitioning.owner_map().tolist()

        n = graph.num_vertices
        # lists for the scalar families' per-item access; a vector run
        # replaces both with its float64 arrays when it finishes, which
        # result() then reads without a copy
        self.states: List[float] = [
            algorithm.initial_state(v, graph) for v in range(n)
        ]
        self.pending: List[float] = [
            algorithm.initial_delta(v, graph) for v in range(n)
        ]
        self.propval: List[float] = [0.0] * n
        self.identity = algorithm.identity()
        self.accum_kind = detect_accum_kind(algorithm)
        self.is_sum = self.accum_kind is AccumKind.SUM
        # hot-path prebinds: the staged-visibility helpers call these once
        # or more per edge, so one attribute hop each matters at scale
        self._accum = algorithm.accum
        self._is_significant = algorithm.is_significant

        # per-core clocks and category accounting
        cores = self.num_cores
        self.clock: List[float] = [0.0] * cores
        self.compute: List[float] = [0.0] * cores
        self.mem: List[float] = [0.0] * cores
        self.overhead: List[float] = [0.0] * cores
        #: share of self.mem spent on the vertex state/delta arrays — this
        #: plus compute is the paper's "vertex state processing time"
        self.state_mem: List[float] = [0.0] * cores

        # global counters
        self.updates = 0
        self.edge_ops = 0
        self.rounds = 0
        self.round_log: List[RoundLog] = []
        self.engine_ops = 0
        self.shortcut_applications = 0

        # staged cross-core delta visibility (see class docstring of
        # StagedDeltas): used by the frontier/worklist systems, where a
        # core's scatters to remote vertices sit in its private cache until
        # a visibility point — the source of the paper's stale-state
        # redundant updates.
        self.staged: List[dict] = [dict() for _ in range(cores)]

        #: the one memory-access function every charge goes through: the
        #: hierarchy's walk, or under "fast" fidelity a flat cost per
        #: access (same signature, no hierarchy state touched)
        self.core_access = _fast_access if self.fast else self.memsys.access
        #: per-run constants of a chain edge whose lines the engine just
        #: fetched, one tuple per core: (delta RMW cycles, state read
        #: cycles, line shift, the core's L1, its sets, its set mask);
        #: None walks the hierarchy (see
        #: :meth:`engines_prefetch_chain_lines`)
        self._resident = None
        timing = self.timing
        #: the edge-op and update-op compute charges, SIMD factor applied
        self._edge_op_cycles = (
            timing.edge_op / timing.simd_factor if simd else timing.edge_op
        )
        self._update_op_cycles = (
            timing.update_op / timing.simd_factor if simd else timing.update_op
        )

    def engines_prefetch_chain_lines(self) -> None:
        """Declare that a per-core engine fetches every chain target's
        state line, then its delta line, immediately before the core's
        :meth:`charge_chain_edge` for that target (DepGraph-H's
        ``DepGraphEngine.fetch_state``), on the core's own L1.

        Decided once per run: where the memory system says the two
        accesses hit by construction
        (:meth:`MemorySystem.prefetched_hit_bindings`),
        ``charge_chain_edge`` charges the delta RMW and the state read
        as those L1 hits, with their one replacement effect, without
        walking the hierarchy.  Under "fast" fidelity and elsewhere the
        accesses keep going through :attr:`core_access`."""
        if self.fast:
            return
        bindings = self.memsys.prefetched_hit_bindings()
        if bindings is not None:
            latency, line_shift, private_l1 = bindings
            # the cycles as floats: they only ever add to float clocks,
            # where an int operand costs an unspecialised add (same sum)
            self._resident = [
                (float(latency + 1), float(latency), line_shift, l1, sets, mask)
                for l1, sets, mask in private_l1
            ]

    # ------------------------------------------------------------------
    # Charging primitives.
    # ------------------------------------------------------------------
    def charge_mem(
        self, core: int, addr: int, write: bool = False, state: bool = False
    ) -> float:
        cycles = self.core_access(core, addr, write, self.clock[core])
        self.clock[core] += cycles
        self.mem[core] += cycles
        if state:
            self.state_mem[core] += cycles
        return cycles

    def charge_rmw(self, core: int, addr: int, state: bool = True) -> float:
        """A read-modify-write to one location (scatter accumulation): one
        hierarchy walk; the write hits the just-installed line.  Scatters
        target the delta array, so they count as state traffic by default."""
        cycles = self.core_access(core, addr, True, self.clock[core]) + 1
        self.clock[core] += cycles
        self.mem[core] += cycles
        if state:
            self.state_mem[core] += cycles
        return cycles

    def charge_compute(self, core: int, cycles: float) -> None:
        if self.simd:
            cycles /= self.timing.simd_factor
        self.clock[core] += cycles
        self.compute[core] += cycles

    def charge_overhead(self, core: int, cycles: float) -> None:
        self.clock[core] += cycles
        self.overhead[core] += cycles

    def mem_cost(self, core: int, addr: int, write: bool = False) -> float:
        """Memory access whose latency the caller will attribute itself
        (used by engine timelines that run off the core clock)."""
        return self.core_access(core, addr, write, self.clock[core])

    # ------------------------------------------------------------------
    # Fused charge sequences (the entry/exit charging every family runs
    # around a vertex apply, and the chain walk's per-edge charging; one
    # call instead of several keeps the hot loops' Python overhead down
    # without touching the cycle model: each is the exact sequence of
    # the primitives above).
    # ------------------------------------------------------------------
    def charge_state_entry(self, core: int, vertex: int) -> None:
        """Delta read then state read for ``vertex`` — the charge sequence
        at the head of every family's vertex processing."""
        charge_mem = self.charge_mem
        charge_mem(core, self.delta_base + self.delta_stride * vertex, False, True)
        charge_mem(core, self.state_base + self.state_stride * vertex, False, True)

    def charge_state_update(self, core: int, vertex: int) -> None:
        """State write, delta write, then the update-op compute charge —
        the post-apply sequence shared by every family."""
        charge_mem = self.charge_mem
        charge_mem(core, self.state_base + self.state_stride * vertex, True, True)
        charge_mem(core, self.delta_base + self.delta_stride * vertex, True, True)
        self.charge_compute(core, self.timing.update_op)

    def charge_chain_edge(
        self, core: int, vertex: int, ready: float, pop_cycles: float
    ) -> float:
        """One chain edge into ``vertex``, as one call: the core stalls
        until the edge is ``ready`` (when it is behind) and pays
        ``pop_cycles`` of overhead to take it, then the edge-op compute,
        the scatter's delta read-modify-write and the state read the
        significance check needs.  The same cycles, added in the same
        order, as ``charge_overhead`` (twice), ``charge_compute``,
        ``charge_rmw`` and ``charge_mem(..., state=True)``.  When the
        run's engines prefetch the target's lines and those two accesses
        hit by construction (:meth:`engines_prefetch_chain_lines`), their
        latencies, hit counts and LRU order are applied without a
        hierarchy walk.  Returns the core's clock at the instant it took
        the edge."""
        overhead = self.overhead
        now = self.clock[core]
        if ready > now:
            stall = ready - now
            now += stall
            overhead[core] += stall
        now += pop_cycles
        overhead[core] += pop_cycles
        taken = now
        compute = self._edge_op_cycles
        self.compute[core] += compute
        now += compute
        resident = self._resident
        if resident is None:
            access = self.core_access
            delta = access(
                core, self.delta_base + self.delta_stride * vertex, True, now
            ) + 1
            now += delta
            state = access(
                core, self.state_base + self.state_stride * vertex, False, now
            )
        else:
            delta, state, line_shift, l1, sets, mask = resident[core]
            now += delta
            l1.hits += 2
            line = (self.state_base + self.state_stride * vertex) >> line_shift
            sets[line & mask].move_to_end(line)
        self.clock[core] = now + state
        self.mem[core] = self.mem[core] + delta + state
        self.state_mem[core] = self.state_mem[core] + delta + state
        return taken

    def charge_chain_apply(self, core: int, vertex: int) -> None:
        """A chain walk's descend into ``vertex``: the state write, then
        the update-op compute charge."""
        clock = self.clock
        cycles = self.core_access(
            core, self.state_base + self.state_stride * vertex, True, clock[core]
        )
        self.mem[core] += cycles
        self.state_mem[core] += cycles
        compute = self._update_op_cycles
        self.compute[core] += compute
        clock[core] = clock[core] + cycles + compute

    # ------------------------------------------------------------------
    # Vertex primitives.
    # ------------------------------------------------------------------
    def initial_frontier(self) -> List[int]:
        graph, algorithm = self.graph, self.algorithm
        return [
            v
            for v in range(graph.num_vertices)
            if algorithm.initial_active(v, graph)
        ]

    def owner_of(self, vertex: int) -> int:
        return self._owner[vertex]

    def significant(self, delta: float, vertex: int) -> bool:
        return self.algorithm.is_significant(delta, self.states[vertex])

    def apply_vertex(self, vertex: int, delta: float) -> float:
        """Apply ``delta`` to the vertex state; returns the propagate value
        and records it in ``propval``.  Pure state change — charging is the
        caller's job."""
        algorithm = self.algorithm
        old = self.states[vertex]
        new = algorithm.apply(old, delta)
        self.states[vertex] = new
        value = algorithm.propagate_value(vertex, old, new, self.graph)
        self.propval[vertex] = value
        self.updates += 1
        return value

    # ------------------------------------------------------------------
    # Staged delta visibility.
    #
    # Real many-core systems do not make one core's scatter instantly
    # visible to the others: the delta sits in the writer's private cache
    # (or a software per-thread buffer) until coherence/synchronisation
    # publishes it.  Section II's "stale state" redundant updates come from
    # exactly this window.  Frontier/worklist runtimes therefore scatter
    # into a per-core staged map and publish at visibility points (every
    # ``flush_interval`` processed vertices for asynchronous systems, only
    # at the barrier for BSP ones).  DepGraph's chain processing keeps
    # propagation core-local and explicit, so it writes ``pending``
    # directly.
    # ------------------------------------------------------------------
    def visible_pending(self, core: int, vertex: int, own: bool = True) -> float:
        """The pending delta ``core`` can observe for ``vertex``."""
        value = self.pending[vertex]
        if own:
            staged = self.staged[core].get(vertex)
            if staged is not None:
                value = self._accum(value, staged)
        return value

    def stage_scatter(self, core: int, vertex: int, influence: float) -> float:
        """Fold ``influence`` into the core's staged view of ``vertex``;
        returns the value now visible to this core."""
        staged = self.staged[core]
        prior = staged.get(vertex)
        folded = influence if prior is None else self._accum(prior, influence)
        staged[vertex] = folded
        return self._accum(self.pending[vertex], folded)

    def consume_pending(self, core: int, vertex: int) -> None:
        """The core applied the visible delta: clear what it could see."""
        self.pending[vertex] = self.identity
        self.staged[core].pop(vertex, None)

    def flush_staged(self, core: int, on_significant: Optional[Callable[[int], None]] = None) -> None:
        """Publish the core's staged deltas to the global pending array.

        ``on_significant`` is invoked for every vertex whose published
        pending is significant — the runtimes use it to (re-)activate
        vertices whose influence arrived after they were processed.
        """
        staged = self.staged[core]
        if not staged:
            return
        accum = self._accum
        is_significant = self._is_significant
        pending = self.pending
        states = self.states
        for vertex, value in staged.items():
            folded = accum(pending[vertex], value)
            pending[vertex] = folded
            if on_significant is not None and is_significant(
                folded, states[vertex]
            ):
                on_significant(vertex)
        staged.clear()

    def barrier(self) -> None:
        """Synchronise all cores to the slowest and charge the barrier."""
        peak = max(self.clock)
        cost = BARRIER_CYCLES + BARRIER_PER_LOG_CORE * max(
            1, int(math.log2(max(2, self.num_cores)))
        )
        if self.tracer.enabled:
            self.tracer.span("barrier", peak, cost, cat="sync")
        for core in range(self.num_cores):
            self.clock[core] = peak + cost
            self.overhead[core] += cost

    # ------------------------------------------------------------------
    # Observability helpers.
    # ------------------------------------------------------------------
    def note_round(
        self, round_index: int, active: int, updates: int, start_peak: float
    ) -> None:
        """Record one round's activity: per-round histograms (always on —
        one histogram sample per round) plus, when tracing, a round span
        on the scheduler track and an activity counter series."""
        end_peak = max(self.clock)
        metrics = self.metrics
        metrics.observe("round.active_vertices", active)
        metrics.observe("round.updates", updates)
        metrics.observe("round.makespan_cycles", end_peak - start_peak)
        tracer = self.tracer
        if tracer.enabled:
            tracer.span(
                "round",
                start_peak,
                end_peak - start_peak,
                cat="round",
                args={
                    "round": round_index,
                    "active": active,
                    "updates": updates,
                },
            )
            tracer.counter(
                "activity",
                end_peak,
                {"active_vertices": float(active), "updates": float(updates)},
            )

    # ------------------------------------------------------------------
    def result(self, converged: bool) -> ExecutionResult:
        import numpy as np

        states = np.asarray(self.states, dtype=np.float64)
        if self.is_sum and not np.isfinite(states).all():
            # a sum-type run that overflowed (e.g. Katz with attenuation
            # above 1 / the spectral radius) diverged, whatever its
            # frontier did; min/max runs keep their legitimate inf for
            # unreachable vertices
            converged = False
        self.memsys.flush_metrics(self.metrics)
        self.metrics.set("sim.updates", self.updates)
        self.metrics.set("sim.edge_ops", self.edge_ops)
        self.metrics.set("sim.rounds", self.rounds)
        # makespan as a metric so span cycle-shares (obs.span.<name>.cycles
        # over obs.sim.cycles) are computable from the metrics sidecar alone
        self.metrics.set("sim.cycles", max(self.clock) if self.clock else 0.0)
        result = ExecutionResult(
            system=self.system,
            algorithm=self.algorithm.name,
            states=states,
            total_updates=self.updates,
            edge_operations=self.edge_ops,
            rounds=self.rounds,
            cycles=max(self.clock) if self.clock else 0.0,
            core_busy=[
                self.compute[c] + self.mem[c] + self.overhead[c]
                for c in range(self.num_cores)
            ],
            compute_cycles=sum(self.compute),
            memory_cycles=sum(self.mem),
            state_memory_cycles=sum(self.state_mem),
            overhead_cycles=sum(self.overhead),
            num_cores=self.num_cores,
            converged=converged,
            mem_stats=self.memsys.cache_stats(),
            access_counts=self.memsys.stats.as_dict(),
            engine_ops=self.engine_ops,
            round_log=self.round_log,
            shortcut_applications=self.shortcut_applications,
            # internal-id map here; the registry re-indexes it to original
            # vertex ids when the run executed over a reordered view
            partition_map=np.asarray(self._owner, dtype=np.int64),
        )
        # Flush the metric registry into the figures' key-value sidecar so
        # traced and untraced runs alike carry their counters.
        self.metrics.merge_into(result.extra)
        return result
