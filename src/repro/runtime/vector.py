"""The batched NumPy execution backend (``backend="vector"``).

The scalar backend walks every frontier item through per-edge Python
calls — ``edge_compute``, ``accum``, two or three charging calls per
touched line.  After the execore refactor that per-edge dispatch *is*
the remaining host-time cost of a full-scale run (see
``results/execore_flame_*.txt``).  This module processes a whole round
as array operations instead:

* the frontier is a boolean mask; apply and propagate are one ufunc per
  accumulator kind (sum / min / max), over the whole state and pending
  arrays when the frontier holds every vertex;
* the scatter gathers every frontier vertex's CSR slice in bulk
  (``np.repeat`` over degree counts) and folds the per-edge influences
  into the pending array with segment reductions
  (:func:`segment_sum` / :func:`segment_min` / :func:`segment_max`);
  a round whose scattering sources cover at least half the edges skips
  the slice gather and scatters over the whole ``targets`` array, the
  other sources' edges carrying the accumulator's identity;
* per-edge influence comes from the algorithm's *linear* form
  (:meth:`repro.algorithms.base.Algorithm.edge_linear_arrays` — the same
  ``f(s) = min(mu*s + xi, cap)`` algebra the hub index stores), built by
  one array call at set-up: per source on unweighted graphs, where each
  round evaluates it once per scattering source before expanding to
  edges, and per edge on weighted graphs;
* cycles are charged from **precomputed per-vertex cost vectors**
  (category-split compute/memory/overhead, flat
  :data:`repro.runtime.context.FAST_MEM_CYCLES` per modelled access)
  summed per core as one ``np.bincount`` per column over the partition
  owner map would sum them; the sums that are fixed for the run (the
  constant apply columns, a scatter by every non-isolated vertex) are
  built once at set-up and are equal bit for bit;
* the final states and pending deltas go back to the context as the
  engine's arrays, not as lists.

Everything still flows through :class:`repro.runtime.execore.ExecutionKernel`:
round framing (``begin_round``/``end_round`` with the barrier), the
staged-flush discipline (``flush_all`` at every round boundary), span
accounting (``note_batch`` keeps ``obs.span.<name>.*`` populated under
the family's *backend-invariant* span name — ``vertex``/``pop``/``root``),
and result assembly, so a vector run carries the same ``obs.*`` counter
families as a scalar run plus the ``obs.backend.*`` group.

What the substitution preserves and what it trades away (see DESIGN.md,
"Substitutions" item 7): min/max-accumulator fixed points are
schedule-independent, so final states are **bit-identical** to the
scalar backend; sum-type algorithms converge to the same fixed point to
within the significance threshold (``VECTOR_SUM_TOLERANCE`` — the same
cross-schedule spread the scalar backend shows across core counts).
Cycle totals are a cost-vector approximation, not the event-accurate
cache model — use the scalar backend for Figure-level cycle claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import Optional

import numpy as np

from ..algorithms.base import (
    Algorithm,
    MaxAlgorithm,
    MinAlgorithm,
    SumAlgorithm,
)
from ..algorithms.detect import AccumKind, detect_accum_kind
from ..hardware.config import HardwareConfig
from .context import FAST_MEM_CYCLES
from .execore import ExecutionKernel
from .scheduling import SchedulingPolicy
from .stats import ExecutionResult

#: documented sum-type state agreement bound vs the scalar backend: the
#: two backends truncate propagation at the same significance threshold
#: but in different orders, the same spread the scalar backend shows
#: across core counts and steal policies (measured worst case across the
#: execore golden matrix is ~2e-5; the bound carries the usual margin)
VECTOR_SUM_TOLERANCE = 1e-3

DEFAULT_MAX_ROUNDS = 4000

#: a round whose scattering sources own at least this share of the edges
#: scatters over the whole CSR instead of gathering their slices.  On a
#: 2-vCPU x86 host one round broke even near 0.45 on the per-source
#: program and between 0.4 and 0.7 on the per-edge one; op times barely
#: moved between 0.3 and 0.7, since a round's share is mostly either
#: small or close to 1
_DENSE_SCATTER_SHARE = 0.5


class VectorBackendError(ValueError):
    """The algorithm cannot run under the vector backend."""


# ----------------------------------------------------------------------
# Segment-reduction primitives (unit-tested against brute-force loops).
# ----------------------------------------------------------------------
def segment_sum(
    values: np.ndarray, segments: np.ndarray, num_segments: int
) -> np.ndarray:
    """Sum ``values`` into ``num_segments`` bins keyed by ``segments``.

    Segments with no contribution hold the sum identity (0.0).
    """
    return np.bincount(
        segments, weights=values, minlength=num_segments
    ).astype(np.float64, copy=False)


def segment_min(
    values: np.ndarray, segments: np.ndarray, num_segments: int
) -> np.ndarray:
    """Minimum of ``values`` per segment; empty segments hold ``+inf``."""
    out = np.full(num_segments, np.inf, dtype=np.float64)
    np.minimum.at(out, segments, values)
    return out


def segment_max(
    values: np.ndarray, segments: np.ndarray, num_segments: int
) -> np.ndarray:
    """Maximum of ``values`` per segment; empty segments hold ``-inf``."""
    out = np.full(num_segments, -np.inf, dtype=np.float64)
    np.maximum.at(out, segments, values)
    return out


# ----------------------------------------------------------------------
# Backend support probing.
# ----------------------------------------------------------------------
#: the algorithm callbacks the bulk engine replaces with ufuncs; any
#: override means per-item semantics the arrays would silently drop
_VECTORED_METHODS = ("apply", "propagate_value", "is_significant", "accum")


def unwrap_algorithm(algorithm: Algorithm) -> Algorithm:
    """Peel delegating wrappers (reorder, warm-start) down to the
    algorithm whose class defines the accumulator semantics."""
    seen = 0
    while hasattr(algorithm, "_inner") and seen < 8:
        algorithm = algorithm._inner
        seen += 1
    return algorithm


def vector_unsupported_reason(algorithm: Algorithm) -> Optional[str]:
    """Why ``algorithm`` cannot run vectorized, or None when it can.

    The bulk engine replaces ``apply``/``propagate_value``/
    ``is_significant``/``accum`` with per-kind ufuncs and ``edge_compute``
    with the linear (mu, xi, cap) form, so it requires the stock
    Sum/Min/Max semantics and a transformable (Property 2) edge function.
    """
    inner = unwrap_algorithm(algorithm)
    if not inner.transformable:
        return (
            f"{inner.name} is not transformable (Property 2); "
            "its edge function has no linear form"
        )
    kind = detect_accum_kind(inner)
    if kind is AccumKind.UNSUPPORTED:
        return f"{inner.name} has an unrecognised accumulator"
    if kind is AccumKind.SUM:
        base = SumAlgorithm
    elif isinstance(inner, MinAlgorithm):
        base = MinAlgorithm
    elif isinstance(inner, MaxAlgorithm):
        base = MaxAlgorithm
    else:
        return f"{inner.name} is min/max-like but not a Min/MaxAlgorithm"
    if not isinstance(inner, base):
        return f"{inner.name} does not derive from {base.__name__}"
    cls = type(inner)
    for method in _VECTORED_METHODS:
        if getattr(cls, method) is not getattr(base, method):
            return f"{inner.name} overrides {method}()"
    if cls.initial_active is not Algorithm.initial_active:
        return f"{inner.name} overrides initial_active()"
    return None


# ----------------------------------------------------------------------
# Family cost profiles.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VectorProfile:
    """What distinguishes the families under the vector backend.

    The scalar families differ in dispatch machinery (frontier queues vs
    priority worklist vs circular chain queues); under bulk execution
    those collapse to per-item cost constants plus the family's span
    name, which stays **backend-invariant** (``vertex``/``pop``/``root``)
    so flame summaries and the CI span-share gate compare like with
    like.  Each family module derives its profile from its own scalar
    model constants (see ``vector_profile()`` in ``roundbased``,
    ``minnow_rt``, and ``depgraph_rt``).
    """

    span: str  #: the family's span name ("vertex" | "pop" | "root")
    cat: str  #: tracer category for batch spans
    simd: bool  #: whether compute charges divide by the SIMD factor
    vertex_overhead: float  #: overhead cycles per applied vertex
    edge_overhead: float  #: overhead cycles per scattered edge


# ----------------------------------------------------------------------
# The bulk engine.
# ----------------------------------------------------------------------
class VectorEngine:
    """One bulk BSP execution of ``algorithm`` over ``graph``."""

    def __init__(
        self,
        graph,
        algorithm: Algorithm,
        hardware: HardwareConfig,
        system: str,
        profile: VectorProfile,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        tracer=None,
        sched: Optional[SchedulingPolicy] = None,
    ) -> None:
        reason = vector_unsupported_reason(algorithm)
        if reason is not None:
            raise VectorBackendError(
                f"backend='vector' cannot run {algorithm.name!r}: {reason}; "
                "use the default scalar backend"
            )
        self.profile = profile
        self.max_rounds = max_rounds
        self.kernel = ExecutionKernel(
            graph, algorithm, hardware, system, profile.simd,
            tracer=tracer, sched=sched,
        )
        kernel = self.kernel
        # the live states are this engine's array: run() checks it for
        # divergence at each barrier, not ctx.states
        kernel.watch_states = None
        self.ctx = kernel.ctx
        ctx = self.ctx
        kernel.declare_span(profile.span)
        # ctx.graph, not the argument: SimContext symmetrises for
        # algorithms that ask (WCC), and the edge program must cover the
        # edges the run actually scatters over.
        g = ctx.graph
        self.n = g.num_vertices
        # vertex-sized arrays are held as int64 regardless of the
        # graph's storage width: offsets feed byte-address arithmetic
        # (stride * offset overflows int32) and the gather's
        # ``starts - cumsum`` goes transiently negative (uint32 would
        # wrap).  They are O(|V|) — cheap.  The edge-sized ``targets``
        # stays at the graph's (possibly narrow, possibly mmap'd) dtype:
        # it is only ever used as fancy-index input, which is
        # width-safe, and it is the array narrowing exists to shrink.
        self.offsets = np.asarray(g.offsets, dtype=np.int64)
        self.targets = g.targets
        self.degrees = np.diff(self.offsets)
        self.nonisolated = np.nonzero(self.degrees)[0]
        self.owner = np.asarray(ctx._owner, dtype=np.int64)
        self.kind = ctx.accum_kind
        inner = unwrap_algorithm(ctx.algorithm)
        self.epsilon = float(getattr(inner, "epsilon", 0.0))
        # the accumulator as ufuncs: fold, segment reduction, and the
        # min/max activation test (a pending value that beats the state)
        if self.kind is AccumKind.SUM:
            self._fold, self._segment, self._beats = np.add, segment_sum, None
        elif isinstance(inner, MinAlgorithm):
            self._fold, self._segment, self._beats = np.minimum, segment_min, np.less
        else:
            self._fold, self._segment, self._beats = np.maximum, segment_max, np.greater
        self._build_edge_program(g, ctx.algorithm)
        self._build_cost_vectors(hardware)

    # ------------------------------------------------------------------
    def _build_edge_program(self, graph, algorithm: Algorithm) -> None:
        """Build the linear edge program with one ``edge_linear_arrays`` call.

        This is the set-up that buys ufunc-only rounds: no Python call
        per edge per round, and none per vertex at set-up for the stock
        algorithms.  The reorder wrapper's ``edge_linear_arrays``
        translates ids, so building through the (possibly wrapped)
        algorithm keeps permuted runs exact.

        Unweighted graphs get a per-*source* program: every out-edge of
        ``v`` shares the arguments ``(v, 1.0)``, so the call covers the
        non-isolated sources and the coefficients are held per vertex.
        Weighted graphs get a per-edge program (mu/xi/cap may depend on
        the weight arbitrarily): the call covers every edge.
        """
        self.per_source = graph.weights is None
        if self.per_source:
            sources = self.nonisolated
            weights = np.ones(sources.size)
        else:
            sources = np.repeat(np.arange(self.n), self.degrees)
            weights = np.asarray(graph.weights, dtype=np.float64)
        try:
            program = algorithm.edge_linear_arrays(sources, weights, graph)
        except ValueError as err:
            raise VectorBackendError(
                f"backend='vector' cannot run {algorithm.name!r}: {err}"
            ) from err
        self.capped = bool(np.isfinite(program[2]).any())
        if self.per_source:
            # indexed by vertex id; isolated vertices never scatter, so
            # their zero entries are never read
            per_vertex = np.zeros((3, self.n))
            per_vertex[:, sources] = program
            program = per_vertex
        self.mu, self.xi, self.cap = program

    def _build_cost_vectors(self, hardware: HardwareConfig) -> None:
        """Per-vertex category costs, split apply vs scatter.

        Mirrors the access sequence the scalar families charge per item
        (state entry/update, offsets read, per-*line* target/weight
        streams, one scatter RMW per edge) with every memory access at
        the flat :data:`FAST_MEM_CYCLES` — the same flat cost the
        ``fast`` fidelity mode charges, precomputable because it has no
        cache state.
        """
        timing = hardware.timing
        line = hardware.line_bytes
        layout = self.ctx.layout
        profile = self.profile
        deg = self.degrees.astype(np.float64)
        offsets = self.offsets
        n = self.n

        # distinct cache lines under each vertex's contiguous edge slice
        def slice_lines(region) -> np.ndarray:
            begin = region.base + region.stride * offsets[:-1]
            last = region.base + region.stride * (offsets[1:] - 1)
            lines = (last // line) - (begin // line) + 1
            return np.where(self.degrees > 0, lines, 0).astype(np.float64)

        target_lines = slice_lines(layout.targets)
        weight_lines = (
            slice_lines(layout.weights)
            if self.ctx.graph.is_weighted
            else np.zeros(n)
        )
        is_sum = self.kind is AccumKind.SUM

        # apply: delta+state reads, state+delta writes, one update op;
        # the same costs for every vertex
        self.apply_costs = (
            float(timing.update_op),
            4.0 * FAST_MEM_CYCLES,
            float(profile.vertex_overhead),
        )
        self.apply_compute, self.apply_mem, self.apply_overhead = (
            np.full(n, cost) for cost in self.apply_costs
        )
        self.apply_state_mem = self.apply_mem

        # scatter: offsets read + streamed target/weight lines + one
        # RMW per edge into the target delta (+ a target-state read for
        # the min/max activation test, as the scalar families charge)
        rmw = FAST_MEM_CYCLES + 1.0
        state_reads = 0.0 if is_sum else FAST_MEM_CYCLES
        scatter_state = deg * (rmw + state_reads)
        self.scatter_mem = (
            FAST_MEM_CYCLES * (1.0 + target_lines + weight_lines)
            + scatter_state
        )
        self.scatter_state_mem = scatter_state
        self.scatter_compute = deg * float(timing.edge_op)
        self.scatter_overhead = deg * float(profile.edge_overhead)
        self._build_charge_sums()

    def _build_charge_sums(self) -> None:
        """Per-core cost sums that are fixed for the whole run.

        ``np.bincount`` adds a core's weights one at a time, in vertex
        order.  The apply columns are constants, so a core that applies
        ``k`` vertices sums ``k`` copies of each: entry ``k`` of a
        running-sum table built by ``np.cumsum``, which adds in the same
        order and is equal bit for bit.  A round whose scattering
        vertices are all the non-isolated ones makes the same scatter
        sums every time: they are computed here, by the bincounts the
        round would make.
        """
        cores = self.ctx.num_cores
        owner = self.owner
        # the cores own contiguous vertex ranges: core c's start is
        # core_bounds[c], and the number of a sorted id set's vertices it
        # owns is the gap between two binary searches
        self.core_bounds = np.searchsorted(owner, np.arange(cores + 1))
        depth = int(np.diff(self.core_bounds).max())
        # compute, mem (also the state mem: apply_state_mem is apply_mem)
        # and overhead; entry k of a table is the sum of k copies
        self.apply_sum_tables = tuple(
            np.concatenate(([0.0], np.cumsum(np.full(depth, cost))))
            for cost in self.apply_costs
        )
        self.scatter_columns = (
            self.scatter_compute, self.scatter_mem,
            self.scatter_state_mem, self.scatter_overhead,
        )
        owners = owner[self.nonisolated]
        self.full_scatter_sums = tuple(
            np.bincount(owners, weights=column[self.nonisolated], minlength=cores)
            for column in self.scatter_columns
        )

    # ------------------------------------------------------------------
    # Vectorized accumulator semantics.
    # ------------------------------------------------------------------
    def _significant(
        self, pending: np.ndarray, states: np.ndarray
    ) -> np.ndarray:
        if self._beats is None:
            return np.abs(pending) > self.epsilon
        return self._beats(pending, states)

    def _influence(self, src, values, counts, edges, dense) -> np.ndarray:
        """Per-edge influence ``min(mu*value + xi, cap)`` of this round's
        scattering sources ``src``.

        A sparse round returns one entry per gathered edge (``edges``
        indexes the CSR); a dense round returns one per CSR edge, the
        edges of every other source holding the accumulator identity,
        which leaves the segment reduction unchanged.
        """
        def expand(per_source, fill):
            if not dense:
                return np.repeat(per_source, counts)
            per_vertex = np.full(self.n, fill)
            per_vertex[src] = per_source
            return np.repeat(per_vertex, self.degrees)

        if self.per_source:
            influence = self.mu[src] * values + self.xi[src]
            if self.capped:
                np.minimum(influence, self.cap[src], out=influence)
            return expand(influence, self.ctx.identity)
        influence = self.mu[edges] * expand(values, 0.0) + self.xi[edges]
        if self.capped:
            np.minimum(influence, self.cap[edges], out=influence)
        if dense:
            scattered = expand(np.ones(src.size, dtype=bool), False)
            influence[~scattered] = self.ctx.identity
        return influence

    # ------------------------------------------------------------------
    def _apply(self, idx: np.ndarray) -> np.ndarray:
        """Fold the frontier's pending deltas into its states and reset
        them to the identity (one ufunc per accumulator kind).

        ``idx`` is the frontier's sorted vertex ids.  A frontier that
        holds every vertex works on the whole arrays, with no gather or
        scatter; the elementwise arithmetic is the same.  Returns what
        each frontier vertex propagates: the applied increment under
        sum, the new state under min/max.
        """
        identity = self.ctx.identity
        if idx.size == self.n:
            old = self.states
            new = self._fold(old, self.pending)
            self.states = new
            self.pending.fill(identity)
        else:
            old = self.states[idx]
            new = self._fold(old, self.pending[idx])
            self.states[idx] = new
            self.pending[idx] = identity
        return (new - old) if self.kind is AccumKind.SUM else new

    def _charge_round(
        self, applied: np.ndarray, scattering: np.ndarray
    ) -> np.ndarray:
        """Fold this round's per-vertex costs into the per-core clocks.

        ``applied`` and ``scattering`` are sorted vertex ids, the
        scattering ones non-isolated.  Each per-core sum equals one
        ``np.bincount`` of a cost column over the owners of those
        vertices, in vertex order.  The apply side needs only each core's
        vertex count (see :meth:`_build_charge_sums`), and a scatter side
        that holds every non-isolated vertex reads the per-run sums.

        Returns the per-core applied-vertex counts (the batch sizes for
        span accounting).
        """
        ctx = self.ctx
        cores = ctx.num_cores
        owner = self.owner

        counts = np.diff(np.searchsorted(applied, self.core_bounds))
        a_compute, a_mem, a_overhead = (
            table[counts] for table in self.apply_sum_tables
        )
        if scattering.size == self.nonisolated.size:
            scatter_sums = self.full_scatter_sums
        else:
            owners = owner[scattering]
            scatter_sums = [
                np.bincount(owners, weights=column[scattering], minlength=cores)
                for column in self.scatter_columns
            ]
        s_compute, s_mem, s_state_mem, s_overhead = scatter_sums

        compute = a_compute + s_compute
        if self.profile.simd:
            compute = compute / ctx.timing.simd_factor
        mem = a_mem + s_mem
        state_mem = a_mem + s_state_mem
        overhead = a_overhead + s_overhead
        total = compute + mem + overhead
        for core in range(cores):
            if total[core]:
                ctx.clock[core] += float(total[core])
                ctx.compute[core] += float(compute[core])
                ctx.mem[core] += float(mem[core])
                ctx.state_mem[core] += float(state_mem[core])
                ctx.overhead[core] += float(overhead[core])
        return counts

    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        ctx = self.ctx
        kernel = self.kernel
        profile = self.profile
        metrics = ctx.metrics
        n = self.n
        offsets = self.offsets
        targets = self.targets
        degrees = self.degrees
        has_edges = degrees > 0
        is_sum = self.kind is AccumKind.SUM

        self.states = np.asarray(ctx.states, dtype=np.float64)
        self.pending = np.asarray(ctx.pending, dtype=np.float64)
        metrics.set("backend.vector", 1.0)
        batches = 0
        edges_gathered = 0
        applied_total = 0
        flushes = 0

        converged = True
        frontier = self._significant(self.pending, self.states)
        for round_index in range(self.max_rounds):
            if not frontier.any():
                break
            start_peak, updates_before = kernel.begin_round(round_index)
            w0 = perf_counter_ns()
            idx = np.nonzero(frontier)[0]
            full = idx.size == n
            clocks_before = list(ctx.clock)

            values = self._apply(idx)
            ctx.updates += int(idx.size)
            applied_total += int(idx.size)

            # scatter set: sum-type skips exact-zero propagations, and
            # zero-degree vertices have nothing to gather
            scatter_mask = has_edges if full else degrees[idx] > 0
            if is_sum:
                scatter_mask = (values != 0.0) & scatter_mask
            src = np.nonzero(scatter_mask)[0] if full else idx[scatter_mask]
            src_values = values[scatter_mask]

            if src.size:
                counts = degrees[src]
                total_edges = int(counts.sum())
                dense = total_edges >= _DENSE_SCATTER_SHARE * targets.size
                if dense:
                    edges = slice(None)
                    tgt = targets
                else:
                    # bulk CSR slice gather: edge index of every scattered edge
                    starts = offsets[src]
                    firsts = np.repeat(starts - np.insert(np.cumsum(counts), 0, 0)[:-1], counts)
                    edges = np.arange(total_edges, dtype=np.int64) + firsts
                    tgt = targets[edges]
                influence = self._influence(src, src_values, counts, edges, dense)
                self.pending = self._fold(
                    self.pending, self._segment(influence, tgt, n)
                )
                ctx.edge_ops += total_edges
                edges_gathered += total_edges

            # cycle charging from the precomputed cost vectors
            batch_counts = self._charge_round(idx, src)
            host = perf_counter_ns() - w0
            active_cores = int((batch_counts > 0).sum())
            for core in range(ctx.num_cores):
                count = int(batch_counts[core])
                if count:
                    kernel.note_batch(
                        profile.span,
                        profile.cat,
                        core,
                        count,
                        clocks_before[core],
                        host_ns=host // active_cores,
                    )
                    batches += 1

            # round boundary: publish staged deltas (a no-op for the
            # bulk engine, which folds into pending directly, but the
            # visibility point and cadence reset stay on the kernel path)
            kernel.flush_all(None, reset=True)
            flushes += 1
            kernel.end_round(
                round_index, int(idx.size), start_peak, updates_before
            )
            if is_sum and not np.isfinite(self.states).all():
                # diverged (see ExecutionKernel.end_round)
                converged = False
                break
            frontier = self._significant(self.pending, self.states)
        else:
            converged = False

        # the context takes the arrays as they are: its result reads
        # them without a copy
        ctx.states = self.states
        ctx.pending = self.pending
        metrics.set("backend.batches", float(batches))
        metrics.set("backend.edges_gathered", float(edges_gathered))
        metrics.set("backend.applied_vertices", float(applied_total))
        metrics.set("backend.flushes", float(flushes))
        return kernel.finish(converged)


# ----------------------------------------------------------------------
def run_vector(
    graph,
    algorithm: Algorithm,
    hardware: HardwareConfig,
    system: str,
    profile: VectorProfile,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    tracer=None,
    sched: Optional[SchedulingPolicy] = None,
) -> ExecutionResult:
    """Run ``algorithm`` over ``graph`` under the vector backend."""
    return VectorEngine(
        graph,
        algorithm,
        hardware,
        system,
        profile,
        max_rounds=max_rounds,
        tracer=tracer,
        sched=sched,
    ).run()
