"""The batched NumPy execution backend (``backend="vector"``).

Three layers:

* property-style unit tests for the segment-reduction primitives and the
  bulk CSR gather against brute-force loops over random CSR fragments;
* cost-charging: the precomputed per-vertex cost vectors folded per core
  must equal a brute-force per-vertex walk of the same model constants,
  and the per-core sums must equal, bit for bit, one ``np.bincount`` per
  cost column (a ``hypothesis`` property with non-dyadic constants);
* end-to-end equivalence: the full execore golden matrix re-run under
  ``backend="vector"`` — min/max-accumulator states bit-identical to
  the scalar goldens, sum-type within the documented
  :data:`repro.runtime.vector.VECTOR_SUM_TOLERANCE` — plus the counter
  contract (``obs.backend.*`` stamped, span names backend-invariant).
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import algorithms, runtime
from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.hardware import HardwareConfig
from repro.hardware.config import CoreTiming
from repro.runtime import depgraph_rt, minnow_rt, roundbased, vector
from repro.runtime.vector import (
    VECTOR_SUM_TOLERANCE,
    VectorBackendError,
    VectorEngine,
    VectorProfile,
    segment_max,
    segment_min,
    segment_sum,
    vector_unsupported_reason,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"
META = json.loads((GOLDEN_DIR / "execore_meta.json").read_text())


# ----------------------------------------------------------------------
# Segment-reduction primitives vs brute force.
# ----------------------------------------------------------------------
def _random_segments(rng, max_segments=12, max_values=60):
    n = rng.randint(1, max_segments)
    size = rng.randint(0, max_values)
    segments = np.array(
        [rng.randrange(n) for _ in range(size)], dtype=np.int64
    )
    values = np.array(
        [rng.uniform(-50, 50) for _ in range(size)], dtype=np.float64
    )
    return values, segments, n


class TestSegmentReductions:
    def test_sum_matches_brute_force_on_fuzz(self):
        rng = random.Random(3)
        for _ in range(100):
            values, segments, n = _random_segments(rng)
            want = np.zeros(n)
            for v, s in zip(values, segments):
                want[s] += v
            np.testing.assert_allclose(
                segment_sum(values, segments, n), want, rtol=1e-12
            )

    def test_min_matches_brute_force_on_fuzz(self):
        rng = random.Random(5)
        for _ in range(100):
            values, segments, n = _random_segments(rng)
            want = np.full(n, np.inf)
            for v, s in zip(values, segments):
                want[s] = min(want[s], v)
            assert np.array_equal(segment_min(values, segments, n), want)

    def test_max_matches_brute_force_on_fuzz(self):
        rng = random.Random(7)
        for _ in range(100):
            values, segments, n = _random_segments(rng)
            want = np.full(n, -np.inf)
            for v, s in zip(values, segments):
                want[s] = max(want[s], v)
            assert np.array_equal(segment_max(values, segments, n), want)

    def test_empty_segments_hold_identities(self):
        values = np.array([1.0])
        segments = np.array([2], dtype=np.int64)
        assert segment_sum(values, segments, 4).tolist() == [0.0, 0.0, 1.0, 0.0]
        assert segment_min(values, segments, 4)[0] == np.inf
        assert segment_max(values, segments, 4)[0] == -np.inf

    def test_duplicate_targets_fold(self):
        # the scatter's common case: several edges into one target vertex
        values = np.array([3.0, -1.0, 5.0])
        segments = np.array([1, 1, 1], dtype=np.int64)
        assert segment_sum(values, segments, 2)[1] == 7.0
        assert segment_min(values, segments, 2)[1] == -1.0
        assert segment_max(values, segments, 2)[1] == 5.0


def _random_csr(rng, max_vertices=20, edge_prob=0.25):
    n = rng.randint(2, max_vertices)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < edge_prob
    ]
    if not edges:
        edges = [(0, 1)]
    return CSRGraph.from_edges(n, edges)


class TestBulkGather:
    """The round loop's CSR slice gather, isolated and fuzzed."""

    @staticmethod
    def gather(graph, src):
        offsets = graph.offsets
        degrees = np.diff(offsets)
        counts = degrees[src]
        total = int(counts.sum())
        starts = offsets[src]
        firsts = np.repeat(
            starts - np.insert(np.cumsum(counts), 0, 0)[:-1], counts
        )
        return np.arange(total, dtype=np.int64) + firsts

    def test_matches_per_vertex_ranges_on_fuzz(self):
        rng = random.Random(11)
        for _ in range(50):
            graph = _random_csr(rng)
            n = graph.num_vertices
            src = np.array(
                sorted(rng.sample(range(n), rng.randint(1, n))),
                dtype=np.int64,
            )
            src = src[np.diff(graph.offsets)[src] > 0]
            if not src.size:
                continue
            edge_idx = self.gather(graph, src)
            want = []
            for v in src:
                begin, end = graph.edge_range(int(v))
                want.extend(range(begin, end))
            assert edge_idx.tolist() == want


# ----------------------------------------------------------------------
# Cost charging: vectors vs a brute-force walk of the same model.
# ----------------------------------------------------------------------
class TestCostCharging:
    def make_engine(self, cores=4):
        rng = random.Random(13)
        graph = _random_csr(rng, max_vertices=40)
        hw = HardwareConfig.scaled(num_cores=cores)
        profile = roundbased.vector_profile(roundbased.LIGRA_O, hw)
        return (
            VectorEngine(
                graph, algorithms.make("pagerank"), hw, "ligra-o", profile
            ),
            hw,
        )

    def test_per_core_totals_match_per_vertex_sums(self):
        engine, hw = self.make_engine()
        ctx = engine.ctx
        rng = random.Random(17)
        n = engine.n
        applied = np.array(
            sorted(rng.sample(range(n), n // 2)), dtype=np.int64
        )
        scattering = applied[np.diff(ctx.graph.offsets)[applied] > 0]
        clocks0 = list(ctx.clock)
        counts = engine._charge_round(applied, scattering)

        want_clock = [0.0] * ctx.num_cores
        want_counts = [0] * ctx.num_cores
        simd = hw.timing.simd_factor
        for v in applied.tolist():
            core = int(engine.owner[v])
            want_counts[core] += 1
            want_clock[core] += (
                engine.apply_compute[v] / simd
                + engine.apply_mem[v]
                + engine.apply_overhead[v]
            )
        for v in scattering.tolist():
            core = int(engine.owner[v])
            want_clock[core] += (
                engine.scatter_compute[v] / simd
                + engine.scatter_mem[v]
                + engine.scatter_overhead[v]
            )
        assert counts.tolist() == want_counts
        got = [c - c0 for c, c0 in zip(ctx.clock, clocks0)]
        np.testing.assert_allclose(got, want_clock, rtol=1e-12)

    def test_zero_degree_vertices_charge_no_scatter_lines(self):
        engine, _ = self.make_engine()
        zero_deg = np.nonzero(engine.degrees == 0)[0]
        if zero_deg.size:
            assert not engine.scatter_compute[zero_deg].any()
            assert not engine.scatter_overhead[zero_deg].any()

    def test_scatter_cost_grows_with_degree(self):
        engine, _ = self.make_engine()
        hi = int(np.argmax(engine.degrees))
        lo_candidates = np.nonzero(engine.degrees == 1)[0]
        if lo_candidates.size and engine.degrees[hi] > 1:
            lo = int(lo_candidates[0])
            assert engine.scatter_mem[hi] > engine.scatter_mem[lo]
            assert engine.scatter_compute[hi] > engine.scatter_compute[lo]


def _bincount_charge(engine, applied, scattering):
    """The per-core applied counts, and copies of the context's clock and
    category lists with the round folded in as the engine folds it, each
    per-core sum one ``np.bincount`` of a cost column over the owners of
    the applied or scattering vertices, in vertex order."""
    ctx = engine.ctx
    cores = ctx.num_cores

    def per_core(vertices, *columns):
        owners = engine.owner[vertices]
        return owners, [
            np.bincount(owners, weights=column[vertices], minlength=cores)
            for column in columns
        ]

    apply_owners, (a_compute, a_mem, a_state_mem, a_overhead) = per_core(
        applied, engine.apply_compute, engine.apply_mem,
        engine.apply_state_mem, engine.apply_overhead,
    )
    _, (s_compute, s_mem, s_state_mem, s_overhead) = per_core(
        scattering, engine.scatter_compute, engine.scatter_mem,
        engine.scatter_state_mem, engine.scatter_overhead,
    )
    compute = a_compute + s_compute
    if engine.profile.simd:
        compute = compute / ctx.timing.simd_factor
    mem = a_mem + s_mem
    state_mem = a_state_mem + s_state_mem
    overhead = a_overhead + s_overhead
    total = compute + mem + overhead
    lists = [list(getattr(ctx, name)) for name in _CLOCK_LISTS]
    for core in range(cores):
        if total[core]:
            for out, part in zip(lists, (total, compute, mem, state_mem, overhead)):
                out[core] += float(part[core])
    return np.bincount(apply_owners, minlength=cores).tolist(), lists


_CLOCK_LISTS = ("clock", "compute", "mem", "state_mem", "overhead")
#: non-dyadic cost constants (tenths, or any float): sums of these
#: round, so a change in the order of the additions shows in the last bit
_COSTS = st.one_of(
    st.integers(1, 99).map(lambda k: k / 10),
    st.floats(0.01, 50.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _charge_cases(draw):
    """A random graph (isolated vertices included), engine constants and
    sorted applied/scattering sets of the shapes the rounds produce."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 80))
    density = draw(st.sampled_from([0.02, 0.05, 0.15, 0.4]))
    src, dst = np.nonzero(rng.random((n, n)) < density)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if not src.size:
        src, dst = np.array([0]), np.array([1])
    weights = rng.uniform(0.1, 10.0, src.size) if draw(st.booleans()) else None
    graph = CSRGraph.from_arrays(n, src, dst, weights)
    nonisolated = np.nonzero(np.diff(graph.offsets))[0]

    def subset(pool, shape):
        if shape == "full":
            return pool
        if shape == "empty":
            return pool[:0]
        if shape == "near-full":
            return np.delete(pool, rng.choice(pool.size, min(3, pool.size - 1),
                                              replace=False))
        return pool[rng.random(pool.size) < rng.random()]

    applied = subset(
        np.arange(n, dtype=np.int64),
        draw(st.sampled_from(["full", "near-full", "random"])),
    )
    scattering = subset(
        nonisolated, draw(st.sampled_from(["full", "near-full", "random", "empty"]))
    )
    return {
        "graph": graph,
        "algorithm": "pagerank" if draw(st.booleans()) else "sssp",
        "cores": draw(st.integers(1, 8)),
        "timing": CoreTiming(
            update_op=draw(_COSTS), edge_op=draw(_COSTS),
            simd_factor=draw(st.sampled_from([1.0, 2.2, 3.0])),
        ),
        "mem_cycles": draw(_COSTS),
        "profile": VectorProfile(
            span="vertex", cat="x", simd=draw(st.booleans()),
            vertex_overhead=draw(_COSTS), edge_overhead=draw(_COSTS),
        ),
        # zero clocks (round 0) show a sum's last bit; nonzero ones check
        # the fold into the running totals
        "clocks": draw(st.one_of(
            st.just([0.0] * 8), st.lists(_COSTS, min_size=8, max_size=8)
        )),
        "applied": applied,
        "scattering": scattering,
    }


class TestChargeExactness:
    @settings(max_examples=80, deadline=None)
    @given(case=_charge_cases())
    def test_per_core_sums_equal_per_column_bincounts(self, case):
        graph = case["graph"]
        if case["algorithm"] == "sssp" and not graph.is_weighted:
            graph = graph.with_weights(np.ones(graph.num_edges))
        hw = HardwareConfig.scaled(num_cores=case["cores"])
        hw = replace(hw, timing=case["timing"])
        saved = vector.FAST_MEM_CYCLES
        vector.FAST_MEM_CYCLES = case["mem_cycles"]
        try:
            engine = VectorEngine(
                graph, _make_algorithm(case["algorithm"]), hw, "ligra-o",
                case["profile"],
            )
        finally:
            vector.FAST_MEM_CYCLES = saved
        ctx = engine.ctx
        for name in _CLOCK_LISTS:
            getattr(ctx, name)[:] = case["clocks"][: ctx.num_cores]

        want_counts, want = _bincount_charge(
            engine, case["applied"], case["scattering"]
        )
        counts = engine._charge_round(case["applied"], case["scattering"])
        assert counts.tolist() == want_counts
        for name, want_list in zip(_CLOCK_LISTS, want):
            assert getattr(ctx, name) == want_list, name


# ----------------------------------------------------------------------
# The support contract.
# ----------------------------------------------------------------------
class TestSupportProbe:
    def test_stock_algorithms_supported(self):
        for name in ("pagerank", "katz", "sssp", "bfs", "wcc", "sswp"):
            assert vector_unsupported_reason(algorithms.make(name)) is None

    def test_kcore_rejected_with_reason(self):
        reason = vector_unsupported_reason(algorithms.make("kcore"))
        assert reason is not None and "transformable" in reason

    def test_run_raises_clean_error_for_kcore(self):
        graph = CSRGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(VectorBackendError, match="kcore"):
            runtime.run(
                "ligra",
                graph,
                algorithms.make("kcore"),
                HardwareConfig.scaled(num_cores=2),
                backend="vector",
            )

    def test_unknown_backend_rejected(self):
        graph = CSRGraph.from_edges(2, [(0, 1)])
        with pytest.raises(KeyError, match="unknown backend"):
            runtime.run(
                "ligra",
                graph,
                algorithms.make("pagerank"),
                HardwareConfig.scaled(num_cores=2),
                backend="gpu",
            )


# ----------------------------------------------------------------------
# Family profiles: span names are backend-invariant.
# ----------------------------------------------------------------------
class TestFamilyProfiles:
    def test_span_names_match_scalar_families(self):
        hw = HardwareConfig.scaled(num_cores=8)
        assert roundbased.vector_profile(roundbased.LIGRA, hw).span == "vertex"
        assert minnow_rt.vector_profile(hw).span == "pop"
        opts = depgraph_rt.DepGraphOptions()
        assert depgraph_rt.vector_profile(opts, hw).span == "root"

    def test_depgraph_software_pays_sw_traversal(self):
        hw = HardwareConfig.scaled(num_cores=8)
        sw = depgraph_rt.vector_profile(
            depgraph_rt.DepGraphOptions(hardware=False), hw
        )
        hw_prof = depgraph_rt.vector_profile(
            depgraph_rt.DepGraphOptions(hardware=True), hw
        )
        assert sw.edge_overhead == hw.timing.sw_traverse_op
        assert hw_prof.edge_overhead == depgraph_rt.BUFFER_POP_CYCLES
        assert sw.edge_overhead > hw_prof.edge_overhead

    def test_single_core_roundbased_pays_no_atomics(self):
        assert (
            roundbased.vector_profile(
                roundbased.LIGRA_O, HardwareConfig.scaled(num_cores=1)
            ).edge_overhead
            == 0.0
        )


# ----------------------------------------------------------------------
# Golden equivalence: the execore matrix under backend="vector".
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_states():
    return np.load(GOLDEN_DIR / "execore_states.npz")


@pytest.fixture(scope="module")
def golden_graphs():
    cache = {}

    def get(dataset):
        if dataset not in cache:
            scale = (
                META["scale"]
                if dataset == META["dataset"]
                else META["alt_scale"]
            )
            cache[dataset] = datasets.load(dataset, scale=scale, weighted=True)
        return cache[dataset]

    return get


def _make_algorithm(name):
    if name == "sssp":
        return algorithms.make("sssp", source=0)
    return algorithms.make(name)


@pytest.mark.parametrize("key", sorted(META["runs"]))
def test_vector_states_match_golden(key, golden_states, golden_graphs):
    """Every scalar golden configuration, re-run under the vector backend.

    States only: simulated cycles differ by design (flat cost vectors vs
    the event-accurate model — DESIGN.md, substitution 7), but the
    *answer* must agree — bit-identical for min/max accumulators, within
    the documented tolerance for sum-type.
    """
    info = META["runs"][key]
    graph = golden_graphs(info["dataset"])
    hw = HardwareConfig.scaled(num_cores=META["cores"])
    result = runtime.run(
        info["system"],
        graph,
        _make_algorithm(info["algorithm"]),
        hw,
        steal_policy=info["steal_policy"],
        reorder=info["reorder"],
        backend="vector",
    )
    got = np.asarray(result.states, dtype=np.float64)
    golden = golden_states[key]
    if info["algorithm"] == "pagerank":  # sum accumulator: tolerance
        both_inf = np.isinf(got) & np.isinf(golden)
        diff = np.max(np.abs(np.where(both_inf, 0.0, got - golden)))
        assert diff < VECTOR_SUM_TOLERANCE
    else:  # min-style accumulators must be bit-identical
        assert np.array_equal(got, golden)
    assert bool(result.converged)


# ----------------------------------------------------------------------
# The counter contract.
# ----------------------------------------------------------------------
class TestCounterContract:
    @pytest.fixture(scope="class")
    def pair(self):
        graph = datasets.load("GL", scale=0.05, weighted=True)
        hw = HardwareConfig.scaled(num_cores=8)
        scalar = runtime.run(
            "depgraph-h", graph, algorithms.make("pagerank"), hw
        )
        vector = runtime.run(
            "depgraph-h",
            graph,
            algorithms.make("pagerank"),
            hw,
            backend="vector",
        )
        return scalar, vector

    def test_backend_flag_stamped_on_both(self, pair):
        scalar, vector = pair
        assert scalar.extra["obs.backend.vector"] == 0.0
        assert vector.extra["obs.backend.vector"] == 1.0

    def test_vector_counters_present(self, pair):
        _, vector = pair
        for name in (
            "obs.backend.batches",
            "obs.backend.edges_gathered",
            "obs.backend.applied_vertices",
            "obs.backend.flushes",
        ):
            assert vector.extra[name] > 0.0, name

    def test_span_names_invariant_across_backends(self, pair):
        scalar, vector = pair
        scalar_spans = {
            k for k in scalar.extra if k.startswith("obs.span.")
        }
        vector_spans = {
            k for k in vector.extra if k.startswith("obs.span.")
        }
        assert scalar_spans == vector_spans
        assert vector.extra["obs.span.root.count"] > 0.0

    def test_shared_counter_families_present(self, pair):
        _, vector = pair
        # the families the perf gate and metrics artifacts read
        for name in (
            "obs.sim.cycles",
            "obs.cache.llc.hit_rate",
            "obs.sched.steals_attempted",
            "obs.reorder.applied",
        ):
            assert name in vector.extra, name

    def test_edge_ops_and_updates_accounted(self, pair):
        _, vector = pair
        assert vector.total_updates == int(
            vector.extra["obs.backend.applied_vertices"]
        )
        assert vector.extra["obs.backend.edges_gathered"] > 0


# ----------------------------------------------------------------------
# CLI smoke.
# ----------------------------------------------------------------------
class TestCLI:
    def test_run_accepts_backend_flag(self, capsys):
        from repro.__main__ import main

        code = main(
            [
                "run",
                "--system",
                "ligra",
                "--dataset",
                "GL",
                "--algorithm",
                "sssp",
                "--scale",
                "0.05",
                "--cores",
                "4",
                "--backend",
                "vector",
            ]
        )
        assert code == 0
        assert "converged=True" in capsys.readouterr().out
