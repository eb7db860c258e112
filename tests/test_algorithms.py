"""Unit tests for the GAS algorithm definitions (Figure 1 / Table I)."""

import math

import pytest

from repro import algorithms
from repro.algorithms import (
    Adsorption,
    BFS,
    IncrementalPageRank,
    KCore,
    KatzCentrality,
    SSSP,
    SSWP,
    WCC,
)
from repro.algorithms.detect import (
    AccumKind,
    detect_accum_kind,
    supports_transformation,
)
from repro.graph.csr import CSRGraph

INF = math.inf


@pytest.fixture
def graph():
    return CSRGraph.from_edges(
        4, [(0, 1), (0, 2), (1, 3), (2, 3)], weights=[1.0, 2.0, 3.0, 4.0]
    )


class TestPageRank:
    def test_accum_is_sum(self, graph):
        alg = IncrementalPageRank()
        assert alg.accum(2.0, 3.0) == 5.0
        assert detect_accum_kind(alg) is AccumKind.SUM

    def test_edge_compute_divides_by_degree(self, graph):
        alg = IncrementalPageRank(damping=0.8)
        # vertex 0 has out-degree 2
        assert alg.edge_compute(0, 1.0, 1.0, graph) == pytest.approx(0.4)

    def test_edge_linear_matches_edge_compute(self, graph):
        alg = IncrementalPageRank()
        f = alg.edge_linear(0, 1.0, graph)
        assert f(3.0) == pytest.approx(alg.edge_compute(0, 3.0, 1.0, graph))

    def test_initial_delta(self, graph):
        alg = IncrementalPageRank(damping=0.85)
        assert alg.initial_delta(0, graph) == pytest.approx(0.15)

    def test_significance_threshold(self, graph):
        alg = IncrementalPageRank(epsilon=1e-3)
        assert alg.is_significant(0.01, 0.0)
        assert not alg.is_significant(1e-4, 0.0)

    def test_invalid_damping(self):
        with pytest.raises(ValueError):
            IncrementalPageRank(damping=1.5)


class TestSSSP:
    def test_accum_is_min(self, graph):
        alg = SSSP(0)
        assert alg.accum(2.0, 3.0) == 2.0
        assert detect_accum_kind(alg) is AccumKind.MIN_MAX

    def test_edge_compute_adds_weight(self, graph):
        alg = SSSP(0)
        assert alg.edge_compute(0, 5.0, 2.5, graph) == 7.5

    def test_edge_linear(self, graph):
        alg = SSSP(0)
        f = alg.edge_linear(0, 2.5, graph)
        assert f.mu == 1.0 and f.xi == 2.5

    def test_only_source_active(self, graph):
        alg = SSSP(2)
        actives = [v for v in range(4) if alg.initial_active(v, graph)]
        assert actives == [2]

    def test_significance_requires_improvement(self, graph):
        alg = SSSP(0)
        assert alg.is_significant(3.0, 5.0)
        assert not alg.is_significant(5.0, 5.0)
        assert not alg.is_significant(7.0, 5.0)


class TestWCC:
    def test_accum_is_max(self, graph):
        alg = WCC()
        assert alg.accum(2.0, 3.0) == 3.0

    def test_all_vertices_start_active(self, graph):
        alg = WCC()
        assert all(alg.initial_active(v, graph) for v in range(4))

    def test_edge_compute_passes_label(self, graph):
        alg = WCC()
        assert alg.edge_compute(0, 3.0, 1.0, graph) == 3.0

    def test_needs_symmetric(self):
        assert WCC.needs_symmetric


class TestAdsorption:
    def test_probability_spreads_continuation(self, graph):
        alg = Adsorption(continuation=0.8)
        # vertex 0 has out-degree 2 -> probability 0.4 per edge
        assert alg.edge_compute(0, 1.0, 1.0, graph) == pytest.approx(0.4)

    def test_sparse_injections(self, graph):
        alg = Adsorption(injections={1: 2.0})
        assert alg.initial_delta(1, graph) == 2.0
        assert alg.initial_delta(0, graph) == 0.0
        assert alg.initial_active(1, graph)
        assert not alg.initial_active(0, graph)


class TestExtensions:
    def test_sswp_edge_compute_is_bottleneck(self, graph):
        alg = SSWP(0)
        assert alg.edge_compute(0, 5.0, 2.0, graph) == 2.0
        assert alg.edge_compute(0, 1.0, 2.0, graph) == 1.0

    def test_sswp_edge_linear_cap(self, graph):
        alg = SSWP(0)
        f = alg.edge_linear(0, 2.0, graph)
        assert f(5.0) == 2.0 and f(1.0) == 1.0

    def test_katz_attenuation(self, graph):
        alg = KatzCentrality(attenuation=0.2)
        assert alg.edge_compute(0, 2.0, 1.0, graph) == pytest.approx(0.4)

    def test_bfs_unit_distance(self, graph):
        alg = BFS(0)
        assert alg.edge_compute(0, 3.0, 99.0, graph) == 4.0

    def test_kcore_not_transformable(self):
        assert not KCore(3).transformable
        assert not supports_transformation(KCore(3))

    def test_kcore_initially_active_when_under_k(self, graph):
        # symmetrised degree of every vertex in the fixture is 2
        from repro.algorithms.reference import symmetrize

        sym = symmetrize(graph)
        alg = KCore(3)
        assert all(alg.initial_active(v, sym) for v in range(4))
        alg2 = KCore(2)
        assert not any(alg2.initial_active(v, sym) for v in range(4))

    def test_kcore_death_fires_once(self, graph):
        alg = KCore(3)
        # crossing from >=k to <k propagates -1; staying below does not
        assert alg.propagate_value(0, 3.0, 2.0, graph) == -1.0
        assert alg.propagate_value(0, 2.0, 1.0, graph) == 0.0


class TestDetect:
    def test_probe_values(self):
        assert detect_accum_kind(IncrementalPageRank()) is AccumKind.SUM
        assert detect_accum_kind(SSSP(0)) is AccumKind.MIN_MAX
        assert detect_accum_kind(WCC()) is AccumKind.MIN_MAX
        assert detect_accum_kind(SSWP(0)) is AccumKind.MIN_MAX

    def test_unsupported_accum(self):
        class Weird(IncrementalPageRank):
            def accum(self, a, b):
                return a + b + 1  # probe(1, 1) == 3: neither sum nor min/max

        assert detect_accum_kind(Weird()) is AccumKind.UNSUPPORTED
        assert not supports_transformation(Weird())

    def test_crashing_accum(self):
        class Crashy(IncrementalPageRank):
            def accum(self, a, b):
                raise RuntimeError("boom")

        assert detect_accum_kind(Crashy()) is AccumKind.UNSUPPORTED


class TestRegistry:
    def test_make_known(self):
        alg = algorithms.make("sssp", source=3)
        assert isinstance(alg, SSSP)
        assert alg.source == 3

    def test_make_unknown(self):
        with pytest.raises(KeyError):
            algorithms.make("pagerank2")

    def test_paper_algorithms_complete(self):
        assert set(algorithms.PAPER_ALGORITHMS) == {
            "pagerank",
            "adsorption",
            "sssp",
            "wcc",
        }


class TestDivergence:
    """A sum-type run whose states overflow is reported as diverged."""

    @pytest.fixture(scope="class")
    def gl(self):
        from repro.graph import datasets

        return datasets.load("GL", scale=0.1)

    @pytest.mark.parametrize("backend", ["scalar", "vector"])
    def test_katz_default_attenuation_diverges_on_gl(self, gl, backend):
        import warnings

        import numpy as np

        from repro import runtime
        from repro.hardware import HardwareConfig

        with warnings.catch_warnings():
            # the vector backend's folds overflow on the way to inf
            warnings.simplefilter("ignore", RuntimeWarning)
            result = runtime.run(
                "depgraph-h", gl, algorithms.make("katz"),
                HardwareConfig.scaled(num_cores=8), backend=backend,
            )
        assert not np.isfinite(result.states).all()
        assert result.converged is False

    @pytest.mark.parametrize("backend", ["scalar", "vector"])
    def test_katz_small_attenuation_converges_on_gl(self, gl, backend):
        import numpy as np

        from repro import runtime
        from repro.hardware import HardwareConfig

        result = runtime.run(
            "depgraph-h", gl, algorithms.make("katz", attenuation=0.01),
            HardwareConfig.scaled(num_cores=8), backend=backend,
        )
        assert np.isfinite(result.states).all()
        assert result.converged is True

    def test_min_type_inf_states_still_converge(self):
        from repro import runtime
        from repro.hardware import HardwareConfig

        # vertex 2 is unreachable from the source: its distance stays inf
        g = CSRGraph.from_edges(3, [(0, 1), (2, 0)], weights=[1.0, 1.0])
        result = runtime.run(
            "depgraph-h", g, algorithms.make("sssp", source=0),
            HardwareConfig.scaled(num_cores=2),
        )
        assert math.isinf(result.states[2])
        assert result.converged is True


class TestDivergenceHalt:
    """A diverging sum-type run stops at the first round barrier whose
    states hold a non-finite value."""

    @pytest.fixture(scope="class")
    def gl(self):
        from repro.graph import datasets

        return datasets.load("GL", scale=0.1)

    def test_scalar_katz_stops_at_the_overflow(self, gl, monkeypatch):
        import numpy as np

        from repro import runtime
        from repro.hardware import HardwareConfig
        from repro.runtime.execore import ExecutionKernel

        finite_at_barrier = []
        end_round = ExecutionKernel.end_round

        def spy(self, *args):
            diverged = end_round(self, *args)
            finite_at_barrier.append(bool(np.isfinite(self.ctx.states).all()))
            return diverged

        monkeypatch.setattr(ExecutionKernel, "end_round", spy)
        result = runtime.run(
            "depgraph-h", gl, algorithms.make("katz"),
            HardwareConfig.scaled(num_cores=8),
        )
        assert result.converged is False
        # every barrier before the last saw finite states: the run ended
        # at the first barrier after the overflow
        assert finite_at_barrier[-1] is False
        assert all(finite_at_barrier[:-1])
        assert result.rounds == len(finite_at_barrier)

    def test_vector_katz_stops_at_the_overflow(self, gl):
        import warnings

        import numpy as np

        from repro import runtime
        from repro.hardware import HardwareConfig

        def run(**kwargs):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                return runtime.run(
                    "depgraph-h", gl, algorithms.make("katz"),
                    HardwareConfig.scaled(num_cores=8), backend="vector",
                    **kwargs,
                )

        result = run()
        assert result.converged is False
        assert not np.isfinite(result.states).all()
        # one round fewer ends before the overflow
        assert np.isfinite(run(max_rounds=result.rounds - 1).states).all()
