"""The array form of the linear edge program (``edge_linear_arrays``).

The vector backend builds its ``f(s) = min(mu*s + xi, cap)`` program with
one ``edge_linear_arrays`` call.  Its contract is elementwise bit
identity with the scalar ``edge_linear`` probe, for every vector-capable
algorithm bare, under the reorder wrapper (which must translate ids) and
under the warm-start wrapper — checked here on random weighted and
unweighted graphs.  Stock algorithms must make no scalar probe during
vector set-up; new algorithms that define only ``edge_linear`` get the
exact loop fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import algorithms, runtime
from repro.algorithms import EXTENSION_ALGORITHMS, PAPER_ALGORITHMS
from repro.algorithms.base import Algorithm, SumAlgorithm
from repro.algorithms.linear import DepFunc, dep_arrays
from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.graph.reorder import ReorderedAlgorithm, make_ordering
from repro.hardware import HardwareConfig
from repro.runtime.vector import VectorBackendError, vector_unsupported_reason
from repro.serve.warmstart import WarmStartAlgorithm

VECTOR_ALGORITHMS = sorted(
    name
    for name, factory in {**PAPER_ALGORITHMS, **EXTENSION_ALGORITHMS}.items()
    if vector_unsupported_reason(factory()) is None
)


def test_every_stock_transformable_algorithm_is_covered():
    assert VECTOR_ALGORITHMS == [
        "adsorption", "bfs", "katz", "pagerank", "sssp", "sswp", "wcc",
    ]
    for name in VECTOR_ALGORITHMS:
        cls = type(algorithms.make(name))
        assert "edge_linear_arrays" in vars(cls), name


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 24))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=80,
        )
    )
    weights = None
    if draw(st.booleans()):
        weights = draw(
            st.lists(
                st.floats(0.01, 1e3, allow_nan=False),
                min_size=len(edges),
                max_size=len(edges),
            )
        )
    return CSRGraph.from_edges(n, edges, weights)


class _IdScaled(SumAlgorithm):
    """Coefficients that depend on the vertex id itself, not on anything
    a permuted graph carries: only id translation gets them right."""

    name = "id-scaled"

    def initial_state(self, v, graph):
        return 0.0

    def initial_delta(self, v, graph):
        return 1.0

    def edge_compute(self, source, value, weight, graph):
        return value * 0.5 / (1 + source)

    def edge_linear(self, source, weight, graph):
        return DepFunc(0.5 / (1 + source), 0.0)

    def edge_linear_arrays(self, sources, weights, graph):
        return dep_arrays(len(sources), 0.5 / (1 + np.asarray(sources)))


def _make(name):
    return _IdScaled() if name == _IdScaled.name else algorithms.make(name)


def _forms(name, graph):
    """(label, algorithm, graph it runs over) for the three wrappings."""
    n = graph.num_vertices
    warm = WarmStartAlgorithm(_make(name), [0.5] * n, [0.25] * n)
    ordering = make_ordering("degree", graph)
    permuted = ordering.apply_to_graph(graph)
    return [
        ("bare", _make(name), graph),
        ("warm", warm, graph),
        ("degree", ReorderedAlgorithm(_make(name), ordering, graph), permuted),
        ("degree+warm", ReorderedAlgorithm(warm, ordering, graph), permuted),
    ]


def _bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("name", VECTOR_ALGORITHMS + [_IdScaled.name])
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(graph=graphs(), data=st.data())
def test_arrays_match_scalar_probe_bit_for_bit(name, graph, data):
    n = graph.num_vertices
    # the vector backend's two call shapes: per non-isolated source with
    # unit weights, and per edge with the edge weights
    degrees = graph.out_degrees()
    shapes = [(np.nonzero(degrees)[0], np.ones(int((degrees > 0).sum())))]
    if graph.is_weighted:
        shapes.append((np.repeat(np.arange(n), degrees), graph.weights))
    # plus arbitrary ids, isolated vertices and repeats included
    ids = data.draw(st.lists(st.integers(0, n - 1), max_size=30))
    shapes.append(
        (
            np.array(ids, dtype=np.int64),
            np.array(
                data.draw(
                    st.lists(
                        st.floats(0.0, 1e6, allow_nan=False),
                        min_size=len(ids),
                        max_size=len(ids),
                    )
                ),
                dtype=np.float64,
            ),
        )
    )
    for label, algorithm, run_graph in _forms(name, graph):
        for sources, weights in shapes:
            got = algorithm.edge_linear_arrays(sources, weights, run_graph)
            probes = [
                algorithm.edge_linear(int(s), float(w), run_graph)
                for s, w in zip(sources, weights)
            ]
            for part, field in zip(got, ("mu", "xi", "cap")):
                assert part.dtype == np.float64 and part.shape == sources.shape
                want = [getattr(func, field) for func in probes]
                assert _bits(part) == _bits(want), (label, field)


def test_reorder_wrapper_translates_ids():
    # stock coefficients read only degrees and weights, which the
    # permuted graph carries; an id-dependent program exposes a wrapper
    # that forwards permuted ids untranslated
    graph = CSRGraph.from_edges(4, [(3, 0), (3, 1), (3, 2), (0, 3)])
    ordering = make_ordering("degree", graph)
    assert not ordering.is_identity
    wrapped = ReorderedAlgorithm(_IdScaled(), ordering, graph)
    permuted = ordering.apply_to_graph(graph)
    sources = np.arange(4)
    mu, _, _ = wrapped.edge_linear_arrays(sources, np.ones(4), permuted)
    want = [wrapped.edge_linear(v, 1.0, permuted).mu for v in range(4)]
    assert mu.tolist() == want == [0.5 / (1 + old) for old in ordering.inv]


# ----------------------------------------------------------------------
# No scalar probes during vector set-up.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("reorder", ["identity", "degree"])
def test_stock_algorithms_make_no_scalar_probe(monkeypatch, weighted, reorder):
    calls = []
    for name in VECTOR_ALGORITHMS:
        cls = type(algorithms.make(name))
        scalar = cls.edge_linear

        def spy(self, *args, _scalar=scalar):
            calls.append(type(self).__name__)
            return _scalar(self, *args)

        monkeypatch.setattr(cls, "edge_linear", spy)
    graph = datasets.load("GL", scale=0.1, weighted=weighted)
    hw = HardwareConfig.scaled(num_cores=4)
    for name in VECTOR_ALGORITHMS:
        algorithm = algorithms.make(name)
        if algorithm.needs_weights and not weighted:
            continue
        runtime.run(
            "ligra-o", graph, algorithm, hw, reorder=reorder, backend="vector"
        )
    assert calls == []


class _HalfRank(algorithms.IncrementalPageRank):
    """Overrides only the scalar form: must not inherit pagerank's arrays."""

    def edge_linear(self, source, weight, graph):
        return DepFunc(0.5, 0.0)


class _NoLinearForm(SumAlgorithm):
    name = "no-linear-form"

    def initial_state(self, v, graph):
        return 0.0

    def initial_delta(self, v, graph):
        return 1.0

    def edge_compute(self, source, value, weight, graph):
        return 0.5 * value


def test_scalar_only_override_gets_the_loop_fallback():
    assert _HalfRank.edge_linear_arrays is Algorithm.edge_linear_arrays
    graph = CSRGraph.from_edges(3, [(0, 1), (0, 2), (2, 0)])
    mu, xi, cap = _HalfRank().edge_linear_arrays(
        np.array([0, 2]), np.ones(2), graph
    )
    assert mu.tolist() == [0.5, 0.5] and xi.tolist() == [0.0, 0.0]
    assert np.isinf(cap).all()


def test_missing_linear_form_is_a_clean_backend_error():
    graph = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(VectorBackendError, match="edge_linear returned None"):
        runtime.run(
            "ligra-o",
            graph,
            _NoLinearForm(),
            HardwareConfig.scaled(num_cores=2),
            backend="vector",
        )
