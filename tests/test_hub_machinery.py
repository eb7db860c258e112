"""Tests for hub selection, the hub index, and the DDMU."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.depgraph.ddmu import DDMU
from repro.accel.depgraph.hdtl import HDTL
from repro.accel.depgraph.hub_index import EntryFlag, HubIndex
from repro.accel.depgraph.hubs import HubSets, degree_threshold, select_hubs
from repro.algorithms import SSSP, IncrementalPageRank, WCC
from repro.algorithms.extensions import KCore, SSWP
from repro.graph import generators
from repro.graph.csr import CSRGraph


def chain_graph(length, weights=None):
    edges = [(i, i + 1) for i in range(length)]
    w = weights if weights is not None else [1.0] * length
    return CSRGraph.from_edges(length + 1, edges, weights=w)


class TestHubSelection:
    def test_threshold_from_star(self):
        g = generators.star(100)
        t = degree_threshold(g, lam=0.01, beta=1.0)
        assert t == 99  # only the center has degree

    def test_select_hubs_returns_top_degree(self):
        g = generators.power_law(1000, 8000, seed=1)
        hubs = select_hubs(g, lam=0.01, beta=1.0)
        degrees = g.out_degrees()
        cutoff = min(degrees[v] for v in hubs)
        non_hubs_above = [
            v for v in range(1000) if v not in hubs and degrees[v] >= cutoff
        ]
        assert not non_hubs_above  # nothing outside beats the cutoff

    def test_sampling_close_to_exact(self):
        g = generators.power_law(5000, 40000, seed=2)
        exact = degree_threshold(g, lam=0.01, beta=1.0)
        sampled = degree_threshold(g, lam=0.01, beta=0.2, seed=3)
        assert sampled == pytest.approx(exact, rel=1.0)  # same order

    def test_explicit_threshold(self):
        g = generators.power_law(500, 4000, seed=4)
        hubs = select_hubs(g, threshold=10)
        assert all(g.out_degree(v) >= 10 for v in hubs)

    def test_invalid_lambda(self):
        g = generators.star(10)
        with pytest.raises(ValueError):
            degree_threshold(g, lam=2.0)

    def test_invalid_beta(self):
        g = generators.star(10)
        with pytest.raises(ValueError):
            degree_threshold(g, beta=0.0)

    def test_hubsets_promotion(self):
        hs = HubSets({1, 2})
        assert 1 in hs and 3 not in hs
        hs.promote_core_vertex(3)
        assert 3 in hs
        hs.promote_core_vertex(1)  # hubs are not duplicated
        assert hs.size == 3


CHAIN = 60


@settings(max_examples=150, deadline=None)
@given(
    hubs=st.sets(st.integers(0, CHAIN), max_size=8),
    cap=st.integers(0, 6),
    promotions=st.lists(st.integers(0, CHAIN), max_size=30),
    root=st.integers(0, CHAIN - 1),
)
def test_members_is_hubs_and_core_vertices_in_place(hubs, cap, promotions, root):
    """``members`` is always ``hubs | core_vertices``, promotions past the
    cap included, and a walker built before the promotions sees them:
    the set is mutated in place, never rebound."""
    hs = HubSets(hubs, max_core_vertices=cap)
    members = hs.members
    walker = HDTL(chain_graph(CHAIN), members.__contains__, stack_depth=CHAIN + 1)
    expected_core = []
    for vertex in promotions:
        fresh = vertex not in hubs and vertex not in expected_core
        promoted = fresh and len(expected_core) < cap
        if promoted:
            expected_core.append(vertex)
        assert hs.promote_core_vertex(vertex) is promoted
        assert hs.members == hs.hubs | hs.core_vertices
    assert hs.members is members
    assert hs.core_vertices == set(expected_core)
    assert hs.size == len(hubs | set(expected_core))
    # the chain walk from ``root`` ends at the first H'' vertex past it
    ends = []
    walker.traverse(
        root, set(), lambda *edge: True, lambda path, reason: ends.append((path, reason))
    )
    stops = [v for v in sorted(hubs | set(expected_core)) if v > root]
    if stops:
        assert ends == [(tuple(range(root, stops[0] + 1)), "hub")]
    else:
        assert ends == []


class TestHubIndex:
    def test_insert_and_lookup(self):
        idx = HubIndex()
        from repro.algorithms.linear import DepFunc

        idx.insert(0, 5, 1, (0, 1, 5), DepFunc(1.0, 2.0))
        entries = idx.lookup_head(0)
        assert len(entries) == 1
        assert entries[0].func(3.0) == 5.0

    def test_duplicate_insert_returns_existing(self):
        idx = HubIndex()
        a = idx.insert(0, 5, 1, (0, 1, 5))
        b = idx.insert(0, 5, 1, (0, 1, 5))
        assert a is b
        assert len(idx) == 1

    def test_multiple_paths_same_pair(self):
        """Direct dependencies between the same pair along different
        core-paths are stored separately, keyed by path id."""
        idx = HubIndex()
        idx.insert(0, 5, 1, (0, 1, 5))
        idx.insert(0, 5, 2, (0, 2, 5))
        assert len(idx) == 2
        assert idx.head_entry_count(0) == 2

    def test_learning_protocol_n_i_a(self):
        idx = HubIndex()
        entry = idx.insert(0, 5, 1, (0, 1, 5))
        assert entry.flag is EntryFlag.NEW
        idx.observe(entry, 1.0, 3.0)  # f(s)=s+2 sampled at s=1
        assert entry.flag is EntryFlag.INCOMPLETE
        idx.observe(entry, 4.0, 6.0)
        assert entry.flag is EntryFlag.AVAILABLE
        assert entry.func(10.0) == pytest.approx(12.0)

    def test_learning_degenerate_observation_retries(self):
        idx = HubIndex()
        entry = idx.insert(0, 5, 1, (0, 1, 5))
        idx.observe(entry, 1.0, 3.0)
        idx.observe(entry, 1.0, 3.0)  # head unchanged: cannot solve
        assert entry.flag is EntryFlag.INCOMPLETE
        idx.observe(entry, 2.0, 4.0)
        assert entry.flag is EntryFlag.AVAILABLE

    def test_unusable_entries_not_returned(self):
        idx = HubIndex()
        idx.insert(0, 5, 1, (0, 1, 5))  # stays NEW
        assert idx.lookup_head(0) == []

    def test_memory_accounting(self):
        idx = HubIndex()
        assert idx.memory_bytes >= 0
        idx.insert(0, 5, 1, (0, 1, 5))
        assert idx.memory_bytes >= HubIndex.ENTRY_BYTES


class TestDDMU:
    def test_analytic_sssp_composition(self):
        g = chain_graph(4, weights=[1.0, 2.0, 3.0, 4.0])
        ddmu = DDMU(g, SSSP(0), HubIndex(), mode="analytic")
        entry = ddmu.core_path_identified((0, 1, 2, 3, 4))
        assert entry.usable
        # SSSP shortcut: mu=1, xi=sum of weights=10
        assert entry.func(5.0) == pytest.approx(15.0)

    def test_analytic_pagerank_composition(self):
        g = chain_graph(3)
        alg = IncrementalPageRank(damping=0.5)
        ddmu = DDMU(g, alg, HubIndex(), mode="analytic")
        entry = ddmu.core_path_identified((0, 1, 2, 3))
        # each hop multiplies by d/deg = 0.5
        assert entry.func(8.0) == pytest.approx(1.0)

    def test_analytic_wcc_identity(self):
        g = chain_graph(2)
        ddmu = DDMU(g, WCC(), HubIndex(), mode="analytic")
        entry = ddmu.core_path_identified((0, 1, 2))
        assert entry.func(7.0) == 7.0

    def test_analytic_sswp_cap(self):
        g = chain_graph(2, weights=[5.0, 3.0])
        ddmu = DDMU(g, SSWP(0), HubIndex(), mode="analytic")
        entry = ddmu.core_path_identified((0, 1, 2))
        assert entry.func(10.0) == 3.0  # bottleneck of the path
        assert entry.func(2.0) == 2.0

    def test_learned_mode_starts_unusable(self):
        g = chain_graph(2)
        ddmu = DDMU(g, SSSP(0), HubIndex(), mode="learned")
        entry = ddmu.core_path_identified((0, 1, 2))
        assert not entry.usable
        ddmu.path_processed(entry, 0.0, 2.0)
        ddmu.path_processed(entry, 1.0, 3.0)
        assert entry.usable
        assert entry.func(5.0) == pytest.approx(7.0)

    def test_disabled_for_nontransformable(self):
        g = chain_graph(2)
        ddmu = DDMU(g, KCore(2), HubIndex(), mode="analytic")
        assert not ddmu.enabled
        assert ddmu.core_path_identified((0, 1, 2)) is None
        assert ddmu.shortcuts_for(0) == []

    def test_reset_edge_only_for_sum(self):
        g = chain_graph(2)
        assert DDMU(g, IncrementalPageRank(), HubIndex()).needs_reset_edge
        assert not DDMU(g, SSSP(0), HubIndex()).needs_reset_edge
        assert not DDMU(g, WCC(), HubIndex()).needs_reset_edge

    def test_missing_edge_rejected(self):
        g = chain_graph(3)
        ddmu = DDMU(g, SSSP(0), HubIndex(), mode="analytic")
        with pytest.raises(ValueError):
            ddmu.core_path_identified((0, 2))  # no direct 0->2 edge

    def test_invalid_mode(self):
        g = chain_graph(2)
        with pytest.raises(ValueError):
            DDMU(g, SSSP(0), HubIndex(), mode="psychic")
