"""Tests for the dataset stand-ins and graph property measurements."""

import pytest

from repro.graph import datasets, generators
from repro.graph.properties import (
    average_chain_length,
    bfs_levels,
    compute_stats,
    degree_rank,
    estimate_diameter,
    stats_table,
    top_k_propagation_ratio,
)


class TestDatasets:
    def test_all_six_load(self):
        suite = datasets.load_suite(scale=0.1)
        assert set(suite) == set(datasets.DATASET_NAMES)
        for graph in suite.values():
            assert graph.num_vertices >= 64
            assert graph.is_weighted

    def test_scale_changes_size(self):
        small = datasets.load("PK", scale=0.1)
        large = datasets.load("PK", scale=0.3)
        assert large.num_vertices > small.num_vertices

    def test_deterministic(self):
        assert datasets.load("OK", scale=0.1) == datasets.load("OK", scale=0.1)

    def test_fully_reachable_from_root(self):
        g = datasets.load("AZ", scale=0.1)
        levels = bfs_levels(g, 0)
        assert (levels >= 0).all()

    def test_degree_ranking_matches_paper(self):
        """GL and OK dense, AZ sparse — the Table III ranking."""
        suite = datasets.load_suite(scale=0.2)
        deg = {
            name: g.num_edges / g.num_vertices for name, g in suite.items()
        }
        assert deg["GL"] > deg["AZ"]
        assert deg["OK"] > deg["AZ"]
        assert deg["AZ"] == min(deg.values())

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            datasets.load("TW")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            datasets.load("GL", scale=0.0)

    def test_unweighted_option(self):
        g = datasets.load("PK", scale=0.1, weighted=False)
        assert not g.is_weighted


class TestProperties:
    def test_bfs_levels_chain(self):
        g = generators.chain(6)
        levels = bfs_levels(g, 0)
        assert list(levels) == [0, 1, 2, 3, 4, 5, -1][: g.num_vertices]

    def test_estimate_diameter_chain(self):
        g = generators.chain(20)
        assert estimate_diameter(g, samples=8) >= 10

    def test_estimate_diameter_star(self):
        g = generators.star(50)
        assert estimate_diameter(g, samples=8) <= 2

    def test_average_chain_length_nonnegative(self):
        g = generators.power_law(200, 800, seed=2)
        assert average_chain_length(g, samples=8) >= 0.0

    def test_chain_has_long_chains(self):
        chain = generators.chain(40)
        mesh = generators.star(40)
        assert average_chain_length(chain, samples=16) > average_chain_length(
            mesh, samples=16
        )

    def test_degree_rank_descending(self):
        g = generators.power_law(100, 500, seed=1)
        ranked = degree_rank(g)
        degrees = g.out_degrees()
        values = [degrees[v] for v in ranked]
        assert values == sorted(values, reverse=True)

    def test_top_k_ratio_monotone_in_k(self):
        g = generators.power_law(500, 4000, alpha=1.9, seed=3)
        r1 = top_k_propagation_ratio(g, 0.5, samples=64)
        r2 = top_k_propagation_ratio(g, 5.0, samples=64)
        assert 0.0 <= r1 <= r2 <= 1.0

    def test_hub_concentration_on_skewed_graph(self):
        """observation two: a small top share carries much propagation."""
        g = generators.power_law(1000, 10000, alpha=1.8, seed=4)
        ratio = top_k_propagation_ratio(g, 1.0, samples=128)
        assert ratio > 0.4

    def test_compute_stats_fields(self):
        g = generators.power_law(100, 400, seed=5)
        stats = compute_stats(g)
        assert stats.num_vertices == 100
        assert stats.avg_degree == pytest.approx(g.num_edges / 100)
        assert stats.max_degree == int(g.out_degrees().max())

    def test_stats_table(self):
        suite = {"a": generators.chain(5), "b": generators.star(5)}
        rows = stats_table(suite)
        assert [name for name, _ in rows] == ["a", "b"]

    def test_empty_graph_stats(self):
        from repro.graph.csr import CSRGraph

        g = CSRGraph.from_edges(0, [])
        stats = compute_stats(g)
        assert stats.avg_degree == 0.0
        assert stats.diameter_estimate == 0
