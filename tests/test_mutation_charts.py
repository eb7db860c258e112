"""Tests for graph mutation helpers and ASCII chart rendering."""

import pytest

from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.mutation import (
    add_edges,
    add_vertices,
    remove_edges,
    reweight_edge,
)
from repro.metrics.charts import (
    bar_chart,
    grouped_bar_chart,
    render_table_chart,
    sparkline,
)


@pytest.fixture
def graph():
    return CSRGraph.from_edges(
        4, [(0, 1), (1, 2), (2, 3)], weights=[1.0, 2.0, 3.0]
    )


class TestAddEdges:
    def test_adds_new_edge(self, graph):
        g2 = add_edges(graph, [(3, 0)], weights=[5.0])
        assert g2.has_edge(3, 0)
        assert g2.num_edges == 4

    def test_duplicate_ignored(self, graph):
        g2 = add_edges(graph, [(0, 1)])
        assert g2.num_edges == graph.num_edges
        # original weight kept
        assert g2.edge_weight(0) == 1.0

    def test_empty_noop(self, graph):
        assert add_edges(graph, []) is graph

    def test_default_weight(self, graph):
        g2 = add_edges(graph, [(3, 1)], default_weight=9.0)
        begin, _ = g2.edge_range(3)
        assert g2.edge_weight(begin) == 9.0

    def test_out_of_range_rejected(self, graph):
        with pytest.raises(ValueError):
            add_edges(graph, [(0, 9)])

    def test_misaligned_weights_rejected(self, graph):
        with pytest.raises(ValueError):
            add_edges(graph, [(3, 0)], weights=[1.0, 2.0])

    def test_unweighted_graph(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        g2 = add_edges(g, [(1, 2)])
        assert not g2.is_weighted
        assert g2.num_edges == 2

    def test_incremental_pagerank_scenario(self):
        """Adding an edge changes the ranking downstream, nothing upstream."""
        from repro import algorithms, runtime
        from repro.hardware import HardwareConfig

        g = generators.power_law(80, 400, seed=31, weighted=True)
        g = generators.ensure_reachable(g, 0, seed=31)
        hw = HardwareConfig.scaled(num_cores=4)
        before = runtime.run("depgraph-h", g, algorithms.IncrementalPageRank(), hw)
        g2 = add_edges(g, [(7, 3)], weights=[1.0])
        after = runtime.run("depgraph-h", g2, algorithms.IncrementalPageRank(), hw)
        assert after.states[3] > before.states[3] - 1e-6


class TestRemoveEdges:
    def test_removes(self, graph):
        g2 = remove_edges(graph, [(1, 2)])
        assert not g2.has_edge(1, 2)
        assert g2.num_edges == 2

    def test_missing_edge_ignored(self, graph):
        g2 = remove_edges(graph, [(3, 3)])
        assert g2.num_edges == graph.num_edges

    def test_weights_follow(self, graph):
        g2 = remove_edges(graph, [(0, 1)])
        begin, _ = g2.edge_range(1)
        assert g2.edge_weight(begin) == 2.0


class TestVertexAndWeightMutation:
    def test_add_vertices(self, graph):
        g2 = add_vertices(graph, 3)
        assert g2.num_vertices == 7
        assert g2.out_degree(6) == 0
        assert g2.num_edges == graph.num_edges

    def test_add_zero_vertices(self, graph):
        assert add_vertices(graph, 0) is graph

    def test_negative_count_rejected(self, graph):
        with pytest.raises(ValueError):
            add_vertices(graph, -1)

    def test_reweight(self, graph):
        g2 = reweight_edge(graph, 1, 2, 7.5)
        begin, _ = g2.edge_range(1)
        assert g2.edge_weight(begin) == 7.5
        # original untouched
        assert graph.edge_weight(graph.edge_range(1)[0]) == 2.0

    def test_reweight_missing_edge(self, graph):
        with pytest.raises(ValueError):
            reweight_edge(graph, 0, 3, 1.0)

    def test_reweight_unweighted(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            reweight_edge(g, 0, 1, 2.0)


class TestCharts:
    def test_bar_chart_scales(self):
        text = bar_chart({"a": 2.0, "b": 4.0}, width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 10  # the max fills the width
        assert lines[0].count("#") == 5

    def test_bar_chart_empty(self):
        assert bar_chart({}, title="t") == "t"

    def test_bar_chart_negative_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({"a": -1.0})

    def test_grouped(self):
        rows = [("pr", "AZ", 2.0), ("pr", "PK", 4.0), ("sssp", "AZ", 1.0)]
        text = grouped_bar_chart(rows)
        assert "[pr]" in text and "[sssp]" in text

    def test_sparkline_shape(self):
        line = sparkline([0, 1, 2, 3, 2, 1, 0])
        assert len(line) == 7
        assert line[0] == line[-1]
        assert line[3] != line[0]

    def test_sparkline_flat(self):
        assert len(set(sparkline([5, 5, 5]))) == 1

    def test_render_table_chart(self):
        from repro.experiments.common import ExperimentTable

        t = ExperimentTable("figX", "demo", ["system", "cycles"])
        t.add("a", 10.0)
        t.add("b", 20.0)
        text = render_table_chart(t, "cycles", "system")
        assert "figX" in text and "a" in text and "b" in text
