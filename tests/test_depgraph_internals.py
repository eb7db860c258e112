"""White-box tests of the DepGraph runtime on crafted graphs: core-path
discovery, hub-index reuse, shortcut application, and reset-edge balance."""

import numpy as np
import pytest

from repro import algorithms, runtime
from repro.algorithms import reference
from repro.graph.csr import CSRGraph
from repro.hardware import HardwareConfig
from repro.runtime.depgraph_rt import DepGraphOptions, _DepGraphExecution

HW1 = HardwareConfig.scaled(num_cores=1)
HW4 = HardwareConfig.scaled(num_cores=4)


def hub_path_graph():
    """Two high-degree hubs joined by a 4-hop path, plus spokes.

    hub 0 -> 1 -> 2 -> 3 -> hub 4; both hubs fan out to leaves so the
    degree threshold selects exactly them.
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    weights = [1.0, 2.0, 1.0, 3.0]
    leaf = 5
    for hub in (0, 4):
        for _ in range(6):
            edges.append((hub, leaf))
            weights.append(1.0)
            leaf += 1
    return CSRGraph.from_edges(leaf, edges, weights=weights)


def run_execution(graph, algorithm, hw=HW1, **opts):
    options = DepGraphOptions(**opts)
    execution = _DepGraphExecution(
        graph, algorithm, hw, options, "depgraph-h", 4000
    )
    result = execution.run()
    return execution, result


class TestCorePathDiscovery:
    def test_hubs_selected(self):
        g = hub_path_graph()
        ex, _ = run_execution(g, algorithms.SSSP(0), lam=0.2, beta=1.0)
        assert {0, 4} <= ex.hubsets.hubs

    def test_core_path_entry_created(self):
        g = hub_path_graph()
        ex, _ = run_execution(g, algorithms.SSSP(0), lam=0.2, beta=1.0)
        entry = ex.hub_index.get(0, 4, 1)
        assert entry is not None
        assert entry.usable
        # SSSP shortcut: f(s) = s + (1 + 2 + 1 + 3)
        assert entry.func(0.0) == pytest.approx(7.0)
        assert entry.path == (0, 1, 2, 3, 4)

    def test_shortcut_used_on_reactivation(self):
        """A second activation of the head travels via the stored entry."""
        g = hub_path_graph()
        # single partition so the whole 0->..->4 path is one core-path
        ex, result = run_execution(g, algorithms.SSSP(0), hw=HW1, lam=0.2, beta=1.0)
        # first round built the entry; SSSP reactivations may not occur on
        # this small graph, so drive the DDMU directly:
        entries = ex.ddmu.shortcuts_for(0)
        assert entries
        assert ex.ddmu.shortcut_influence(entries[0], 5.0) == pytest.approx(12.0)

    def test_correct_distances_with_hub_index(self):
        g = hub_path_graph()
        _, result = run_execution(g, algorithms.SSSP(0), hw=HW4, lam=0.2, beta=1.0)
        exp = reference.sssp(g, 0)
        both = np.isinf(result.states) & np.isinf(exp)
        assert np.max(np.abs(np.where(both, 0, result.states - exp))) < 1e-9


class TestSumTypeResetBalance:
    def test_pagerank_exact_on_hub_path(self):
        """With shortcuts + fictitious resets, the sum-type fixpoint matches
        the reference to within the activation threshold."""
        g = hub_path_graph()
        _, result = run_execution(
            g, algorithms.IncrementalPageRank(), hw=HW4, lam=0.2, beta=1.0
        )
        exp = reference.pagerank(g)
        assert np.max(np.abs(result.states - exp)) < 1e-3

    def test_many_rounds_no_drift(self):
        """Repeated shortcut/reset cycles must not accumulate error."""
        from repro.graph import generators

        g = generators.power_law(150, 900, alpha=1.9, seed=8, weighted=True)
        g = generators.ensure_reachable(g, 0, seed=8)
        _, result = run_execution(
            g, algorithms.IncrementalPageRank(), hw=HW4, lam=0.05, beta=1.0
        )
        exp = reference.pagerank(g)
        assert np.max(np.abs(result.states - exp)) < 5e-3


class TestNonTransformable:
    def test_kcore_has_no_hub_machinery(self):
        g = hub_path_graph()
        ex, result = run_execution(g, algorithms.KCore(2), lam=0.2, beta=1.0)
        assert not ex.hub_active
        assert len(ex.hub_index) == 0


class TestLearnedMode:
    def test_entries_become_available_over_rounds(self):
        """Learned mode needs two observations; on a graph that reactivates
        the path, entries eventually reach the A state and stay exact."""
        # a cycle through two hubs keeps reactivating them for pagerank
        g = hub_path_graph()
        _, result = run_execution(
            g,
            algorithms.IncrementalPageRank(),
            hw=HW4,
            lam=0.2,
            beta=1.0,
            ddmu_mode="learned",
        )
        exp = reference.pagerank(g)
        assert np.max(np.abs(result.states - exp)) < 1e-3


class TestPartitionMachinery:
    def test_partition_count_scales_with_cores(self):
        from repro.graph import generators

        g = generators.power_law(400, 1600, seed=2, weighted=True)
        g = generators.ensure_reachable(g, 0, seed=2)
        ex1, _ = run_execution(g, algorithms.SSSP(0), hw=HW1)
        ex4, _ = run_execution(g, algorithms.SSSP(0), hw=HW4)
        assert ex1.part_count == 1
        assert ex4.part_count > 4

    def test_work_stealing_rebalances(self):
        """With one hot partition, stealing moves partitions to idle cores."""
        from repro.graph import generators

        g = generators.power_law(600, 3000, alpha=1.8, seed=3, weighted=True)
        g = generators.ensure_reachable(g, 0, seed=3)
        ex, result = run_execution(
            g, algorithms.IncrementalPageRank(), hw=HW4, work_stealing=True
        )
        # after execution, partition ownership may have moved but every
        # partition still has exactly one owner
        assert sorted(
            p for parts in ex.core_parts for p in parts
        ) == list(range(ex.part_count))

    def test_engine_stall_reported(self):
        from repro.graph import generators

        g = generators.power_law(200, 1000, seed=4, weighted=True)
        g = generators.ensure_reachable(g, 0, seed=4)
        _, result = run_execution(g, algorithms.SSSP(0), hw=HW4)
        assert "engine_stall_cycles" in result.extra
        assert result.extra["engine_stall_cycles"] >= 0.0


class TestEdgeOpCount:
    """``edge_ops`` is summed from the walkers' ``edges_fetched`` at run
    end, not counted per edge: it must still be one per ``on_edge``
    call."""

    @pytest.mark.parametrize("hub_enabled", [True, False])
    @pytest.mark.parametrize("hardware", [True, False])
    def test_edge_operations_are_the_on_edge_calls(
        self, monkeypatch, hardware, hub_enabled
    ):
        from repro.graph import generators

        calls = [0]
        handlers = _DepGraphExecution._chain_handlers

        def counting_handlers(self, core, engine):
            on_edge, on_path_end = handlers(self, core, engine)

            def counted(source, target, weight, depth):
                calls[0] += 1
                return on_edge(source, target, weight, depth)

            return counted, on_path_end

        monkeypatch.setattr(_DepGraphExecution, "_chain_handlers", counting_handlers)
        g = generators.power_law(400, 2400, alpha=1.8, seed=5, weighted=True)
        g = generators.ensure_reachable(g, 0, seed=5)
        system = "depgraph-h" if hardware else "depgraph-s"
        execution = _DepGraphExecution(
            g,
            algorithms.IncrementalPageRank(),
            HW4,
            DepGraphOptions(hardware=hardware, hub_enabled=hub_enabled),
            system,
            4000,
        )
        result = execution.run()
        assert calls[0] > 0
        assert (result.shortcut_applications > 0) == hub_enabled
        assert result.edge_operations == calls[0]
        assert result.extra["obs.sim.edge_ops"] == calls[0]
