"""White-box tests of the round-based executor: BSP vs async visibility,
ordering policies, and the policy registry."""

import numpy as np
import pytest

from repro import algorithms
from repro.graph import generators
from repro.hardware import HardwareConfig
from repro.runtime.roundbased import (
    LIGRA,
    LIGRA_O,
    POLICIES,
    RoundPolicy,
    run_roundbased,
)

HW2 = HardwareConfig.scaled(num_cores=2)
HW4 = HardwareConfig.scaled(num_cores=4)


class TestPolicyRegistry:
    def test_all_published_systems_present(self):
        assert set(POLICIES) == {
            "ligra",
            "ligra-o",
            "mosaic",
            "wonderland",
            "fbsgraph",
            "hats",
            "phi",
        }

    def test_sync_async_split_matches_paper(self):
        assert POLICIES["ligra"].synchronous
        assert POLICIES["mosaic"].synchronous
        assert not POLICIES["ligra-o"].synchronous
        assert not POLICIES["fbsgraph"].synchronous

    def test_only_plain_ligra_lacks_simd(self):
        assert not POLICIES["ligra"].simd
        assert POLICIES["ligra-o"].simd

    def test_phi_reduces_atomics(self):
        assert POLICIES["phi"].atomic_cycles < POLICIES["ligra-o"].atomic_cycles


class TestSyncVsAsyncRounds:
    def chain(self, n=24):
        return generators.chain(n, weighted=True)

    def test_sync_needs_round_per_hop(self):
        """BSP propagation crosses one hop per round on a chain."""
        g = self.chain(24)
        sync = run_roundbased(g, algorithms.SSSP(0), HW2, LIGRA)
        assert sync.rounds >= 24

    def test_async_is_no_slower_in_rounds(self):
        g = self.chain(24)
        sync = run_roundbased(g, algorithms.SSSP(0), HW2, LIGRA)
        async_res = run_roundbased(g, algorithms.SSSP(0), HW2, LIGRA_O)
        assert async_res.rounds <= sync.rounds

    def test_same_fixpoint(self):
        g = self.chain(24)
        sync = run_roundbased(g, algorithms.SSSP(0), HW2, LIGRA)
        async_res = run_roundbased(g, algorithms.SSSP(0), HW2, LIGRA_O)
        assert np.array_equal(sync.states, async_res.states)


class TestOrderingPolicies:
    def graph(self):
        g = generators.power_law(120, 700, alpha=1.9, seed=6, weighted=True)
        return generators.ensure_reachable(g, 0, seed=6)

    @pytest.mark.parametrize("ordering", ["id", "hubs_first", "dfs", "hats"])
    def test_every_ordering_converges_correctly(self, ordering):
        from repro.algorithms import reference

        policy = RoundPolicy(f"test-{ordering}", ordering=ordering)
        g = self.graph()
        result = run_roundbased(g, algorithms.SSSP(0), HW4, policy)
        exp = reference.sssp(g, 0)
        both = np.isinf(result.states) & np.isinf(exp)
        assert np.max(np.abs(np.where(both, 0, result.states - exp))) < 1e-9

    def test_work_stealing_can_be_disabled(self):
        policy = RoundPolicy("test-nosteal", work_stealing=False)
        g = self.graph()
        result = run_roundbased(g, algorithms.SSSP(0), HW4, policy)
        assert result.converged


class TestRoundLogs:
    def test_round_log_matches_rounds(self):
        g = generators.chain(10, weighted=True)
        result = run_roundbased(g, algorithms.SSSP(0), HW2, LIGRA)
        assert len(result.round_log) == result.rounds
        assert result.round_log[0].active_vertices == 1

    def test_updates_sum_across_rounds(self):
        g = generators.chain(10, weighted=True)
        result = run_roundbased(g, algorithms.SSSP(0), HW2, LIGRA)
        assert sum(r.updates for r in result.round_log) == result.total_updates


class TestNonConvergence:
    def test_max_rounds_reported(self):
        """A run cut off by max_rounds reports converged=False."""
        g = generators.chain(40, weighted=True)
        result = run_roundbased(g, algorithms.SSSP(0), HW2, LIGRA, max_rounds=3)
        assert not result.converged
        assert result.rounds == 3
