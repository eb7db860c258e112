"""DepGraph-H's chain edge charged as the L1 hits it is.

The engine's ``fetch_state`` touches a chain target's state line, then
its delta line, on the core's own L1, and the core's delta
read-modify-write and state read come next with no access in between.
Where ``MemorySystem.prefetched_hit_bindings`` says they hit by
construction (an LRU L1 of at least two ways, in detailed fidelity),
``SimContext.charge_chain_edge`` charges those two accesses from per-run
constants instead of walking the hierarchy.  The property below checks that a run taking that shortcut is
the same run, to the last LRU position after every chain edge, as one
forced through ``MemorySystem.access``.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import algorithms
from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.hardware import HardwareConfig, MemorySystem
from repro.hardware.config import CacheConfig
from repro.runtime.context import SimContext
from repro.runtime.depgraph_rt import DepGraphOptions, _DepGraphExecution

LINE = 64
ALGORITHMS = {
    "wcc": {},
    "pagerank": {"damping": 0.5, "epsilon": 1e-3},
    "sssp": {"source": 0},
}


def _run(graph, algorithm, hardware, options):
    """One DepGraph-H run, plus the charging core's L1 contents (every
    set, in LRU order) and clock after each chain edge."""
    after_edges = []
    charge = SimContext.charge_chain_edge

    def recording(ctx, core, vertex, ready, pop_cycles):
        taken = charge(ctx, core, vertex, ready, pop_cycles)
        l1 = ctx.memsys.l1[core]
        after_edges.append(
            (core, vertex, taken, ctx.clock[core], l1.hits,
             [list(s.items()) for s in l1._sets])
        )
        return taken

    with mock.patch.object(SimContext, "charge_chain_edge", recording):
        execution = _DepGraphExecution(
            graph,
            algorithms.make(algorithm, **ALGORITHMS[algorithm]),
            hardware,
            options,
            "depgraph-h",
            max_rounds=50,
        )
        result = execution.run()
    return execution, result, after_edges


def _l1_contents(memsys: MemorySystem):
    return [[list(s.items()) for s in l1._sets] for l1 in memsys.l1]


def _cache_counters(memsys: MemorySystem):
    return [
        (c.hits, c.misses, c.writebacks)
        for level in (memsys.l1, memsys.l2, memsys.l3)
        for c in level
    ]


def _obs(result):
    return {k: v for k, v in result.extra.items() if k.startswith("obs.")}


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 160))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=1,
            max_size=3 * n,
        )
    )
    weights = draw(
        st.lists(st.integers(1, 9), min_size=len(edges), max_size=len(edges))
    )
    return CSRGraph.from_edges(n, edges, [float(w) for w in weights])


def _l1_config(ways, sets, policy, fidelity, cores):
    base = HardwareConfig.scaled(num_cores=cores)
    return replace(
        base,
        l1d=CacheConfig(ways * sets * LINE, ways, base.l1d.latency, policy),
        fidelity=fidelity,
    )


def _assert_same_run(graph, algorithm, hardware, options):
    """The run as it is equals the run forced through the hierarchy."""
    resident, got, got_edges = _run(graph, algorithm, hardware, options)
    with mock.patch.object(
        MemorySystem, "prefetched_hit_bindings", lambda memsys: None
    ):
        walked, want, want_edges = _run(graph, algorithm, hardware, options)

    l1 = hardware.l1d
    takes_shortcut = (
        hardware.fidelity == "detailed" and l1.policy == "lru" and l1.ways >= 2
    )
    assert (resident.ctx._resident is not None) == takes_shortcut
    assert walked.ctx._resident is None

    assert np.asarray(got.states).tobytes() == np.asarray(want.states).tobytes()
    assert got.cycles == want.cycles
    assert got.core_busy == want.core_busy
    assert got.access_counts == want.access_counts
    assert _obs(got) and _obs(got) == _obs(want)
    assert _cache_counters(resident.ctx.memsys) == _cache_counters(walked.ctx.memsys)
    assert _l1_contents(resident.ctx.memsys) == _l1_contents(walked.ctx.memsys)
    assert got_edges == want_edges


@settings(max_examples=60, deadline=None)
@given(
    graph=small_graphs(),
    algorithm=st.sampled_from(sorted(ALGORITHMS)),
    ways=st.sampled_from((1, 2, 8)),
    sets=st.sampled_from((1, 2, 4)),
    policy=st.sampled_from(("lru", "drrip")),
    fidelity=st.sampled_from(("detailed", "fast")),
    cores=st.sampled_from((1, 2, 4)),
    hub_enabled=st.booleans(),
)
def test_resident_charge_equals_the_hierarchy_walk(
    graph, algorithm, ways, sets, policy, fidelity, cores, hub_enabled
):
    _assert_same_run(
        graph,
        algorithm,
        _l1_config(ways, sets, policy, fidelity, cores),
        DepGraphOptions(hub_enabled=hub_enabled, stack_depth=4),
    )


@pytest.mark.parametrize("fidelity", ("detailed", "fast"))
@pytest.mark.parametrize("policy", ("lru", "drrip"))
@pytest.mark.parametrize("ways", (1, 2, 8))
def test_every_l1_on_a_stand_in_graph(ways, policy, fidelity):
    """The same check on the sim-scalar graph, whose state and delta
    arrays span many lines: on a 2-set L1 the engine's two fetches evict
    each other's set-mates, which small random graphs rarely do."""
    graph = datasets.load("PK", 0.15, weighted=True)
    _assert_same_run(
        graph, "wcc", _l1_config(ways, 2, policy, fidelity, 4), DepGraphOptions()
    )


def test_software_walk_never_takes_the_resident_charge():
    """DepGraph-S has no engine: nothing fetched the target's lines."""
    graph = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1.0])
    execution, _, _ = _run(
        graph, "wcc", HardwareConfig.scaled(num_cores=2), DepGraphOptions(hardware=False)
    )
    assert execution.ctx._resident is None


def test_hit_counters_are_the_caches_own():
    """``AccessStats``' per-level hits are the sums of ``Cache.hits``,
    after a run that hits every level, DRAM included."""
    edges = [(v, (v * 7 + 3) % 64) for v in range(64)] + [(v, (v + 1) % 64) for v in range(64)]
    graph = CSRGraph.from_edges(64, edges, [1.0] * 64 + [2.0] * 64)
    for options in (DepGraphOptions(), DepGraphOptions(hardware=False)):
        execution, result, _ = _run(
            graph, "pagerank", HardwareConfig.scaled(num_cores=4), options
        )
        memsys = execution.ctx.memsys
        stats = memsys.stats
        sums = [sum(c.hits for c in level) for level in (memsys.l1, memsys.l2, memsys.l3)]
        assert all(sums)
        assert [stats.l1_hits, stats.l2_hits, stats.l3_hits] == sums
        assert stats.dram_accesses > 0
        assert list(result.access_counts) == [
            "l1_hits", "l2_hits", "l3_hits", "dram_accesses", "noc_hop_count"
        ]
        assert [result.access_counts[k] for k in ("l1_hits", "l2_hits", "l3_hits")] == sums
