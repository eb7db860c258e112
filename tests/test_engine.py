"""Tests for the DepGraph engine timeline model."""

from repro.accel.depgraph.engine import (
    DepGraphEngine,
    ENGINE_MLP,
    EngineConfig,
    ISSUE_CYCLES,
)
from repro.graph import generators
from repro.graph.partition import by_edge_count
from repro.hardware import HardwareConfig, MemoryLayout, MemorySystem


def make_engine(buffer_capacity=4, stack_depth=10):
    graph = generators.chain(20, weighted=True)
    hw = HardwareConfig.scaled(num_cores=2)
    memsys = MemorySystem(hw)
    layout = MemoryLayout(graph, 2)
    parts = by_edge_count(graph, 2)
    config = EngineConfig(
        parts[0], stack_depth=stack_depth, buffer_capacity=buffer_capacity
    )
    return DepGraphEngine(0, graph, memsys, layout, lambda v: False, config)


class TestEngineTimeline:
    def test_fetch_advances_time_pipelined(self):
        engine = make_engine()
        engine.fetch(engine.layout.offsets.addr(0))
        # pipelined: issue + latency / MLP, far less than the raw latency
        raw = engine.memsys.access(1, engine.layout.offsets.addr(64))
        assert engine.time < raw + ISSUE_CYCLES
        assert engine.time >= ISSUE_CYCLES

    def test_state_fetch_covers_both_arrays(self):
        engine = make_engine()
        engine.fetch_state(3)
        # states AND deltas lines installed -> core hits privately
        state_line = engine.layout.states.addr(3)
        delta_line = engine.layout.deltas.addr(3)
        assert engine.memsys.l1[0].probe(state_line >> 6)
        assert engine.memsys.l1[0].probe(delta_line >> 6)
        assert engine.ops == 2

    def test_sync_to_forward_only(self):
        engine = make_engine()
        engine.sync_to(500.0)
        assert engine.time == 500.0
        engine.sync_to(100.0)
        assert engine.time == 500.0

    def test_fifo_window_throttles_engine(self):
        engine = make_engine(buffer_capacity=2)
        engine.fetch(engine.layout.offsets.addr(0))
        engine.fetch(engine.layout.offsets.addr(8))
        # the core is far behind: consumes at t=10000, 20000
        engine.note_consumed(10000.0)
        engine.note_consumed(20000.0)
        engine.fetch(engine.layout.offsets.addr(16))
        # third fetch had to wait for the first consumption
        assert engine.time >= 10000.0
        assert engine.stall_cycles > 0

    def test_configure_charges_registers(self):
        engine = make_engine()
        before = engine.time
        parts = by_edge_count(engine.graph, 2)
        engine.configure(EngineConfig(parts[1], stack_depth=5))
        assert engine.time > before
        assert engine.hdtl.stack_depth == 5

    def test_hub_probe_charges_per_entry(self):
        engine = make_engine()
        t0 = engine.time
        engine.charge_hub_probe(3, entry_count=0)
        t1 = engine.time
        engine.charge_hub_probe(3, entry_count=4)
        t2 = engine.time
        assert t1 > t0  # hash probe alone costs something
        assert t2 - t1 > 0

    def test_mlp_constant_sane(self):
        assert 1 <= ENGINE_MLP <= 16
