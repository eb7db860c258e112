"""``MemorySystem.access`` against a plain composition of ``Cache.access``.

``MemorySystem.access`` resolves private LRU levels and DRRIP L3 hits
inline, on their sets, through per-core bindings made at construction;
:meth:`Cache.access` stays the reference model of every level.  A
random address stream driven through both must give the same latency for
every access, the same hits, misses and writebacks at every level, the
same ``AccessStats`` and the same cache contents (replacement order and
RRPVs included), for every replacement policy at every level.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import HardwareConfig, MemorySystem
from repro.hardware.cache import Cache
from repro.hardware.config import CacheConfig

POLICIES = ("lru", "drrip", "grasp")
LINE = 64
BASE = 1 << 24  # a region base, as MemoryLayout aligns them


def reference_access(mem: MemorySystem, core: int, addr: int, write: bool, now: float) -> float:
    """L1 -> L2 -> banked L3 -> DRAM, every level through Cache.access
    (the hit counters in ``AccessStats`` are the caches' own)."""
    config = mem.config
    stats = mem.stats
    line = addr // config.line_bytes
    cycles = config.l1d.latency
    if mem.l1[core].access(line, write):
        return cycles
    cycles += config.l2.latency
    if mem.l2[core].access(line, write):
        return cycles
    bank = (line ^ (line >> 7)) % config.l3_banks
    hops = mem.noc.hops(core, bank)
    stats.noc_hop_count += 2 * hops
    cycles += 2 * hops * config.noc_hop_cycles + config.l3.latency
    l3 = mem.l3[bank]
    hit = l3.access(line, write)
    l3.note_duel_outcome(line & (l3.num_sets - 1), hit)
    if hit:
        return cycles
    stats.dram_accesses += 1
    if mem.dram is not None:
        return cycles + mem.dram.access(line, now + cycles)
    return cycles + config.dram_latency


CORES = 4


def small_machine(l1: str, l2: str, l3: str, dram_channels: int) -> HardwareConfig:
    """Tiny caches so a short stream exercises every eviction path; four
    cores on the 2x2 mesh, so the banks sit at different hop counts."""
    return replace(
        HardwareConfig.scaled(num_cores=CORES),
        l1d=CacheConfig(4 * LINE, 2, 4, l1),
        l2=CacheConfig(16 * LINE, 4, 7, l2),
        l3=CacheConfig(64 * LINE, 4, 27, l3),
        l3_banks=4,
        dram_channels=dram_channels,
    )


def snapshot(mem: MemorySystem):
    levels = {}
    for name, caches in (("l1", mem.l1), ("l2", mem.l2), ("l3", mem.l3)):
        levels[name] = [
            (c.hits, c.misses, c.writebacks, c._psel, c._brip_counter,
             [list(s.items()) for s in c._sets])
            for c in caches
        ]
    return levels


streams = st.lists(
    st.tuples(
        st.integers(0, CORES - 1),  # core
        st.integers(0, 95),  # line (the L3 holds 64)
        st.integers(0, LINE - 1),  # byte within the line
        st.booleans(),  # write
    ),
    min_size=1,
    max_size=300,
)


@settings(max_examples=200, deadline=None)
@given(
    l1=st.sampled_from(POLICIES),
    l2=st.sampled_from(POLICIES),
    l3=st.sampled_from(POLICIES),
    dram_channels=st.sampled_from((0, 2)),
    hot=st.booleans(),
    stream=streams,
)
def test_access_matches_cache_composition(l1, l2, l3, dram_channels, hot, stream):
    config = small_machine(l1, l2, l3, dram_channels)
    fast = MemorySystem(config)
    ref = MemorySystem(config)
    if hot:
        # a GRASP hot region over the first 16 lines (L3 only)
        for mem in (fast, ref):
            mem.add_hot_range(BASE, BASE + 16 * LINE)
    now = [0.0] * CORES
    for core, line, byte, write in stream:
        addr = BASE + line * LINE + byte
        got = fast.access(core, addr, write, now[core])
        want = reference_access(ref, core, addr, write, now[core])
        assert got == want
        now[core] += got
    assert fast.stats.as_dict() == ref.stats.as_dict()
    assert snapshot(fast) == snapshot(ref)
    if dram_channels:
        assert fast.dram.stats_dict() == ref.dram.stats_dict()


def test_cache_access_runs_only_where_access_does_not_inline(monkeypatch):
    """LRU private levels and DRRIP L3 hits never call Cache.access;
    non-LRU private levels and LRU/GRASP L3 levels still do."""
    calls = []
    original = Cache.access

    def spy(self, line, write=False):
        hit = original(self, line, write)
        calls.append((id(self), hit))
        return hit

    monkeypatch.setattr(Cache, "access", spy)
    for l2, l3, expected in (
        ("lru", "drrip", set()),
        ("drrip", "drrip", {"l2"}),
        ("lru", "lru", {"l3"}),
        ("lru", "grasp", {"l3"}),
        ("grasp", "lru", {"l2", "l3"}),
    ):
        calls.clear()
        mem = MemorySystem(small_machine("lru", l2, l3, 0))
        # core 1 re-reads the lines core 0 brought in: it misses in its
        # own L1 and L2 and hits in the shared L3
        for core in (0, 1):
            for line in range(12):
                mem.access(core, BASE + line * LINE)
        assert sum(c.hits for c in mem.l3) > 0
        levels = {"l1": mem.l1, "l2": mem.l2, "l3": mem.l3}
        called = {
            name for name, caches in levels.items()
            if any(id(c) == key for c in caches for key, _ in calls)
        }
        assert called == expected, (l2, l3)
        if "l3" in expected:
            l3_ids = {id(c) for c in mem.l3}
            assert any(hit for key, hit in calls if key in l3_ids)
