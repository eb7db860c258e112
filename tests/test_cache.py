"""Tests for the cache models (LRU / DRRIP / GRASP) and the hierarchy."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import Cache
from repro.hardware.config import CacheConfig, HardwareConfig
from repro.hardware.hierarchy import MemorySystem
from repro.hardware.noc import MeshNoC


def make_cache(size=1024, ways=2, policy="lru"):
    return Cache(CacheConfig(size, ways, 4, policy), line_bytes=64)


class TestLRU:
    def test_miss_then_hit(self):
        c = make_cache()
        assert not c.access(5)
        assert c.access(5)
        assert c.hits == 1 and c.misses == 1

    def test_eviction_order(self):
        c = make_cache(size=128, ways=2)  # 1 set, 2 ways
        assert c.num_sets == 1
        c.access(1)
        c.access(2)
        c.access(1)  # 1 is now MRU
        c.access(3)  # evicts 2
        assert c.probe(1)
        assert not c.probe(2)
        assert c.probe(3)

    def test_capacity_respected(self):
        c = make_cache(size=256, ways=2)  # 2 sets x 2 ways = 4 lines
        for line in range(16):
            c.access(line)
        resident = sum(c.probe(line) for line in range(16))
        assert resident <= 4

    def test_hit_rate(self):
        c = make_cache()
        c.access(1)
        c.access(1)
        c.access(1)
        c.access(2)
        assert c.hit_rate() == pytest.approx(0.5)

    def test_reset_stats(self):
        c = make_cache()
        c.access(1)
        c.reset_stats()
        assert c.accesses == 0


class TestRRIP:
    def test_basic_hit(self):
        c = make_cache(policy="drrip")
        c.access(7)
        assert c.access(7)

    def test_thrash_resistance(self):
        """DRRIP's point: a huge scan should not flush a reused line the way
        LRU does (BRRIP inserts scans at distant RRPV)."""
        lru = make_cache(size=512, ways=8, policy="lru")
        rrip = make_cache(size=512, ways=8, policy="drrip")
        for cache in (lru, rrip):
            for _ in range(200):
                cache.access(0)  # hot line
                cache.access(0)
            # scanning stream mapping to the same set
            hot_hits_before = cache.hits
        def scan_and_count(cache):
            hits = 0
            for i in range(1, 4000):
                cache.access(i * cache.num_sets)  # all land in set 0
                if cache.access(0):
                    hits += 1
            return hits
        assert scan_and_count(rrip) >= scan_and_count(lru)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_cache(policy="belady")


class TestGRASP:
    def test_hot_range_protected(self):
        """GRASP keeps lines in the registered hot region resident under a
        conflicting scan; plain DRRIP loses them more often."""

        def run(policy):
            c = make_cache(size=512, ways=8, policy=policy)
            if policy == "grasp":
                c.add_hot_range(0, 1)
            hits = 0
            for i in range(1, 3000):
                c.access(i * c.num_sets)
                if c.access(0):
                    hits += 1
            return hits

        assert run("grasp") >= run("drrip")

    def test_all_hot_set_evicts_its_oldest_line(self):
        """A set holding only hot lines cannot age them to a victim; the
        next install evicts the oldest of them instead of spinning."""
        c = make_cache(size=512, ways=4, policy="grasp")
        stride = c.num_sets
        c.add_hot_range(0, 4 * stride)
        hot = [i * stride for i in range(4)]
        for line in hot:
            c.access(line)
        assert not c.access(4 * stride)  # a cold line in the same set
        assert not c.probe(hot[0])
        assert all(c.probe(line) for line in hot[1:] + [4 * stride])
        assert c.writebacks == 1

    def test_clear_hot_ranges(self):
        c = make_cache(policy="grasp")
        c.add_hot_range(0, 10)
        c.clear_hot_ranges()
        assert not c._is_hot(5)


class TestMeshNoC:
    def test_same_node_zero_hops(self):
        noc = MeshNoC(8, 8, 3)
        assert noc.hops(5, 5) == 0

    def test_manhattan_distance(self):
        noc = MeshNoC(8, 8, 3)
        # node 0 is (0,0); node 9 is (1,1) -> 2 hops
        assert noc.hops(0, 9) == 2

    def test_round_trip_latency(self):
        noc = MeshNoC(8, 8, 3)
        assert noc.latency(0, 9) == 2 * 2 * 3

    def test_average_latency_positive(self):
        noc = MeshNoC(4, 4, 3)
        assert 0 < noc.average_latency() < 4 * 2 * 3 * 8

    def test_corner_to_corner(self):
        noc = MeshNoC(8, 8, 3)
        assert noc.hops(0, 63) == 14


class TestMemorySystem:
    def test_first_access_misses_to_dram(self):
        ms = MemorySystem(HardwareConfig.scaled(num_cores=2))
        cold = ms.access(0, 0x1000000)
        warm = ms.access(0, 0x1000000)
        assert cold > warm
        assert warm <= ms.config.l1d.latency + 1

    def test_l2_hit_after_l1_eviction(self):
        cfg = HardwareConfig.scaled(num_cores=1)
        ms = MemorySystem(cfg)
        ms.access(0, 0)
        # stream enough lines to evict line 0 from L1 but not L2
        l1_lines = cfg.l1d.size_bytes // 64
        for i in range(1, l1_lines * 2):
            ms.access(0, i * 64)
        latency = ms.access(0, 0)
        assert latency <= cfg.l1d.latency + cfg.l2.latency + 1 or latency > 0

    def test_per_core_private_l1(self):
        ms = MemorySystem(HardwareConfig.scaled(num_cores=2))
        ms.access(0, 0x5000)
        # core 1 misses privately but hits shared L3
        lat = ms.access(1, 0x5000)
        assert lat > ms.config.l1d.latency

    def test_access_range_touches_all_lines(self):
        ms = MemorySystem(HardwareConfig.scaled(num_cores=1))
        ms.access_range(0, 0, 256)
        assert ms.l1[0].accesses == 4

    def test_stats_accumulate(self):
        ms = MemorySystem(HardwareConfig.scaled(num_cores=1))
        lines = 8  # well under the scaled 1 KB L1 (16 lines)
        for i in range(lines):
            ms.access(0, i * 64)
        stats = ms.stats.as_dict()
        assert stats["dram_accesses"] == lines
        for i in range(lines):
            ms.access(0, i * 64)
        assert ms.stats.l1_hits == lines

    def test_hot_range_registration(self):
        ms = MemorySystem(
            HardwareConfig.scaled(num_cores=1).with_l3(policy="grasp")
        )
        ms.add_hot_range(0, 4096)
        assert all(bank._hot_ranges for bank in ms.l3)

    def test_cache_stats_keys(self):
        ms = MemorySystem(HardwareConfig.scaled(num_cores=1))
        ms.access(0, 0)
        stats = ms.cache_stats()
        assert set(stats) >= {"l1_hit_rate", "l2_hit_rate", "l3_hit_rate"}


class TestHardwareConfig:
    def test_paper_matches_table_ii(self):
        cfg = HardwareConfig.paper()
        assert cfg.num_cores == 64
        assert cfg.l1d.size_bytes == 32 * 1024
        assert cfg.l2.size_bytes == 256 * 1024
        assert cfg.l3.size_bytes == 128 * 1024 * 1024
        assert cfg.l3_banks == 32
        assert cfg.mesh_width == cfg.mesh_height == 8
        assert cfg.noc_hop_cycles == 3

    def test_scaled_shrinks_caches(self):
        cfg = HardwareConfig.scaled()
        assert cfg.l3.size_bytes < HardwareConfig.paper().l3.size_bytes

    def test_with_cores(self):
        cfg = HardwareConfig.scaled().with_cores(8)
        assert cfg.num_cores == 8

    def test_with_l3_override(self):
        cfg = HardwareConfig.scaled().with_l3(policy="grasp")
        assert cfg.l3.policy == "grasp"

    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            HardwareConfig(num_cores=0)


# ----------------------------------------------------------------------
# ``Cache.writebacks`` is derived (misses less the growth in resident
# lines since the last reset); these count evictions independently, as
# the lines that left the sets around each access.


def _resident(cache):
    return {line for cset in cache._sets for line in cset}


_cache_streams = st.lists(
    st.one_of(
        st.integers(0, 47),  # a line
        st.just(None),  # reset_stats
    ),
    min_size=1,
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(
    policy=st.sampled_from(("lru", "drrip", "grasp")),
    num_sets=st.sampled_from((1, 2, 4)),
    ways=st.integers(1, 4),
    hot=st.sampled_from(((0, 0), (0, 8), (4, 20), (0, 48))),
    stream=_cache_streams,
)
def test_writebacks_count_the_lines_that_left(policy, num_sets, ways, hot, stream):
    """Random line streams with ``reset_stats`` at random points, on
    small caches of every policy; GRASP gets hot ranges, up to every
    line (all-hot sets), which only its oldest-line fallback can evict
    from."""
    c = Cache(CacheConfig(num_sets * ways * 64, ways, 4, policy), line_bytes=64)
    assert c.num_sets == num_sets
    if hot[1]:
        c.add_hot_range(*hot)
    left = 0
    for line in stream:
        if line is None:
            c.reset_stats()
            left = 0
        else:
            before = _resident(c)
            c.access(line)
            left += len(before - _resident(c))
        assert c.writebacks == left


@settings(max_examples=100, deadline=None)
@given(
    l1=st.sampled_from(("lru", "drrip", "grasp")),
    l2=st.sampled_from(("lru", "drrip", "grasp")),
    l3=st.sampled_from(("lru", "drrip", "grasp")),
    stream=st.lists(
        st.one_of(
            st.tuples(st.integers(0, 1), st.integers(0, 95)),  # (core, line)
            st.just(None),  # reset_stats on every cache
        ),
        min_size=1,
        max_size=200,
    ),
)
def test_hierarchy_writebacks_count_the_lines_that_left(l1, l2, l3, stream):
    """The same count through ``MemorySystem.access``, whose private LRU
    levels evict inline."""
    config = replace(
        HardwareConfig.scaled(num_cores=2),
        l1d=CacheConfig(4 * 64, 2, 4, l1),
        l2=CacheConfig(16 * 64, 4, 7, l2),
        l3=CacheConfig(64 * 64, 4, 27, l3),
        l3_banks=2,
    )
    ms = MemorySystem(config)
    ms.add_hot_range(0, 16 * 64)
    caches = ms.l1 + ms.l2 + ms.l3
    left = [0] * len(caches)
    for item in stream:
        if item is None:
            for c in caches:
                c.reset_stats()
            left = [0] * len(caches)
            continue
        core, line = item
        before = [_resident(c) for c in caches]
        ms.access(core, line * 64)
        for i, c in enumerate(caches):
            left[i] += len(before[i] - _resident(c))
    assert [c.writebacks for c in caches] == left
