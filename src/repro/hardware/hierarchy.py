"""The simulated memory subsystem: per-core L1D/L2, shared banked L3, DRAM.

``access()`` walks the hierarchy for one byte address and returns the latency
in cycles, charging NoC hops between the core tile and the owning L3 bank
(Table II parameters).  Coherence is approximated: lines are private to the
accessing core's L1/L2 and a remote write simply invalidates nothing — the
paper's phenomena come from locality and DRAM pressure, which this captures;
full MESI is out of scope for a cycle-approximate model (see DESIGN.md).

``access()`` is the one entry point for a simulated access and the
simulator's innermost loop.  Each core's private caches, their set lists
and masks, and its NoC row are bound once, at construction; private LRU
levels and hits in a DRRIP L3 bank are resolved inline on the sets.
:class:`repro.hardware.cache.Cache` stays the reference model of every
level: ``tests/test_memsys_reference.py`` checks that ``access()`` matches
a plain composition of ``Cache.access`` calls, access for access.

Hits are counted once, by the cache that took them: ``AccessStats``'
``l1_hits``, ``l2_hits`` and ``l3_hits`` are sums of the caches' own
``hits``.  That also counts the two L1 hits per DepGraph-H chain edge
that ``SimContext.charge_chain_edge`` charges without calling
``access()``: the engine has just fetched both lines into the core's
L1, and :meth:`MemorySystem.prefetched_hit_bindings` says once per run
whether that makes them hits by construction (an LRU L1 of at least two
ways) and hands over the L1 bindings the charge resolves them on.

Evictions are not counted at all: ``Cache.writebacks`` is derived from
the misses and the lines resident, so an inline LRU eviction here only
pops the set's oldest line, as ``popitem(False)``: positional, because
a ``last=`` keyword costs an argument-parser pass on every eviction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .cache import Cache
from .config import HardwareConfig
from .dram import DRAMModel
from .noc import MeshNoC, NoCTraffic


class AccessStats:
    """Aggregate counters for energy accounting and reports.

    The hit counters are derived: every cache counts its own ``hits``,
    and ``l1_hits``, ``l2_hits`` and ``l3_hits`` sum them over a level,
    so a simulated hit bumps one counter.  DRAM accesses and NoC hops
    are counted here."""

    __slots__ = ("_l1", "_l2", "_l3", "dram_accesses", "noc_hop_count")

    #: the report's keys, in order
    FIELDS = ("l1_hits", "l2_hits", "l3_hits", "dram_accesses", "noc_hop_count")

    def __init__(
        self, l1: List[Cache], l2: List[Cache], l3: List[Cache]
    ) -> None:
        self._l1 = l1
        self._l2 = l2
        self._l3 = l3
        self.dram_accesses = 0
        self.noc_hop_count = 0

    @property
    def l1_hits(self) -> int:
        return sum(c.hits for c in self._l1)

    @property
    def l2_hits(self) -> int:
        return sum(c.hits for c in self._l2)

    @property
    def l3_hits(self) -> int:
        return sum(c.hits for c in self._l3)

    def as_dict(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self.FIELDS}


class MemorySystem:
    """One memory hierarchy instance shared by all simulated cores."""

    def __init__(self, config: HardwareConfig) -> None:
        self.config = config
        line = config.line_bytes
        self._line_shift = line.bit_length() - 1
        self.l1: List[Cache] = [
            Cache(config.l1d, line) for _ in range(config.num_cores)
        ]
        self.l2: List[Cache] = [
            Cache(config.l2, line) for _ in range(config.num_cores)
        ]
        # The shared L3 is modelled as independent banks; the bank is chosen
        # by line address, as hashed set-associative LLCs do.
        bank_cfg = config.l3
        per_bank = max(
            config.line_bytes * bank_cfg.ways,
            bank_cfg.size_bytes // config.l3_banks,
        )
        from dataclasses import replace

        self.l3: List[Cache] = [
            Cache(replace(bank_cfg, size_bytes=per_bank), line)
            for _ in range(config.l3_banks)
        ]
        self.noc = MeshNoC(
            config.mesh_width, config.mesh_height, config.noc_hop_cycles
        )
        self.stats = AccessStats(self.l1, self.l2, self.l3)
        #: optional bandwidth-aware DRAM (config.dram_channels > 0)
        self.dram: Optional[DRAMModel] = (
            DRAMModel(config.dram_channels, config.dram_latency)
            if config.dram_channels > 0
            else None
        )
        # hot-path lookups, precomputed once
        self._l1_lat = config.l1d.latency
        self._l2_hit_lat = config.l1d.latency + config.l2.latency
        self._dram_lat = config.dram_latency
        self._l3_banks = config.l3_banks
        # per-level replacement, decided once: LRU private levels and
        # DRRIP L3 hits are resolved inline by access(), the others call
        # Cache.access
        self._l1_lru = config.l1d.policy == "lru"
        self._l2_lru = config.l2.policy == "lru"
        self._l3_drrip = config.l3.policy == "drrip"
        self._l1_ways = config.l1d.ways
        self._l2_ways = config.l2.ways
        # per-core bindings, so access() unpacks one tuple per level it
        # reaches: the core's L1 and its set list and mask; past an L1
        # miss, the same for its L2 plus, per L3 bank, the
        # round-trip hop count and the latency of an L3 hit (the L1/L2
        # lookups plus the NoC round trip plus the L3 itself)
        self._private_l1 = [(c, c._sets, c._set_mask) for c in self.l1]
        self._beyond_l1 = []
        for core, l2 in enumerate(self.l2):
            hops = [
                2 * self.noc.hops(core, bank) for bank in range(config.l3_banks)
            ]
            l3_cycles = [
                self._l2_hit_lat + (hop * config.noc_hop_cycles + config.l3.latency)
                for hop in hops
            ]
            self._beyond_l1.append((l2, l2._sets, l2._set_mask, hops, l3_cycles))
        # Observability (off by default): when a MetricRegistry is attached,
        # the cold sections of access() additionally record NoC hop
        # distances and DRAM queueing samples.  The hot path pays a single
        # attribute check when disabled.
        self._metrics = None
        self.noc_traffic: Optional[NoCTraffic] = None

    def prefetched_hit_bindings(self) -> Optional[tuple]:
        """How to resolve, without :meth:`access`, a core's accesses to
        two lines just fetched into its own L1 (first ``a``, then ``b``,
        no access in between) when it touches them again as ``b``, then
        ``a``; None if those accesses must walk the hierarchy.

        An LRU L1 of at least two ways still holds both lines with ``b``
        the most recently used, so both accesses hit at the L1 latency
        and the only replacement effect is moving ``a`` to the end of its
        set (a no-op unless the two share a set).  A non-LRU or 1-way L1
        proves nothing.  Where the rule holds, returns ``(l1 latency,
        line shift, per-core (cache, sets, set mask))``: the caller bumps
        the cache's ``hits`` by two and moves ``a`` itself."""
        if self._l1_lru and self._l1_ways >= 2:
            return self._l1_lat, self._line_shift, self._private_l1
        return None

    # ------------------------------------------------------------------
    def access(
        self, core: int, addr: int, write: bool = False, now: float = 0.0
    ) -> float:
        """Walk the hierarchy for one address; returns latency in cycles.

        ``now`` (the requester's clock) only matters when the bandwidth-
        aware DRAM model is enabled: it determines channel queueing.

        Private LRU levels are resolved here, on their sets, with the
        same counters and replacement as :meth:`Cache.access` (which
        stays the reference model); so is a hit in a DRRIP L3 bank (the
        line's RRPV drops to 0; a hit never moves the set-dueling
        selector).  An L3 miss installs through the bank's own
        ``_install``; LRU and GRASP L3 banks and non-LRU private levels
        go through :meth:`Cache.access`.  This is the simulator's
        innermost loop: one call per simulated access, so the core's
        caches, set lists and NoC row come from tuples bound in
        ``__init__``."""
        line = addr >> self._line_shift
        l1, l1_sets, l1_mask = self._private_l1[core]
        if self._l1_lru:
            cset = l1_sets[line & l1_mask]
            if line in cset:
                cset.move_to_end(line)
                l1.hits += 1
                return self._l1_lat
            l1.misses += 1
            if len(cset) >= self._l1_ways:
                cset.popitem(False)
            cset[line] = 0
        elif l1.access(line, write):
            return self._l1_lat
        l2, l2_sets, l2_mask, hops, l3_cycles = self._beyond_l1[core]
        if self._l2_lru:
            cset = l2_sets[line & l2_mask]
            if line in cset:
                cset.move_to_end(line)
                l2.hits += 1
                return self._l2_hit_lat
            l2.misses += 1
            if len(cset) >= self._l2_ways:
                cset.popitem(False)
            cset[line] = 0
        elif l2.access(line, write):
            return self._l2_hit_lat
        bank = (line ^ (line >> 7)) % self._l3_banks
        self.stats.noc_hop_count += hops[bank]
        cycles = l3_cycles[bank]
        if self.noc_traffic is not None:
            self.noc_traffic.record(core, hops[bank] // 2)
        l3_bank = self.l3[bank]
        index = line & l3_bank._set_mask
        if self._l3_drrip:
            cset = l3_bank._sets[index]
            if line in cset:
                cset[line] = 0
                l3_bank.hits += 1
                return cycles
            l3_bank.misses += 1
            l3_bank._install(cset, index, line, write)
            l3_bank.note_duel_outcome(index, False)
        else:
            hit = l3_bank.access(line, write)
            l3_bank.note_duel_outcome(index, hit)
            if hit:
                return cycles
        self.stats.dram_accesses += 1
        if self.dram is not None:
            latency = self.dram.access(line, now + cycles)
            if self._metrics is not None:
                self._metrics.observe(
                    "dram.queue_delay", latency - self.dram.base_latency
                )
            return cycles + latency
        return cycles + self._dram_lat

    def access_range(self, core: int, addr: int, nbytes: int, write: bool = False) -> int:
        """Touch every line covered by ``[addr, addr + nbytes)``."""
        if nbytes <= 0:
            return 0
        first = addr >> self._line_shift
        last = (addr + nbytes - 1) >> self._line_shift
        cycles = 0
        for line in range(first, last + 1):
            cycles += self.access(core, line << self._line_shift, write)
        return cycles

    def prefetch(self, core: int, addr: int) -> int:
        """Install a line on behalf of a prefetch engine.

        Returns the latency the *engine* pays; the core later hits in L2/L1.
        The DepGraph engine 'issues the instructions to access the data from
        the L2 cache' (Section III-B), so fills land in the core's L2.
        """
        return self.access(core, addr, write=False)

    # ------------------------------------------------------------------
    def add_hot_range(self, begin_addr: int, end_addr: int) -> None:
        """Register a GRASP hot region (applies to the shared L3)."""
        begin_line = begin_addr >> self._line_shift
        end_line = (end_addr + self.config.line_bytes - 1) >> self._line_shift
        for bank in self.l3:
            bank.add_hot_range(begin_line, end_line)

    def attach_observer(self, metrics) -> None:
        """Enable per-access observation (NoC hop recording, DRAM queueing
        samples) feeding ``metrics``.  Leaves the hot path untouched when
        never called."""
        self._metrics = metrics
        if self.noc_traffic is None:
            self.noc_traffic = NoCTraffic(self.noc.width * self.noc.height)

    def flush_metrics(self, metrics) -> None:
        """Fold the hierarchy's counters into a MetricRegistry.

        Safe to call on any run (the counters below are maintained
        unconditionally); the NoC/DRAM sampling extras appear only when
        :meth:`attach_observer` enabled them.
        """
        # "llc" aliases the shared L3 so locality dashboards and the CI
        # perf gate can address the last-level cache by role, not level.
        levels = (
            ("l1", self.l1),
            ("l2", self.l2),
            ("l3", self.l3),
            ("llc", self.l3),
        )
        for name, caches in levels:
            hits = sum(c.hits for c in caches)
            misses = sum(c.misses for c in caches)
            writebacks = sum(c.writebacks for c in caches)
            metrics.set(f"cache.{name}.hits", hits)
            metrics.set(f"cache.{name}.misses", misses)
            metrics.set(f"cache.{name}.writebacks", writebacks)
            total = hits + misses
            metrics.set(f"cache.{name}.hit_rate", hits / total if total else 0.0)
        metrics.set("noc.hop_count", self.stats.noc_hop_count)
        metrics.set("dram.accesses", self.stats.dram_accesses)
        if self.noc_traffic is not None:
            for key, value in self.noc_traffic.stats_dict().items():
                metrics.set(f"noc.{key}", float(value))
        if self.dram is not None:
            for key, value in self.dram.stats_dict().items():
                metrics.set(f"dram.{key}", float(value))

    def cache_stats(self) -> Dict[str, float]:
        l1_acc = sum(c.accesses for c in self.l1)
        l2_acc = sum(c.accesses for c in self.l2)
        l3_acc = sum(c.accesses for c in self.l3)
        l1_hit = sum(c.hits for c in self.l1)
        l2_hit = sum(c.hits for c in self.l2)
        l3_hit = sum(c.hits for c in self.l3)
        return {
            "l1_hit_rate": l1_hit / l1_acc if l1_acc else 0.0,
            "l2_hit_rate": l2_hit / l2_acc if l2_acc else 0.0,
            "l3_hit_rate": l3_hit / l3_acc if l3_acc else 0.0,
            "dram_accesses": float(self.stats.dram_accesses),
        }
