"""Set-associative cache models with LRU, DRRIP, and GRASP replacement.

The three policies are the ones swept in Figure 16(b) of the paper:

* **LRU** — classic least-recently-used.
* **DRRIP** [18] — dynamic re-reference interval prediction with set-dueling
  between SRRIP (insert at RRPV = max-1) and BRRIP (insert mostly at max);
  this is the paper's default L3 policy (Table II).
* **GRASP** [13] — DRRIP extended with software-provided *hot region* hints:
  lines inside a registered hot address range (hub index, high-degree vertex
  states) are inserted at the highest priority and preferentially retained.

Caches operate on line addresses; byte-to-line mapping lives in
:class:`repro.hardware.hierarchy.MemorySystem`.

``writebacks`` (evictions) is derived, not counted: every miss installs
exactly one line and eviction is the only way a line leaves a set, so
the evictions since the last :meth:`Cache.reset_stats` are the misses
since then minus the growth in resident lines.  The eviction paths here
and in ``MemorySystem.access`` update no counter.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from .config import CacheConfig


class Cache:
    """A single set-associative cache level.

    ``access(line, write)`` returns True on hit.  Contents are per-line tags
    only — this is a timing/locality model, data lives in the simulated
    software arrays.
    """

    __slots__ = (
        "config",
        "num_sets",
        "_sets",
        "_set_mask",
        "hits",
        "misses",
        "_resident_at_reset",
        "_policy",
        "_hot_ranges",
        "_brip_counter",
        "_duel_leader_sets",
        "_psel",
    )

    RRPV_MAX = 3

    def __init__(self, config: CacheConfig, line_bytes: int = 64) -> None:
        self.config = config
        self.num_sets = config.num_sets(line_bytes)
        # Round down to a power of two so the index is a mask.
        while self.num_sets & (self.num_sets - 1):
            self.num_sets -= 1
        self._set_mask = self.num_sets - 1
        # Each set maps tag -> rrpv (ignored by LRU, which uses dict order).
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        #: lines resident at the last reset_stats (the writeback base)
        self._resident_at_reset = 0
        self._policy = config.policy
        if self._policy not in ("lru", "drrip", "grasp"):
            raise ValueError(f"unknown policy {config.policy!r}")
        self._hot_ranges: List[Tuple[int, int]] = []
        self._brip_counter = 0
        # Set-dueling: sets 0 mod 64 follow SRRIP, 32 mod 64 follow BRRIP,
        # the rest follow the winning policy via a saturating counter.
        self._duel_leader_sets = 64
        self._psel = 512

    # ------------------------------------------------------------------
    def add_hot_range(self, begin_line: int, end_line: int) -> None:
        """Register a GRASP hot region, in line addresses ``[begin, end)``."""
        self._hot_ranges.append((begin_line, end_line))

    def clear_hot_ranges(self) -> None:
        self._hot_ranges.clear()

    def _is_hot(self, line: int) -> bool:
        for begin, end in self._hot_ranges:
            if begin <= line < end:
                return True
        return False

    # ------------------------------------------------------------------
    def access(self, line: int, write: bool = False) -> bool:
        """Touch one cache line; returns True on hit, False on miss (the
        line is then installed)."""
        # the full line id is the tag: sets are disjoint by index
        index = line & self._set_mask
        cset = self._sets[index]
        if line in cset:
            self.hits += 1
            if self._policy == "lru":
                cset.move_to_end(line)
            else:
                cset[line] = 0  # RRIP: promote to near-immediate re-reference
            return True
        self.misses += 1
        self._install(cset, index, line, write)
        return False

    def probe(self, line: int) -> bool:
        """Check residency without updating replacement state or counters."""
        index = line & self._set_mask
        return line in self._sets[index]

    # ------------------------------------------------------------------
    def _install(self, cset: OrderedDict, index: int, tag: int, write: bool) -> None:
        ways = self.config.ways
        if len(cset) >= ways:
            self._evict(cset)
        if self._policy == "lru":
            cset[tag] = 0
            return
        hot = self._policy == "grasp" and self._is_hot(tag)
        if hot:
            cset[tag] = 0
            return
        cset[tag] = self._insertion_rrpv(index)

    def _insertion_rrpv(self, index: int) -> int:
        mod = index & 63
        if mod == 0:  # SRRIP leader set
            use_brip = False
        elif mod == 32:  # BRRIP leader set
            use_brip = True
        else:
            use_brip = self._psel < 512
        if not use_brip:
            return self.RRPV_MAX - 1
        # BRRIP: distant insertion except 1-in-32 accesses.
        self._brip_counter = (self._brip_counter + 1) & 31
        return self.RRPV_MAX - 1 if self._brip_counter == 0 else self.RRPV_MAX

    def _evict(self, cset: OrderedDict) -> None:
        if self._policy == "lru":
            # positional: a keyword ``last=`` goes through the argument
            # parser on every eviction
            cset.popitem(False)
            return
        # RRIP victim search: evict a line with RRPV == max, aging otherwise.
        # GRASP never ages hot lines past max-1, preferring cold victims;
        # once a set of only hot lines has nothing left to age, its oldest
        # line goes.
        while True:
            victim: Optional[int] = None
            for tag, rrpv in cset.items():
                if rrpv >= self.RRPV_MAX:
                    victim = tag
                    break
            if victim is not None:
                del cset[victim]
                return
            aged = False
            for tag in cset:
                rrpv = cset[tag]
                if self._policy == "grasp" and self._is_hot(tag):
                    if rrpv < self.RRPV_MAX - 1:
                        cset[tag] = rrpv + 1
                        aged = True
                else:
                    cset[tag] = rrpv + 1
                    aged = True
            if not aged:
                del cset[next(iter(cset))]
                return

    # ------------------------------------------------------------------
    def note_duel_outcome(self, index: int, hit: bool) -> None:
        """Update the set-dueling selector (called by the hierarchy on L3
        accesses to leader sets)."""
        mod = index & 63
        if mod == 0:  # SRRIP leader: misses push toward BRRIP
            if not hit:
                self._psel = max(0, self._psel - 1)
        elif mod == 32:
            if not hit:
                self._psel = min(1023, self._psel + 1)

    @property
    def writebacks(self) -> int:
        """Lines evicted since the last :meth:`reset_stats`: the misses
        (each installed one line) less the lines still resident beyond
        those resident at the reset."""
        return self.misses - self._resident_lines() + self._resident_at_reset

    def _resident_lines(self) -> int:
        """How many lines the cache holds now."""
        return sum(map(len, self._sets))

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def stats_dict(self) -> dict:
        """Counter snapshot for the observability layer (metrics.json)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "hit_rate": self.hit_rate(),
        }

    def reset_stats(self) -> None:
        self.hits = self.misses = 0
        self._resident_at_reset = self._resident_lines()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cache(policy={self._policy}, sets={self.num_sets}, "
            f"ways={self.config.ways}, hits={self.hits}, misses={self.misses})"
        )
