"""Execution statistics shared by every runtime.

The counters mirror what the paper measures: vertex updates (Figure 10),
core utilization and its useful/useless split (Figures 4a and 12), the
state-processing vs other-time breakdown (Figure 9), per-round activity
(Figure 4c), and the event counts that feed the energy model (Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..hardware.energy import EnergyConstants, EnergyReport, energy_from_counts


@dataclass
class RoundLog:
    """One round's activity for per-round plots (Figure 4c)."""

    round_index: int
    active_vertices: int
    updates: int
    makespan_cycles: float


@dataclass
class ExecutionResult:
    """Everything a runtime reports after convergence."""

    system: str
    algorithm: str
    states: np.ndarray
    total_updates: int
    edge_operations: int
    rounds: int
    #: simulated makespan: the largest per-core clock at convergence
    cycles: float
    #: per-core busy cycles (compute + memory + overhead)
    core_busy: List[float]
    #: busy-cycle split by category
    compute_cycles: float
    memory_cycles: float
    overhead_cycles: float
    num_cores: int
    converged: bool
    #: memory cycles spent on the vertex state/delta arrays
    state_memory_cycles: float = 0.0
    mem_stats: Dict[str, float] = field(default_factory=dict)
    access_counts: Dict[str, int] = field(default_factory=dict)
    engine_ops: int = 0
    hub_index_entries: int = 0
    hub_index_bytes: int = 0
    shortcut_applications: int = 0
    round_log: List[RoundLog] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    #: which vertex ordering laid out the state/delta arrays for this run
    #: (see :mod:`repro.graph.reorder`); "identity" for unreordered runs
    ordering: str = "identity"
    #: vertex -> owning core, reported in *original* vertex ids even when
    #: the run executed over a permuted view
    partition_map: Optional[np.ndarray] = None
    #: hub-vertex ids selected by the DepGraph runtimes, likewise in
    #: original vertex ids (None for systems without a hub set)
    hub_vertex_ids: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def busy_cycles(self) -> float:
        return float(sum(self.core_busy))

    @property
    def idle_cycles(self) -> float:
        return max(0.0, self.cycles * self.num_cores - self.busy_cycles)

    def utilization(self) -> float:
        """U: fraction of core-cycles spent busy."""
        total = self.cycles * self.num_cores
        return self.busy_cycles / total if total else 0.0

    def effective_utilization(self, sequential_updates: int) -> float:
        """r_e = u_s * U / u_d (Section II), given the sequential baseline's
        update count u_s."""
        if self.total_updates == 0:
            return 0.0
        ratio = min(1.0, sequential_updates / self.total_updates)
        return ratio * self.utilization()

    @property
    def state_processing_fraction(self) -> float:
        """Fraction of busy time spent in vertex-state processing (Figure 9's
        'vertex state processing time'): the gather/apply/scatter arithmetic
        plus the state/delta array traffic; everything else (structure
        fetches, traversal bookkeeping, queues, hub index, stalls, sync) is
        'other time'."""
        busy = self.compute_cycles + self.memory_cycles + self.overhead_cycles
        state = self.compute_cycles + self.state_memory_cycles
        return state / busy if busy else 0.0

    @property
    def state_processing_cycles(self) -> float:
        """Makespan share attributed to state processing."""
        return self.cycles * self.state_processing_fraction

    @property
    def other_cycles(self) -> float:
        return self.cycles - self.state_processing_cycles

    # ------------------------------------------------------------------
    def energy(
        self, constants: EnergyConstants = EnergyConstants()
    ) -> EnergyReport:
        """Fold the event counters into the McPAT-style energy model."""
        return energy_from_counts(
            busy_cycles=self.busy_cycles,
            idle_cycles=self.idle_cycles,
            l1_accesses=self.access_counts.get("l1_hits", 0),
            l2_accesses=self.access_counts.get("l2_hits", 0),
            l3_accesses=self.access_counts.get("l3_hits", 0),
            noc_hops=self.access_counts.get("noc_hop_count", 0),
            dram_accesses=self.access_counts.get("dram_accesses", 0),
            accel_ops=self.engine_ops,
            constants=constants,
        )

    def speedup_over(self, baseline: "ExecutionResult") -> float:
        return baseline.cycles / self.cycles if self.cycles else 0.0

    def updates_normalized_to(self, baseline: "ExecutionResult") -> float:
        if baseline.total_updates == 0:
            return 0.0
        return self.total_updates / baseline.total_updates
