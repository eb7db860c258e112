"""Extension algorithms from Table I of the paper.

SSWP and Katz centrality satisfy both transformation properties; k-core's
scatter value depends on a threshold crossing of the state, which breaks
Property 2, so it runs with the dependency transformation disabled — the
code path the paper prescribes for non-conforming algorithms.
"""

from __future__ import annotations

from ..graph.csr import CSRGraph
from .base import INF, MaxAlgorithm, SumAlgorithm
from .linear import DepFunc, dep_arrays


class SSWP(MaxAlgorithm):
    """Single-Source Widest Path: the best bottleneck capacity from a source.

    ``Accum = max``; ``EdgeCompute = min(value, weight)`` — linear-with-cap,
    which the generalised :class:`DepFunc` composes exactly.
    """

    name = "sswp"
    needs_weights = True

    def __init__(self, source: int = 0) -> None:
        if source < 0:
            raise ValueError("source must be a valid vertex id")
        self.source = source

    def initial_state(self, v: int, graph: CSRGraph) -> float:
        return -INF

    def initial_delta(self, v: int, graph: CSRGraph) -> float:
        return INF if v == self.source else -INF

    def edge_compute(
        self, source: int, value: float, weight: float, graph: CSRGraph
    ) -> float:
        return value if value < weight else weight

    def edge_linear(self, source: int, weight: float, graph: CSRGraph) -> DepFunc:
        return DepFunc(1.0, 0.0, cap=weight)

    def edge_linear_arrays(self, sources, weights, graph: CSRGraph):
        return dep_arrays(len(sources), 1.0, 0.0, weights)


class KatzCentrality(SumAlgorithm):
    """Katz metric: influence decays by ``attenuation`` per hop."""

    name = "katz"

    def __init__(self, attenuation: float = 0.1, epsilon: float = 1e-6) -> None:
        if not 0.0 < attenuation < 1.0:
            raise ValueError("attenuation must lie in (0, 1)")
        self.attenuation = attenuation
        self.epsilon = epsilon

    def initial_state(self, v: int, graph: CSRGraph) -> float:
        return 0.0

    def initial_delta(self, v: int, graph: CSRGraph) -> float:
        return 1.0

    def edge_compute(
        self, source: int, value: float, weight: float, graph: CSRGraph
    ) -> float:
        return value * self.attenuation

    def edge_linear(self, source: int, weight: float, graph: CSRGraph) -> DepFunc:
        return DepFunc(self.attenuation, 0.0)

    def edge_linear_arrays(self, sources, weights, graph: CSRGraph):
        return dep_arrays(len(sources), self.attenuation)


class KCore(SumAlgorithm):
    """k-core membership by degree peeling in GAS form.

    State is the remaining (symmetrised) degree; when a vertex's state drops
    below ``k`` it dies and notifies each neighbour with a ``-1`` decrement.
    Vertices that start below ``k`` are given state ``k`` and a pending delta
    of ``degree - k`` so the first update performs the crossing — the death
    fires exactly once because states only decrease.

    The scattered value depends on the crossing, not linearly on the delta,
    so ``transformable = False``: DepGraph runs this with the hub index
    disabled (Section III-A3's escape hatch).
    """

    name = "kcore"
    transformable = False
    needs_symmetric = True

    def __init__(self, k: int = 3) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.epsilon = 0.0

    def _degree(self, v: int, graph: CSRGraph) -> int:
        # Runtimes symmetrise the graph for this algorithm, so out-degree on
        # the symmetrised view is the undirected degree.
        return graph.out_degree(v)

    def initial_state(self, v: int, graph: CSRGraph) -> float:
        return float(max(self._degree(v, graph), self.k))

    def initial_delta(self, v: int, graph: CSRGraph) -> float:
        return float(min(0, self._degree(v, graph) - self.k))

    def initial_active(self, v: int, graph: CSRGraph) -> bool:
        return self._degree(v, graph) < self.k

    def edge_compute(
        self, source: int, value: float, weight: float, graph: CSRGraph
    ) -> float:
        return value

    def propagate_value(
        self, v: int, old_state: float, new_state: float, graph: CSRGraph
    ) -> float:
        crossed = old_state >= self.k and new_state < self.k
        return -1.0 if crossed else 0.0

    def is_significant(self, delta: float, state: float) -> bool:
        # Dead vertices (state < k) never need reprocessing; live ones only
        # when they actually lost degree.
        return delta < 0 and state >= self.k

    def in_core(self, state: float) -> bool:
        """Whether a final state indicates k-core membership."""
        return state >= self.k
