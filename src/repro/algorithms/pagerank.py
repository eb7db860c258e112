"""Incremental (delta-based) PageRank — Figure 1(a) of the paper.

The delta-accumulative formulation (Maiter): every vertex starts with state 0
and pending delta ``1 - d``; processing a vertex folds the delta into its
state and scatters ``d * delta / out_degree`` to each out-neighbour.  At
convergence ``state[v]`` equals the (unnormalised) PageRank
``(1 - d) + d * sum(state[u] / deg(u))``.
"""

from __future__ import annotations

from ..graph.csr import CSRGraph
from .base import SumAlgorithm, out_degree_share
from .linear import DepFunc, dep_arrays


class IncrementalPageRank(SumAlgorithm):
    """EdgeCompute returns ``delta_j * probability_j`` with
    ``probability_j = d / out_degree(j)``."""

    name = "pagerank"

    def __init__(self, damping: float = 0.85, epsilon: float = 1e-5) -> None:
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must lie in (0, 1)")
        self.damping = damping
        self.epsilon = epsilon

    def initial_state(self, v: int, graph: CSRGraph) -> float:
        return 0.0

    def initial_delta(self, v: int, graph: CSRGraph) -> float:
        return 1.0 - self.damping

    def edge_compute(
        self, source: int, value: float, weight: float, graph: CSRGraph
    ) -> float:
        degree = graph.out_degree(source)
        return value * self.damping / degree if degree else 0.0

    def edge_linear(self, source: int, weight: float, graph: CSRGraph) -> DepFunc:
        degree = graph.out_degree(source)
        mu = self.damping / degree if degree else 0.0
        return DepFunc(mu, 0.0)

    def edge_linear_arrays(self, sources, weights, graph: CSRGraph):
        return dep_arrays(
            len(sources), out_degree_share(self.damping, sources, graph)
        )
