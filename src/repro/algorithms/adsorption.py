"""Adsorption label propagation — Figure 1(b) of the paper.

Each vertex carries a continuation probability; the influence scattered on an
edge is ``delta_j * probability_j`` where ``probability_j`` spreads the
continuation mass uniformly over ``j``'s out-edges (the standard adsorption
formulation from Maiter).  Injection seeds provide the initial deltas.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..graph.csr import CSRGraph
from .base import SumAlgorithm, out_degree_share
from .linear import DepFunc, dep_arrays


class Adsorption(SumAlgorithm):
    name = "adsorption"

    def __init__(
        self,
        continuation: float = 0.8,
        injections: Optional[Dict[int, float]] = None,
        epsilon: float = 1e-5,
    ) -> None:
        if not 0.0 < continuation < 1.0:
            raise ValueError("continuation must lie in (0, 1)")
        self.continuation = continuation
        #: None means every vertex injects unit mass (the dense default used
        #: by the paper's benchmarks); otherwise a sparse seed map.
        self.injections = injections
        self.epsilon = epsilon

    def initial_state(self, v: int, graph: CSRGraph) -> float:
        return 0.0

    def initial_delta(self, v: int, graph: CSRGraph) -> float:
        if self.injections is None:
            return 1.0 - self.continuation
        return self.injections.get(v, 0.0)

    def _probability(self, source: int, graph: CSRGraph) -> float:
        degree = graph.out_degree(source)
        return self.continuation / degree if degree else 0.0

    def edge_compute(
        self, source: int, value: float, weight: float, graph: CSRGraph
    ) -> float:
        return value * self._probability(source, graph)

    def edge_linear(self, source: int, weight: float, graph: CSRGraph) -> DepFunc:
        return DepFunc(self._probability(source, graph), 0.0)

    def edge_linear_arrays(self, sources, weights, graph: CSRGraph):
        return dep_arrays(
            len(sources), out_degree_share(self.continuation, sources, graph)
        )
