"""Single-Source Shortest Path — Figure 1(c) of the paper.

``Accum = min``; ``EdgeCompute(vj, vi) = vj.value + <vj, vi>.distance``.
"""

from __future__ import annotations

from ..graph.csr import CSRGraph
from .base import INF, MinAlgorithm
from .linear import DepFunc, dep_arrays


class SSSP(MinAlgorithm):
    name = "sssp"
    needs_weights = True

    def __init__(self, source: int = 0) -> None:
        if source < 0:
            raise ValueError("source must be a valid vertex id")
        self.source = source

    def initial_state(self, v: int, graph: CSRGraph) -> float:
        return INF

    def initial_delta(self, v: int, graph: CSRGraph) -> float:
        return 0.0 if v == self.source else INF

    def edge_compute(
        self, source: int, value: float, weight: float, graph: CSRGraph
    ) -> float:
        return value + weight

    def edge_linear(self, source: int, weight: float, graph: CSRGraph) -> DepFunc:
        return DepFunc(1.0, weight)

    def edge_linear_arrays(self, sources, weights, graph: CSRGraph):
        return dep_arrays(len(sources), 1.0, weights)


class BFS(MinAlgorithm):
    """Unweighted BFS depth — SSSP with unit edge length (a Table I relative
    included as an extension algorithm)."""

    name = "bfs"
    needs_weights = False

    def __init__(self, source: int = 0) -> None:
        if source < 0:
            raise ValueError("source must be a valid vertex id")
        self.source = source

    def initial_state(self, v: int, graph: CSRGraph) -> float:
        return INF

    def initial_delta(self, v: int, graph: CSRGraph) -> float:
        return 0.0 if v == self.source else INF

    def edge_compute(
        self, source: int, value: float, weight: float, graph: CSRGraph
    ) -> float:
        return value + 1.0

    def edge_linear(self, source: int, weight: float, graph: CSRGraph) -> DepFunc:
        return DepFunc(1.0, 1.0)

    def edge_linear_arrays(self, sources, weights, graph: CSRGraph):
        return dep_arrays(len(sources), 1.0, 1.0)
