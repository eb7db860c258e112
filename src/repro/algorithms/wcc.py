"""Weakly Connected Components — Figure 1(d) of the paper.

``Accum = max``; ``EdgeCompute(vj, vi) = vj.value`` — labels are vertex ids
and the maximum id floods each component.  Weak connectivity is achieved by
running on the union of the graph and its transpose (the runtimes build this
symmetrised view when the algorithm requests it via ``needs_symmetric``).
"""

from __future__ import annotations

from ..graph.csr import CSRGraph
from .base import MaxAlgorithm
from .linear import DepFunc, dep_arrays


class WCC(MaxAlgorithm):
    name = "wcc"
    #: runtimes symmetrise the graph before running this algorithm so label
    #: floods ignore edge direction (weak connectivity).
    needs_symmetric = True

    def initial_state(self, v: int, graph: CSRGraph) -> float:
        # The delta-accumulative form starts below every label so the first
        # apply installs the vertex's own id and floods it outward; at
        # convergence the state is the component's maximum id, matching the
        # classic formulation that initialises the value to the id directly.
        return -float("inf")

    def initial_delta(self, v: int, graph: CSRGraph) -> float:
        return float(v)

    def edge_compute(
        self, source: int, value: float, weight: float, graph: CSRGraph
    ) -> float:
        return value

    def edge_linear(self, source: int, weight: float, graph: CSRGraph) -> DepFunc:
        return DepFunc(1.0, 0.0)

    def edge_linear_arrays(self, sources, weights, graph: CSRGraph):
        return dep_arrays(len(sources), 1.0)
