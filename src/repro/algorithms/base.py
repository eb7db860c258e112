"""The Gather-Apply-Scatter programming model (Figure 1 of the paper).

Algorithms are expressed in the delta-accumulative asynchronous form of
Maiter (the paper's reference [64], which DepGraph builds on): every vertex
``v`` carries a ``state`` and a pending ``delta``.  Processing ``v``

1. *applies* the pending delta: ``new_state = Accum(state, delta)``;
2. *scatters*: for each out-edge ``<v, t>`` the influence
   ``EdgeCompute(v, t)`` is folded into ``t``'s pending delta with
   ``Accum`` and ``t`` becomes active if the influence is significant.

``Accum`` must be associative and commutative and ``EdgeCompute`` linear for
the dependency transformation to apply (Properties 1-2, Section III-A3);
algorithms that violate Property 2 set ``transformable = False`` and run on
DepGraph with the hub index disabled, as the paper prescribes for e.g.
triangle counting.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from .linear import DepFunc

INF = math.inf

#: default activation threshold for sum-type algorithms (Section II uses
#: epsilon = 1e-5 for pagerank).
DEFAULT_EPSILON = 1e-5


def out_degree_share(
    factor: float, sources: np.ndarray, graph: CSRGraph
) -> np.ndarray:
    """``factor / out_degree(v)`` per source (0.0 for a sink) — the
    array form of the per-edge probability PageRank and adsorption
    spread over a vertex's out-edges."""
    degrees = graph.out_degrees()[sources].astype(np.float64)
    return np.divide(
        factor, degrees, out=np.zeros(degrees.size), where=degrees > 0
    )


class Algorithm(ABC):
    """An iterative graph algorithm in GAS / delta-accumulative form."""

    #: human-readable identifier used in reports.
    name: str = "algorithm"
    #: whether the algorithm reads edge weights.
    needs_weights: bool = False
    #: whether EdgeCompute satisfies Property 2 (linearity) so the hub-index
    #: dependency transformation may be applied.
    transformable: bool = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a new scalar edge_linear without its own array form gets the
        # exact loop fallback, never an inherited array form that would
        # compute some other class's coefficients
        if "edge_linear" in vars(cls) and "edge_linear_arrays" not in vars(cls):
            cls.edge_linear_arrays = Algorithm.edge_linear_arrays

    # ------------------------------------------------------------------
    # The generalized sum (Accum) and its identity.
    # ------------------------------------------------------------------
    @abstractmethod
    def accum(self, a: float, b: float) -> float:
        """The generalized sum ``a ⊕ b`` (associative & commutative)."""

    @abstractmethod
    def identity(self) -> float:
        """Identity element of :meth:`accum` (0 for sum, ±inf for min/max)."""

    # ------------------------------------------------------------------
    # Initialization.
    # ------------------------------------------------------------------
    @abstractmethod
    def initial_state(self, v: int, graph: CSRGraph) -> float:
        """State of ``v`` before the first round."""

    @abstractmethod
    def initial_delta(self, v: int, graph: CSRGraph) -> float:
        """Pending delta of ``v`` before the first round."""

    def initial_active(self, v: int, graph: CSRGraph) -> bool:
        """Whether ``v`` starts on the frontier (default: its initial delta
        is significant against its initial state)."""
        return self.is_significant(
            self.initial_delta(v, graph), self.initial_state(v, graph)
        )

    # ------------------------------------------------------------------
    # Per-edge computation.
    # ------------------------------------------------------------------
    @abstractmethod
    def edge_compute(
        self, source: int, value: float, weight: float, graph: CSRGraph
    ) -> float:
        """``f_(source, target)(value)`` — influence of ``value`` (the
        propagated quantity of ``source``) on the edge's target."""

    def edge_linear(
        self, source: int, weight: float, graph: CSRGraph
    ) -> Optional[DepFunc]:
        """The linear coefficients of :meth:`edge_compute` for this edge, or
        None when the algorithm is not transformable."""
        return None

    def edge_linear_arrays(
        self, sources: np.ndarray, weights: np.ndarray, graph: CSRGraph
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`edge_linear` elementwise: float64 ``(mu, xi, cap)``
        arrays whose entry ``i`` equals
        ``edge_linear(sources[i], weights[i], graph)`` bit for bit.

        This fallback makes one Python :meth:`edge_linear` call per
        entry; the stock transformable algorithms override it with NumPy
        so the vector backend's set-up makes none.  Raises
        ``ValueError`` when an entry has no linear form.
        """
        mu, xi, cap = (np.empty(len(sources)) for _ in range(3))
        pairs = zip(
            np.asarray(sources).tolist(),
            np.asarray(weights, dtype=np.float64).tolist(),
        )
        for i, (source, weight) in enumerate(pairs):
            func = self.edge_linear(source, weight, graph)
            if func is None:
                raise ValueError(
                    f"{self.name}: edge_linear returned None for source {source}"
                )
            mu[i], xi[i], cap[i] = func.mu, func.xi, func.cap
        return mu, xi, cap

    # ------------------------------------------------------------------
    # Apply & activation.
    # ------------------------------------------------------------------
    def apply(self, state: float, delta: float) -> float:
        """``Accum(state, delta)`` — the vertex update."""
        return self.accum(state, delta)

    def propagate_value(
        self, v: int, old_state: float, new_state: float, graph: CSRGraph
    ) -> float:
        """The quantity scattered to neighbours after ``v`` updates.

        Sum-type algorithms propagate the applied increment; min/max-type
        algorithms propagate the new state.  Subclasses with unusual
        semantics (e.g. k-core's death notifications) override this.
        """
        raise NotImplementedError

    @abstractmethod
    def is_significant(self, delta: float, state: float) -> bool:
        """Does folding ``delta`` into ``state`` meaningfully change it?

        This is the activation condition: a vertex with only insignificant
        pending influence stays inactive (footnote 1 of the paper).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class SumAlgorithm(Algorithm):
    """Base for algorithms whose generalized sum is ``+`` (Table I row 1)."""

    epsilon: float = DEFAULT_EPSILON

    def accum(self, a: float, b: float) -> float:
        return a + b

    def identity(self) -> float:
        return 0.0

    def propagate_value(
        self, v: int, old_state: float, new_state: float, graph: CSRGraph
    ) -> float:
        return new_state - old_state

    def is_significant(self, delta: float, state: float) -> bool:
        return abs(delta) > self.epsilon


class MinAlgorithm(Algorithm):
    """Base for min-accumulating algorithms (SSSP, BFS...)."""

    def accum(self, a: float, b: float) -> float:
        return a if a < b else b

    def identity(self) -> float:
        return INF

    def propagate_value(
        self, v: int, old_state: float, new_state: float, graph: CSRGraph
    ) -> float:
        return new_state

    def is_significant(self, delta: float, state: float) -> bool:
        return delta < state


class MaxAlgorithm(Algorithm):
    """Base for max-accumulating algorithms (WCC, SSWP...)."""

    def accum(self, a: float, b: float) -> float:
        return a if a > b else b

    def identity(self) -> float:
        return -INF

    def propagate_value(
        self, v: int, old_state: float, new_state: float, graph: CSRGraph
    ) -> float:
        return new_state

    def is_significant(self, delta: float, state: float) -> bool:
        return delta > state
