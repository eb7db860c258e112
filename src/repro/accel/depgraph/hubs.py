"""Hub-vertex selection and the H'' sets (Definitions 1-2, Section III-B2).

A vertex is a *hub-vertex* when its degree exceeds the threshold ``T``.
Users give the hub ratio ``lambda`` instead of ``T`` directly; to avoid a
full sort the paper samples a ``beta`` fraction of vertices and takes the
degree at the ``lambda * beta * n`` position of the sampled descending order
as ``T``.  Core-vertices (intersections of core-paths) are discovered at run
time by the engine and promoted into H'' dynamically.

``H''^m`` for a partition is the partition's hub/core vertices plus its
boundary vertices that connect to hub/core vertices elsewhere; the software
layer encodes it as an in-memory bitmap handed to ``DEP_configure()``.
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

from ...graph.csr import CSRGraph

#: The paper's default parameters (Section IV): lambda = 0.5%, beta = 0.001.
DEFAULT_LAMBDA = 0.005
DEFAULT_BETA = 0.001


def degree_threshold(
    graph: CSRGraph,
    lam: float = DEFAULT_LAMBDA,
    beta: float = DEFAULT_BETA,
    seed: int = 0,
) -> int:
    """The hub degree threshold ``T`` via the paper's sampling shortcut.

    Sample ``beta * n`` vertices, sort the sample by descending degree, and
    take the degree at position ``lambda * (beta * n)``.  When the sample
    would be degenerate (tiny graphs), fall back to the exact quantile.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    n = graph.num_vertices
    if n == 0:
        return 0
    degrees = graph.out_degrees()
    sample_size = int(beta * n)
    if sample_size < 8:  # degenerate sample: exact computation
        ordered = np.sort(degrees)[::-1]
        pos = min(max(int(lam * n), 1), n) - 1
        return int(ordered[pos])
    rng = np.random.default_rng(seed)
    sample = degrees[rng.integers(0, n, size=sample_size)]
    ordered = np.sort(sample)[::-1]
    pos = min(max(int(lam * sample_size), 1), sample_size) - 1
    return int(ordered[pos])


def select_hubs(
    graph: CSRGraph,
    lam: float = DEFAULT_LAMBDA,
    beta: float = DEFAULT_BETA,
    seed: int = 0,
    threshold: Optional[int] = None,
) -> Set[int]:
    """The hub-vertex set H: vertices with degree >= T.

    ``threshold`` overrides the sampled ``T`` when given (used by tests and
    by sweeps that pin the hub count).
    """
    t = degree_threshold(graph, lam, beta, seed) if threshold is None else threshold
    if t <= 0:
        t = 1  # degree-0 vertices are never useful hubs
    degrees = graph.out_degrees()
    return set(int(v) for v in np.nonzero(degrees >= t)[0])


class HubSets:
    """Mutable hub/core vertex bookkeeping shared by all engines.

    Holds the static hub set plus the dynamically promoted core-vertices;
    membership of the union (the global H'') is what HDTL checks when it
    decides to terminate a traversal path.

    The number of core-vertices is capped (default: four per hub) so the
    hub index stays a small fraction of total storage, as the paper reports
    (0.9-2.8%); past the cap, promotions are ignored and the corresponding
    segments simply are not shortcut — a pure performance trade-off with no
    correctness impact.
    """

    def __init__(self, hubs: Set[int], max_core_vertices: Optional[int] = None):
        self.hubs: Set[int] = set(hubs)
        self.core_vertices: Set[int] = set()
        #: H'' itself, ``hubs | core_vertices``: one set, mutated in place
        #: and never rebound, so walkers may hold it (or its C-level
        #: ``__contains__``) for the whole run
        self.members: Set[int] = set(self.hubs)
        if max_core_vertices is None:
            max_core_vertices = max(64, 4 * len(self.hubs))
        self.max_core_vertices = max_core_vertices

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.members

    def promote_core_vertex(self, vertex: int) -> bool:
        """Promote a path-intersection or partition-boundary vertex into H''
        (Definition 2 / the H^m' boundary set); returns False when the cap
        is reached or the vertex is already a member."""
        if vertex in self.members:
            return False
        if len(self.core_vertices) >= self.max_core_vertices:
            return False
        self.core_vertices.add(vertex)
        self.members.add(vertex)
        return True

    @property
    def size(self) -> int:
        return len(self.members)

