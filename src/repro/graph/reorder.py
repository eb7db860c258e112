"""Locality-aware vertex reordering — permuted CSR views of one graph.

DepGraph's hardware turns irregular vertex-state traffic into regular,
cache-friendly access by processing dependency chains (Sections III-IV);
this module implements the standard *software* counterpart: relabel the
vertices so that the state/delta array entries touched together sit in
the same cache lines.  The simulator's address layout
(:class:`repro.hardware.layout.MemoryLayout`) maps vertex ``v``'s state
to ``base + 8 * v``, so a permutation of vertex ids *is* a layout change
— no runtime needs to know it happened.

Three non-identity orderings are provided:

``degree``
    stable sort by descending total (in + out) degree.  The classic
    hub-first renumbering: the hottest state/delta entries collapse into
    the fewest, densest cache lines at the bottom of the array.
``hub``
    hub-clustered / frequency-based: the top ``hub_fraction`` of
    vertices by total degree are clustered at the front (sorted by
    degree, like GRASP's pinned hot region); the remaining vertices are
    ordered by descending *in*-degree — the frequency with which
    scatters target them — so warm delta lines pack together too.
``partition``
    partition-aware blocked ordering: the graph is split into the same
    contiguous edge-balanced ranges the runtimes use
    (:func:`repro.graph.partition.by_edge_count`), and each partition's
    vertices are reordered *within their block* so the partition's hot
    (highest total degree) vertices are contiguous at the block head.
    Cross-partition structure is preserved — a vertex never changes
    blocks — so per-core working sets stay intact while each core's hot
    lines densify.

Every ordering is a true permutation; :class:`VertexOrdering` validates
bijectivity on construction and owns the inverse-permutation machinery
used to report ``ExecutionResult`` states, hub ids, and partition maps
in *original* vertex ids regardless of the internal order.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .csr import CSRGraph
from .partition import by_edge_count

#: recognised ordering names (``identity`` is the no-op baseline)
ORDERING_NAMES = ("identity", "degree", "hub", "partition")

#: fraction of vertices clustered as hubs by the ``hub`` ordering —
#: deliberately larger than the hub index's lambda (0.5%): the cluster
#: is a cache-packing decision, not an index-size budget
DEFAULT_HUB_FRACTION = 0.01


class VertexOrdering:
    """A validated bijection between original and internal vertex ids.

    ``perm[old_id] == new_id`` and ``inv[new_id] == old_id``.  The class
    is the single owner of direction conventions: everything entering a
    reordered run goes through :meth:`to_permuted`, everything reported
    out of one goes through :meth:`to_original`.
    """

    __slots__ = ("name", "perm", "inv")

    def __init__(self, name: str, perm: np.ndarray) -> None:
        perm = np.asarray(perm, dtype=np.int64)
        if perm.ndim != 1:
            raise ValueError("perm must be 1-D")
        n = perm.size
        counts = np.zeros(n, dtype=np.int64)
        valid = (perm >= 0) & (perm < n)
        if not bool(valid.all()):
            raise ValueError(f"ordering {name!r} maps ids outside [0, n)")
        np.add.at(counts, perm, 1)
        if n and not bool((counts == 1).all()):
            raise ValueError(f"ordering {name!r} is not a bijection")
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n, dtype=np.int64)
        self.name = name
        self.perm = perm
        self.inv = inv
        self.perm.setflags(write=False)
        self.inv.setflags(write=False)

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.perm.size

    @property
    def is_identity(self) -> bool:
        return bool(
            np.array_equal(self.perm, np.arange(self.perm.size, dtype=np.int64))
        )

    @property
    def moved_vertices(self) -> int:
        """How many vertices the ordering relocated."""
        return int(
            np.count_nonzero(
                self.perm != np.arange(self.perm.size, dtype=np.int64)
            )
        )

    # ------------------------------------------------------------------
    def apply_to_graph(self, graph: CSRGraph) -> CSRGraph:
        """The permuted CSR view: every edge relabeled endpoint-wise."""
        if graph.num_vertices != self.num_vertices:
            raise ValueError("ordering size does not match graph")
        return graph.permute(self.perm)

    def to_original(self, values: Sequence) -> np.ndarray:
        """Re-index a per-vertex array from internal to original ids.

        ``out[old_id] == values[perm[old_id]]`` — the inverse relabeling
        applied to states, deltas, or partition maps produced by a run
        over the permuted graph.
        """
        values = np.asarray(values)
        if values.shape[0] != self.num_vertices:
            raise ValueError("per-vertex array size mismatch")
        return values[self.perm]

    def to_permuted(self, values: Sequence) -> np.ndarray:
        """Re-index a per-vertex array from original to internal ids."""
        values = np.asarray(values)
        if values.shape[0] != self.num_vertices:
            raise ValueError("per-vertex array size mismatch")
        return values[self.inv]

    def ids_to_original(self, ids: Sequence[int]) -> np.ndarray:
        """Map internal vertex *ids* (not arrays indexed by id) back."""
        return self.inv[np.asarray(ids, dtype=np.int64)]

    def ids_to_permuted(self, ids: Sequence[int]) -> np.ndarray:
        """Map original vertex ids into the internal order."""
        return self.perm[np.asarray(ids, dtype=np.int64)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VertexOrdering(name={self.name!r}, n={self.num_vertices}, "
            f"moved={self.moved_vertices})"
        )


# ----------------------------------------------------------------------
# Ordering builders.  All are deterministic: ties break toward the lower
# original id (stable argsort), so the same graph always yields the same
# permutation and reordered runs are reproducible bit-for-bit.
# ----------------------------------------------------------------------
def _total_degrees(graph: CSRGraph) -> np.ndarray:
    """Out-degree plus in-degree — both gather reads of a vertex's state
    and scatter writes to its delta ride on this count."""
    out_deg = graph.out_degrees()
    in_deg = np.zeros(graph.num_vertices, dtype=np.int64)
    np.add.at(in_deg, graph.targets, 1)
    return out_deg + in_deg


def _in_degrees(graph: CSRGraph) -> np.ndarray:
    in_deg = np.zeros(graph.num_vertices, dtype=np.int64)
    np.add.at(in_deg, graph.targets, 1)
    return in_deg


def _perm_from_rank(order: np.ndarray) -> np.ndarray:
    """Given ``order`` (new id -> old id), build ``perm`` (old -> new)."""
    perm = np.empty(order.size, dtype=np.int64)
    perm[order] = np.arange(order.size, dtype=np.int64)
    return perm


def identity_order(graph: CSRGraph) -> VertexOrdering:
    """The no-op baseline every comparison measures against."""
    return VertexOrdering(
        "identity", np.arange(graph.num_vertices, dtype=np.int64)
    )


def degree_order(graph: CSRGraph) -> VertexOrdering:
    """Stable sort by descending total degree (hub-first renumbering)."""
    degrees = _total_degrees(graph)
    order = np.argsort(-degrees, kind="stable")
    return VertexOrdering("degree", _perm_from_rank(order))


def hub_order(
    graph: CSRGraph, hub_fraction: float = DEFAULT_HUB_FRACTION
) -> VertexOrdering:
    """Hub-clustered, frequency-based ordering.

    The top ``hub_fraction`` of vertices by total degree form a dense hub
    cluster at the front of the id space; the tail is ordered by
    descending in-degree, i.e. by how often scatters target its delta
    entry.
    """
    if not 0.0 < hub_fraction <= 1.0:
        raise ValueError("hub_fraction must lie in (0, 1]")
    n = graph.num_vertices
    total = _total_degrees(graph)
    by_total = np.argsort(-total, kind="stable")
    num_hubs = max(1, int(round(hub_fraction * n))) if n else 0
    hubs = by_total[:num_hubs]
    tail_mask = np.ones(n, dtype=bool)
    tail_mask[hubs] = False
    tail = np.flatnonzero(tail_mask)
    in_deg = _in_degrees(graph)
    tail = tail[np.argsort(-in_deg[tail], kind="stable")]
    return VertexOrdering("hub", _perm_from_rank(np.concatenate([hubs, tail])))


def partition_order(graph: CSRGraph, num_parts: int) -> VertexOrdering:
    """Partition-aware blocked ordering.

    Vertices keep their :func:`by_edge_count` block (so each core's
    working set is unchanged) but are reordered within it hot-first: the
    block's highest-total-degree vertices become contiguous at the block
    head, densifying the lines each core touches most.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    total = _total_degrees(graph)
    pieces = []
    for part in by_edge_count(graph, num_parts):
        block = np.arange(part.begin, part.end, dtype=np.int64)
        pieces.append(block[np.argsort(-total[block], kind="stable")])
    order = (
        np.concatenate(pieces)
        if pieces
        else np.zeros(0, dtype=np.int64)
    )
    return VertexOrdering("partition", _perm_from_rank(order))


def make_ordering(
    name: str, graph: CSRGraph, num_parts: Optional[int] = None
) -> VertexOrdering:
    """Build the named ordering for ``graph``.

    ``num_parts`` is required context for the ``partition`` ordering (use
    the core count the run will execute with) and ignored elsewhere.
    """
    if name == "identity":
        return identity_order(graph)
    if name == "degree":
        return degree_order(graph)
    if name == "hub":
        return hub_order(graph)
    if name == "partition":
        return partition_order(graph, num_parts or 1)
    raise KeyError(
        f"unknown ordering {name!r}; expected one of {ORDERING_NAMES}"
    )


# ----------------------------------------------------------------------
class ReorderedAlgorithm:
    """Delegating wrapper that runs an algorithm over a permuted graph.

    The runtimes call back into the algorithm with *internal* (permuted)
    vertex ids and the *permuted* graph; the wrapped algorithm was
    written against original ids (a SSSP source, degree-dependent
    initialisation, warm-start baselines...).  This wrapper translates
    every id-carrying callback through the ordering and hands the inner
    algorithm the original-id graph it expects, so algorithm semantics
    are completely unaware of the layout change.  Everything else
    (``accum``, ``identity``, ``transformable``, ``needs_weights`` /
    ``needs_symmetric`` flags...) delegates untouched — the same pattern
    as :class:`repro.serve.warmstart.WarmStartAlgorithm`, and the two
    compose (reorder wraps warm-start).
    """

    def __init__(self, inner, ordering: VertexOrdering, graph: CSRGraph) -> None:
        self._inner = inner
        self._ordering = ordering
        #: the original-id graph (pre-permutation); symmetrised lazily to
        #: mirror what SimContext does to the permuted one
        self._graph = graph
        self._symmetric_graph: Optional[CSRGraph] = None

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    # -- id/graph translation ------------------------------------------
    def _orig_graph(self) -> CSRGraph:
        """The graph the inner algorithm must see.

        ``SimContext`` symmetrises the (permuted) run graph for
        algorithms that need it; symmetrisation commutes with
        relabeling, so the inner algorithm correspondingly sees the
        symmetrised original — degrees and weights line up exactly with
        an identity-ordering run.
        """
        if not getattr(self._inner, "needs_symmetric", False):
            return self._graph
        if self._symmetric_graph is None:
            from ..algorithms.reference import symmetrize

            self._symmetric_graph = symmetrize(self._graph)
        return self._symmetric_graph

    def _old(self, v: int) -> int:
        return int(self._ordering.inv[v])

    # -- translated callbacks ------------------------------------------
    def initial_state(self, v: int, graph: CSRGraph) -> float:
        return self._inner.initial_state(self._old(v), self._orig_graph())

    def initial_delta(self, v: int, graph: CSRGraph) -> float:
        return self._inner.initial_delta(self._old(v), self._orig_graph())

    def initial_active(self, v: int, graph: CSRGraph) -> bool:
        return self._inner.initial_active(self._old(v), self._orig_graph())

    def edge_compute(
        self, source: int, value: float, weight: float, graph: CSRGraph
    ) -> float:
        return self._inner.edge_compute(
            self._old(source), value, weight, self._orig_graph()
        )

    def edge_linear(self, source: int, weight: float, graph: CSRGraph):
        return self._inner.edge_linear(
            self._old(source), weight, self._orig_graph()
        )

    def edge_linear_arrays(self, sources, weights, graph: CSRGraph):
        return self._inner.edge_linear_arrays(
            self._ordering.ids_to_original(sources), weights, self._orig_graph()
        )

    def propagate_value(
        self, v: int, old_state: float, new_state: float, graph: CSRGraph
    ) -> float:
        return self._inner.propagate_value(
            self._old(v), old_state, new_state, self._orig_graph()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReorderedAlgorithm({self._inner!r}, {self._ordering!r})"
