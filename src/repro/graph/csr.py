"""Compressed Sparse Row graph representation.

This mirrors the representation described in Section II / Figure 2 of the
DepGraph paper: an *offset array* (``offsets``), an *edge array*
(``targets`` plus optional per-edge ``weights``), and vertex state arrays
which live with the algorithm runtimes rather than the graph itself.

The arrays are plain :mod:`numpy` arrays so that the hardware model can map
them to byte addresses (see :mod:`repro.hardware.layout`).

Dtype contract
--------------
``offsets`` and ``targets`` share one *index dtype* drawn from
:data:`INDEX_DTYPES` (``int32``/``uint32``/``int64``); the dtype must be
able to represent both ``num_vertices`` and ``num_edges`` (offsets hold
edge positions, targets hold vertex ids — sharing one width keeps the
contract checkable in one place).  ``weights`` use a *weight dtype* from
:data:`WEIGHT_DTYPES` (``float64`` default; ``float32`` is an explicit
opt-in — narrowing weights changes float results, narrowing indices never
does).  ``index_dtype="auto"`` picks the smallest width that fits, which
is how the scale sweep stores 10–100x graphs at half the footprint.

The arrays may be disk-resident: :func:`repro.graph.io.load_csr_dir` opens
the per-array ``.npy`` files with ``mmap_mode="r"`` and constructs the
graph with ``validate=False`` so nothing is paged in until a runtime
actually reads it.  Note that the *simulated* byte layout
(:mod:`repro.hardware.layout`) keeps the paper's fixed 8-byte strides
regardless of the host dtype — narrowing changes host memory, never the
modelled addresses, so simulated cycles are identical at every width.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

Edge = Tuple[int, int]
WeightedEdge = Tuple[int, int, float]

#: index dtypes the contract admits, narrowest first
INDEX_DTYPES = (np.dtype(np.int32), np.dtype(np.uint32), np.dtype(np.int64))
#: weight dtypes the contract admits
WEIGHT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

DtypeLike = Union[str, np.dtype, type]


def narrow_index_dtype(num_vertices: int, num_edges: int) -> np.dtype:
    """The smallest admitted index dtype that fits both ``|V|`` and ``|E|``.

    ``int32`` when both fit a signed 32-bit value, ``uint32`` when the
    edge count needs the extra bit, otherwise ``int64``.
    """
    bound = max(int(num_vertices), int(num_edges))
    if bound <= np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    if bound <= np.iinfo(np.uint32).max:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


def _resolve_index_dtype(
    index_dtype: Optional[DtypeLike], n: int, m: int, fallback: np.dtype
) -> np.dtype:
    """Apply the index-dtype contract; raises on inadmissible widths."""
    if index_dtype is None:
        chosen = fallback if fallback in INDEX_DTYPES else np.dtype(np.int64)
    elif isinstance(index_dtype, str) and index_dtype == "auto":
        chosen = narrow_index_dtype(n, m)
    else:
        chosen = np.dtype(index_dtype)
    if chosen not in INDEX_DTYPES:
        raise ValueError(
            f"index_dtype {chosen} not admitted; expected one of "
            f"{tuple(str(d) for d in INDEX_DTYPES)}"
        )
    bound = max(int(n), int(m))
    if bound > np.iinfo(chosen).max:
        raise ValueError(
            f"index_dtype {chosen} cannot represent |V|={n}, |E|={m}"
        )
    return chosen


def _resolve_weight_dtype(
    weight_dtype: Optional[DtypeLike], fallback: Optional[np.dtype]
) -> np.dtype:
    if weight_dtype is None:
        chosen = (
            fallback
            if fallback in WEIGHT_DTYPES
            else np.dtype(np.float64)
        )
    else:
        chosen = np.dtype(weight_dtype)
    if chosen not in WEIGHT_DTYPES:
        raise ValueError(
            f"weight_dtype {chosen} not admitted; expected one of "
            f"{tuple(str(d) for d in WEIGHT_DTYPES)}"
        )
    return chosen


class CSRGraph:
    """A directed graph in CSR form.

    Parameters
    ----------
    offsets:
        integer array of length ``n + 1``; vertex ``v``'s outgoing edges
        are ``targets[offsets[v]:offsets[v + 1]]``.
    targets:
        integer array of length ``m`` holding destination vertex ids.
    weights:
        optional float array of length ``m`` with per-edge weights.
    index_dtype:
        dtype for ``offsets``/``targets``: ``None`` preserves an admitted
        input dtype (legacy inputs fall back to ``int64``), ``"auto"``
        picks the narrowest width that fits, or pass a dtype explicitly.
    weight_dtype:
        dtype for ``weights``; ``None`` preserves ``float32``/``float64``
        inputs and defaults anything else to ``float64``.
    validate:
        skip the O(n + m) structural scans when False — only for arrays
        from a trusted source (our own manifest loader), where scanning
        would page an entire memory-mapped graph into RAM.
    """

    __slots__ = ("offsets", "targets", "weights", "_reverse", "_degrees")

    def __init__(
        self,
        offsets: np.ndarray,
        targets: np.ndarray,
        weights: Optional[np.ndarray] = None,
        *,
        index_dtype: Optional[DtypeLike] = None,
        weight_dtype: Optional[DtypeLike] = None,
        validate: bool = True,
    ) -> None:
        offsets = np.asanyarray(offsets)
        targets = np.asanyarray(targets)
        if offsets.ndim != 1 or targets.ndim != 1:
            raise ValueError("offsets and targets must be 1-D arrays")
        if offsets.size == 0:
            raise ValueError("offsets must have at least one entry")
        n = offsets.size - 1
        m = targets.size
        fallback = (
            offsets.dtype
            if offsets.dtype == targets.dtype
            else np.dtype(np.int64)
        )
        idx_dtype = _resolve_index_dtype(index_dtype, n, m, fallback)
        # ascontiguousarray is a no-op (no copy, memmaps pass through)
        # when the array already is contiguous with the target dtype
        offsets = np.ascontiguousarray(offsets, dtype=idx_dtype)
        targets = np.ascontiguousarray(targets, dtype=idx_dtype)
        if validate:
            if offsets[0] != 0 or offsets[-1] != m:
                raise ValueError(
                    "offsets must start at 0 and end at len(targets)"
                )
            if np.any(np.diff(offsets) < 0):
                raise ValueError("offsets must be non-decreasing")
            if m and (int(targets.min()) < 0 or int(targets.max()) >= n):
                raise ValueError("edge target out of range")
        if weights is not None:
            weights = np.asanyarray(weights)
            w_dtype = _resolve_weight_dtype(weight_dtype, weights.dtype)
            weights = np.ascontiguousarray(weights, dtype=w_dtype)
            if weights.shape != targets.shape:
                raise ValueError("weights must align with targets")
        self.offsets = offsets
        self.targets = targets
        self.weights = weights
        self._reverse: Optional["CSRGraph"] = None
        self._degrees: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Sequence[Edge],
        weights: Optional[Sequence[float]] = None,
        *,
        index_dtype: Optional[DtypeLike] = None,
        weight_dtype: Optional[DtypeLike] = None,
    ) -> "CSRGraph":
        """Build a CSR graph from an edge list.

        Edges are sorted by (source, target) so the layout is deterministic
        regardless of input order.  ``edges`` may be tuples or any
        array-like of shape ``(m, 2)``; columns are pulled out with one
        ``np.asarray`` each rather than a per-edge Python loop.
        """
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        if len(edges) == 0:
            src = dst = np.zeros(0, dtype=np.int64)
            w = None if weights is None else np.zeros(0)
        else:
            pairs = np.asarray(edges, dtype=np.int64)
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise ValueError("edges must be (source, target) pairs")
            src, dst = pairs[:, 0], pairs[:, 1]
            w = None if weights is None else np.asarray(weights, dtype=np.float64)
            if w is not None and w.shape != src.shape:
                raise ValueError("weights must align with edges")
        return cls.from_arrays(
            num_vertices,
            src,
            dst,
            w,
            index_dtype=index_dtype,
            weight_dtype=weight_dtype,
        )

    @classmethod
    def from_arrays(
        cls,
        num_vertices: int,
        sources: np.ndarray,
        targets: np.ndarray,
        weights: Optional[np.ndarray] = None,
        *,
        index_dtype: Optional[DtypeLike] = None,
        weight_dtype: Optional[DtypeLike] = None,
    ) -> "CSRGraph":
        """Vectorised variant of :meth:`from_edges` for large inputs."""
        # sort/count in int64 regardless of the requested storage width:
        # intermediate arithmetic (lexsort keys, cumsum) must not wrap
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape:
            raise ValueError("sources and targets must align")
        if sources.size and (sources.min() < 0 or sources.max() >= num_vertices):
            raise ValueError("edge source out of range")
        if targets.size and (targets.min() < 0 or targets.max() >= num_vertices):
            raise ValueError("edge target out of range")
        w = None
        if weights is not None:
            w_dtype = _resolve_weight_dtype(
                weight_dtype, np.asanyarray(weights).dtype
            )
            w = np.asarray(weights, dtype=w_dtype)
        order = np.lexsort((targets, sources))
        sources, targets = sources[order], targets[order]
        if w is not None:
            w = w[order]
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.add.at(offsets, sources + 1, 1)
        np.cumsum(offsets, out=offsets)
        return cls(
            offsets,
            targets,
            w,
            index_dtype=index_dtype,
            weight_dtype=weight_dtype,
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.offsets.size - 1

    @property
    def num_edges(self) -> int:
        return self.targets.size

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    @property
    def index_dtype(self) -> np.dtype:
        """The shared dtype of ``offsets`` and ``targets``."""
        return self.offsets.dtype

    @property
    def weight_dtype(self) -> Optional[np.dtype]:
        """Dtype of ``weights`` (``None`` when unweighted)."""
        return None if self.weights is None else self.weights.dtype

    @property
    def nbytes(self) -> int:
        """Host bytes of the CSR arrays (what narrowing actually saves;
        for an mmap-backed graph this counts the on-disk mapping, not
        resident pages)."""
        total = self.offsets.nbytes + self.targets.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return total

    def out_degree(self, v: int) -> int:
        """``v``'s out-degree, from a list of Python ints built on the
        first call (the scalar PageRank family asks once per edge, and
        degrees are fixed for the graph's lifetime, as ``reverse`` is)."""
        degrees = self._degrees
        if degrees is None:
            degrees = self._degrees = self.out_degrees().tolist()
        return degrees[v]

    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees for every vertex."""
        return np.diff(self.offsets)

    def neighbors(self, v: int) -> np.ndarray:
        """Targets of ``v``'s outgoing edges (a view, do not mutate)."""
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def edge_range(self, v: int) -> Tuple[int, int]:
        """``(begin, end)`` offsets of ``v``'s edges in the edge array."""
        return int(self.offsets[v]), int(self.offsets[v + 1])

    def edge_weight(self, edge_index: int) -> float:
        """Weight of the edge stored at ``edge_index`` (1.0 if unweighted)."""
        if self.weights is None:
            return 1.0
        return float(self.weights[edge_index])

    def out_edges(self, v: int) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(edge_index, target, weight)`` for each out-edge of v."""
        begin, end = self.edge_range(v)
        for e in range(begin, end):
            yield e, int(self.targets[e]), self.edge_weight(e)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield every edge as ``(source, target, weight)``."""
        for v in range(self.num_vertices):
            begin, end = self.edge_range(v)
            for e in range(begin, end):
                yield v, int(self.targets[e]), self.edge_weight(e)

    def has_edge(self, u: int, v: int) -> bool:
        begin, end = self.edge_range(u)
        seg = self.targets[begin:end]
        idx = np.searchsorted(seg, v)
        return bool(idx < seg.size and seg[idx] == v)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def astype(
        self,
        *,
        index_dtype: Optional[DtypeLike] = None,
        weight_dtype: Optional[DtypeLike] = None,
    ) -> "CSRGraph":
        """A copy of this graph under the given dtypes (``None`` keeps
        the current width; ``"auto"`` narrows).  Vertex ids and edge
        order are unchanged, so integer state is bit-identical."""
        return CSRGraph(
            np.array(self.offsets),
            np.array(self.targets),
            None if self.weights is None else np.array(self.weights),
            index_dtype=index_dtype,
            weight_dtype=weight_dtype,
            validate=False,
        )

    def narrowed(self) -> "CSRGraph":
        """Shortcut for ``astype(index_dtype="auto")`` (weights keep
        their width — narrowing floats is a separate, explicit opt-in)."""
        return self.astype(index_dtype="auto")

    def reverse(self) -> "CSRGraph":
        """The transposed graph; cached because it is pure-derived data."""
        if self._reverse is None:
            n = self.num_vertices
            src = np.repeat(np.arange(n, dtype=np.int64), self.out_degrees())
            self._reverse = CSRGraph.from_arrays(
                n,
                self.targets,
                src,
                self.weights,
                index_dtype=self.index_dtype,
            )
        return self._reverse

    def with_weights(self, weights: Sequence[float]) -> "CSRGraph":
        """A copy of this graph with the given per-edge weights."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != self.targets.shape:
            raise ValueError("weights must align with targets")
        return CSRGraph(
            self.offsets.copy(),
            self.targets.copy(),
            w,
            index_dtype=self.index_dtype,
        )

    def permute(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel vertices under ``perm`` (``perm[old_id] == new_id``).

        Every edge ``<u, v, w>`` becomes ``<perm[u], perm[v], w>``; the
        result is a structurally identical graph whose arrays — and hence
        whose byte-address layout under
        :class:`repro.hardware.layout.MemoryLayout` — follow the new
        vertex order.  ``perm`` must be a bijection on ``[0, n)``
        (validated by :class:`repro.graph.reorder.VertexOrdering`; this
        method only checks shape).  Index and weight dtypes carry over,
        so reordering an mmap-narrowed graph yields an equally narrow
        in-RAM graph rather than silently upcasting to ``int64``.
        """
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.num_vertices,):
            raise ValueError("perm must have one entry per vertex")
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), self.out_degrees())
        return CSRGraph.from_arrays(
            n,
            perm[src],
            perm[self.targets],
            self.weights,
            index_dtype=self.index_dtype,
            weight_dtype=self.weight_dtype,
        )

    def subgraph_edge_count(self, vertices: Iterable[int]) -> int:
        """Number of edges with both endpoints inside ``vertices``."""
        vset = set(int(v) for v in vertices)
        count = 0
        for v in vset:
            count += sum(1 for t in self.neighbors(v) if int(t) in vset)
        return count

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "weighted" if self.is_weighted else "unweighted"
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, {kind})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if not (
            np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.targets, other.targets)
        ):
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        if self.weights is None:
            return True
        return np.allclose(self.weights, other.weights)

    def __hash__(self) -> int:  # CSRGraph is mutable in principle; identity hash
        return id(self)
