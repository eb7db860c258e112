"""External-memory graph generation: edge spooling + counting-sort build.

The in-RAM generators (:mod:`repro.graph.generators`) materialize every
drawn edge, the dedup key array, and the lexsort permutation at once —
peak RSS grows linearly with ``|E|``, which caps the sizes the paper's
scaling story can reach.  This module keeps peak RSS *flat* in ``|E|``:

1. **Spool** — :class:`EdgeSpool` buffers drawn ``(src, dst)`` pairs and
   writes fixed-size chunks to disk (``chunk_*.npz``).  Generators call
   it once per chunk of draws, so only one chunk is ever resident.
2. **Count** (pass A) — stream the chunks once, accumulating per-source
   degree counts (one vertex-sized ``int64`` array — vertex-sized state
   is O(|V|) and is the irreducible working set; it is the edge-sized
   arrays that must never be resident at once).
3. **Place** (pass B) — counting sort: stream the chunks again, writing
   each chunk's targets into a raw on-disk edge array (``open_memmap``)
   at per-source cursor positions.
4. **Compact** (pass C) — walk the raw array in blocks of *bounded edge
   mass* (variable vertex ranges — under a power law a fixed vertex
   range would put nearly all edges in the first block and make the
   sort temporaries O(|E|) again); sort each source's segment, drop
   duplicate targets, and pack the survivors back in-place at their
   final (shifted-left) positions.  Final positions never exceed raw
   positions, so in-order in-place packing is safe.  Then block-copy
   the packed prefix into the final ``targets.npy`` at the narrowed
   index dtype, and synthesize ``weights.npy`` block-wise if requested.

The result is a :func:`repro.graph.io.load_csr_dir`-loadable manifest
dir.  The edge set is the *sorted unique* set of non-self-loop draws —
deliberately order-independent, so the result does not depend on chunk
size, and an in-RAM ``np.unique`` over the same draws reproduces it
exactly (the equivalence test in ``tests/test_scale.py``).  This differs
from the in-RAM generators' draw-order-plus-trim dedup semantics: the
streaming family is its own deterministic dataset family, not a
bit-level replacement for ``generators.power_law``.

Weights are derived by hashing ``(src, dst, seed)`` (splitmix64-style
mixing into uniform [0.1, 10.0)) instead of drawing from the RNG stream,
so an edge's weight is independent of draw order and dedup survivors —
another property the bit-identity checks rely on.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.format import open_memmap

from . import io as graph_io
from .csr import narrow_index_dtype

#: default edges per spooled chunk (~16 MiB of int64 pairs)
DEFAULT_CHUNK_EDGES = 1 << 20
#: default edge budget per compaction block in pass C (~4 MiB of int64
#: targets resident per block; a single vertex whose degree exceeds the
#: budget gets its own block — its segment must be sorted whole)
DEFAULT_BLOCK_EDGES = 1 << 19

_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xBF58476D1CE4E5B9)
_MIX3 = np.uint64(0x94D049BB133111EB)


def hash_edge_weights(
    src: np.ndarray, dst: np.ndarray, seed: int
) -> np.ndarray:
    """Deterministic per-edge weights in [0.1, 10.0) from (src, dst, seed).

    splitmix64-style avalanche on the packed endpoint pair; vectorized,
    order-independent, and stable under dedup — the same edge always
    gets the same weight no matter when or how often it was drawn.
    """
    with np.errstate(over="ignore"):
        x = (
            (src.astype(np.uint64) << np.uint64(32))
            ^ dst.astype(np.uint64)
        ) + np.uint64(seed) * _MIX1
        z = (x + _MIX1)
        z = (z ^ (z >> np.uint64(30))) * _MIX2
        z = (z ^ (z >> np.uint64(27))) * _MIX3
        z = z ^ (z >> np.uint64(31))
    unit = (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    return 0.1 + unit * 9.9


class EdgeSpool:
    """Buffered writer of fixed-size edge chunks under a directory.

    ``append`` drops self-loops immediately (they can never survive the
    build) and flushes whole chunks to ``chunk_NNNNN.npz``; only one
    chunk buffer is resident at a time.
    """

    def __init__(
        self, directory: str, chunk_edges: int = DEFAULT_CHUNK_EDGES
    ) -> None:
        if chunk_edges <= 0:
            raise ValueError("chunk_edges must be positive")
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.chunk_edges = int(chunk_edges)
        self.total_edges = 0
        self._pending: List[Tuple[np.ndarray, np.ndarray]] = []
        self._pending_size = 0
        self._chunks: List[str] = []

    def append(self, src: np.ndarray, dst: np.ndarray) -> None:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        keep = src != dst
        if not keep.all():
            src, dst = src[keep], dst[keep]
        if src.size == 0:
            return
        self._pending.append((src, dst))
        self._pending_size += src.size
        while self._pending_size >= self.chunk_edges:
            self._flush(self.chunk_edges)

    def _flush(self, count: int) -> None:
        src = np.concatenate([s for s, _ in self._pending])
        dst = np.concatenate([d for _, d in self._pending])
        out_src, out_dst = src[:count], dst[:count]
        rest_src, rest_dst = src[count:], dst[count:]
        self._pending = [(rest_src, rest_dst)] if rest_src.size else []
        self._pending_size = rest_src.size
        path = os.path.join(
            self.directory, f"chunk_{len(self._chunks):05d}.npz"
        )
        np.savez(path, src=out_src, dst=out_dst)
        self._chunks.append(path)
        self.total_edges += out_src.size

    def close(self) -> List[str]:
        """Flush the tail chunk; returns the ordered chunk paths."""
        if self._pending_size:
            self._flush(self._pending_size)
        return list(self._chunks)

    def cleanup(self) -> None:
        for path in self._chunks:
            if os.path.exists(path):
                os.unlink(path)
        self._chunks = []


def _iter_chunks(chunk_paths: List[str]):
    for path in chunk_paths:
        with np.load(path) as data:
            yield data["src"], data["dst"]


def _edge_blocks(boundaries: np.ndarray, budget: int):
    """Yield ``(v0, v1)`` vertex ranges whose edge mass (per the offsets
    array ``boundaries``) stays within ``budget`` where possible; a
    vertex whose own segment exceeds the budget gets a range of its own.
    """
    n = boundaries.size - 1
    v0 = 0
    while v0 < n:
        v1 = (
            int(
                np.searchsorted(
                    boundaries, int(boundaries[v0]) + budget, side="right"
                )
            )
            - 1
        )
        v1 = min(max(v1, v0 + 1), n)
        yield v0, v1
        v0 = v1


def build_csr_from_spool(
    chunk_paths: List[str],
    num_vertices: int,
    out_dir: str,
    *,
    weighted: bool = False,
    seed: int = 0,
    index_dtype="auto",
    block_edges: int = DEFAULT_BLOCK_EDGES,
) -> str:
    """Three-pass external counting-sort CSR build; returns ``out_dir``.

    Only O(|V|) arrays plus one chunk/block are resident at any point;
    the edge-sized arrays live in ``open_memmap`` files.
    """
    n = int(num_vertices)
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    # pass A: per-source degree counts over the raw (pre-dedup) draws
    counts = np.zeros(n, dtype=np.int64)
    for src, dst in _iter_chunks(chunk_paths):
        counts += np.bincount(src, minlength=n)
    raw_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=raw_offsets[1:])
    m_raw = int(raw_offsets[-1])

    # pass B: counting-sort placement into the raw on-disk edge array
    raw_path = os.path.join(out_dir, "targets_raw.npy")
    raw = open_memmap(
        raw_path, mode="w+", dtype=np.int64, shape=(max(m_raw, 1),)
    )
    cursor = raw_offsets[:-1].copy()
    for src, dst in _iter_chunks(chunk_paths):
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        uniq, first, cnt = np.unique(
            src, return_index=True, return_counts=True
        )
        rank = np.arange(src.size, dtype=np.int64) - np.repeat(first, cnt)
        raw[np.repeat(cursor[uniq], cnt) + rank] = dst
        cursor[uniq] += cnt

    # pass C: per-source sort + dedup, packed in-place, then block-copied
    # to the final narrow arrays
    final_counts = np.zeros(n, dtype=np.int64)
    write_pos = 0
    for v0, v1 in _edge_blocks(raw_offsets, block_edges):
        lo, hi = int(raw_offsets[v0]), int(raw_offsets[v1])
        if lo == hi:
            continue
        seg_dst = np.asarray(raw[lo:hi])
        seg_src = np.repeat(
            np.arange(v0, v1, dtype=np.int64),
            np.diff(raw_offsets[v0 : v1 + 1]),
        )
        order = np.lexsort((seg_dst, seg_src))
        seg_src, seg_dst = seg_src[order], seg_dst[order]
        fresh = np.ones(seg_src.size, dtype=bool)
        fresh[1:] = (seg_src[1:] != seg_src[:-1]) | (
            seg_dst[1:] != seg_dst[:-1]
        )
        seg_src, seg_dst = seg_src[fresh], seg_dst[fresh]
        final_counts[v0:v1] = np.bincount(seg_src - v0, minlength=v1 - v0)
        raw[write_pos : write_pos + seg_dst.size] = seg_dst
        write_pos += seg_dst.size
    m = write_pos

    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(final_counts, out=offsets[1:])
    idx_dtype = (
        narrow_index_dtype(n, m)
        if isinstance(index_dtype, str) and index_dtype == "auto"
        else np.dtype(index_dtype)
    )

    targets = open_memmap(
        os.path.join(out_dir, "targets.npy"),
        mode="w+",
        dtype=idx_dtype,
        shape=(m,),
    )
    weights = (
        open_memmap(
            os.path.join(out_dir, "weights.npy"),
            mode="w+",
            dtype=np.float64,
            shape=(m,),
        )
        if weighted
        else None
    )
    for v0, v1 in _edge_blocks(offsets, block_edges):
        lo, hi = int(offsets[v0]), int(offsets[v1])
        if lo == hi:
            continue
        block = np.asarray(raw[lo:hi])
        targets[lo:hi] = block
        if weights is not None:
            block_src = np.repeat(
                np.arange(v0, v1, dtype=np.int64),
                np.diff(offsets[v0 : v1 + 1]),
            )
            weights[lo:hi] = hash_edge_weights(block_src, block, seed)
    np.save(
        os.path.join(out_dir, "offsets.npy"), offsets.astype(idx_dtype)
    )
    targets.flush()
    del targets
    if weights is not None:
        weights.flush()
        del weights
    del raw
    os.unlink(raw_path)
    graph_io.write_csr_manifest(
        out_dir, n, m, idx_dtype, np.dtype(np.float64) if weighted else None
    )
    return out_dir


def _chain_edges(num_vertices: int, seed: int, root: int = 0):
    """A shuffled spanning chain (mirrors ``generators.ensure_reachable``)."""
    rng = np.random.default_rng(seed)
    order = np.arange(num_vertices, dtype=np.int64)
    order = order[order != root]
    rng.shuffle(order)
    vertices = np.concatenate(([root], order))
    return vertices[:-1], vertices[1:]


def stream_power_law(
    out_dir: str,
    num_vertices: int,
    num_edges: int,
    *,
    alpha: float = 2.0,
    seed: int = 0,
    weighted: bool = False,
    spanning_chain: bool = False,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    spool_dir: Optional[str] = None,
) -> str:
    """Streamed Chung-Lu/Zipf generator; returns the built CSR dir.

    Endpoints are drawn from the same ``rank**(-1/(alpha-1))`` Zipfian
    as ``generators.power_law``, but via a precomputed CDF and
    ``searchsorted`` in fixed-size chunks, spooled to disk and built
    externally — peak RSS is O(|V| + chunk), flat in ``|E|``.
    ``spanning_chain=True`` threads ``ensure_reachable``'s shuffled
    chain into the stream so traversal workloads see one component.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1.0")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights_dist = ranks ** (-1.0 / (alpha - 1.0))
    cdf = np.cumsum(weights_dist)
    cdf /= cdf[-1]
    spool = EdgeSpool(
        spool_dir or os.path.join(out_dir, "spool"), chunk_edges
    )
    draws = int(num_edges * 1.35)
    drawn = 0
    while drawn < draws:
        batch = min(chunk_edges, draws - drawn)
        src = np.searchsorted(cdf, rng.random(batch), side="right")
        dst = np.searchsorted(cdf, rng.random(batch), side="right")
        spool.append(src, dst)
        drawn += batch
    if spanning_chain:
        chain_src, chain_dst = _chain_edges(num_vertices, seed)
        for lo in range(0, chain_src.size, chunk_edges):
            spool.append(
                chain_src[lo : lo + chunk_edges],
                chain_dst[lo : lo + chunk_edges],
            )
    chunks = spool.close()
    try:
        return build_csr_from_spool(
            chunks,
            num_vertices,
            out_dir,
            weighted=weighted,
            seed=seed,
        )
    finally:
        spool.cleanup()
