"""Hardware Dependency-aware Traveler Logic (HDTL) — Figure 7.

HDTL walks the graph depth-first from a root vertex using a fixed-depth
stack, fetching edges along dependency chains.  Each traversal pipeline
iteration runs the paper's four stages — Get_Root, Fetch_Offsets,
Fetch_Neighbors, Fetch_States — and outputs one edge (with the endpoint
states) into the FIFO edge buffer.

A traversal path ends when (Section III-B2):

* the fetched vertex belongs to H'' (a hub/core vertex) — if the root is
  also in H'', the walked segment is a *core-path* and is reported so the
  DDMU can create its hub-index entry;
* the fixed-depth stack is full (the chain is split; the frontier vertex
  becomes a new root);
* the fetched vertex lies outside the partition the walker is confined
  to (the owning core continues the chain);
* no unvisited vertex can be fetched from the current branch.

The class is execution-agnostic and callback-driven: :meth:`HDTL.traverse`
runs the whole walk, handing each fetched edge to the caller's ``on_edge``
handler, which returns the core's *descend* decision (whether the
destination was significantly updated and should be explored), and each
ended path to ``on_path_end``.  Memory traffic goes to a *fetch port*:
``port.fetch(addr)`` for one line of the offset, edge or weight array and
``port.fetch_state(vertex)`` for the target's state lines.  The walker
keeps one line register per CSR array, as the hardware keeps the current
neighbour cache line, so successive elements of a line cost one fetch.
The same walker serves DepGraph-S (the port charges the core's clock) and
DepGraph-H (the engine's timeline pays).

``hub_membership`` is the H'' test the walk runs once per edge.  The
runtime passes the ``__contains__`` of :attr:`HubSets.members
<repro.accel.depgraph.hubs.HubSets.members>`, a set that promotions
mutate in place: the check is one C-level call, and a walker built
before a promotion sees it.
"""

from __future__ import annotations

from typing import Callable, Optional, Set, Tuple

from ...graph.csr import CSRGraph
from ...hardware.layout import MemoryLayout

#: ``on_edge(source, target, weight, depth) -> descend``
EdgeHandler = Callable[[int, int, float, int], bool]
#: ``on_path_end(path, reason)``: ``path`` runs root..endpoint inclusive,
#: ``reason`` is ``"hub"``, ``"boundary"`` or ``"depth"``; the endpoint
#: was *not* descended into and continues as a new root
PathEndHandler = Callable[[Tuple[int, ...], str], None]

CSRViews = Tuple[memoryview, memoryview, Optional[memoryview]]


def csr_views(graph: CSRGraph) -> CSRViews:
    """``(offsets, targets, weights)`` as memoryviews of the graph's
    arrays (``weights`` is None when unweighted).  Made once per run and
    shared by every walker: an item read returns a plain Python int or
    float, without NumPy's scalar boxing, and nothing is copied."""
    weights = memoryview(graph.weights) if graph.is_weighted else None
    return memoryview(graph.offsets), memoryview(graph.targets), weights


class _NoFetch:
    """The port of a walker whose memory traffic nobody charges."""

    def fetch(self, addr: int) -> None:
        pass

    def fetch_state(self, vertex: int) -> None:
        pass


class HDTL:
    """The traversal walker for one engine."""

    def __init__(
        self,
        graph: CSRGraph,
        hub_membership: Callable[[int], bool],
        stack_depth: int = 10,
        port=None,
        layout: Optional[MemoryLayout] = None,
        line_bytes: int = 64,
        csr: Optional[CSRViews] = None,
    ) -> None:
        if stack_depth < 1:
            raise ValueError("stack_depth must be >= 1")
        self.graph = graph
        self.hub_membership = hub_membership
        self.stack_depth = stack_depth
        self.port = port if port is not None else _NoFetch()
        self._offsets, self._targets, self._weights = (
            csr if csr is not None else csr_views(graph)
        )
        # the array bases DEP_configure() conveys
        layout = layout if layout is not None else MemoryLayout(graph, 1)
        self._regions = (layout.offsets, layout.targets, layout.weights)
        self._line_bytes = line_bytes
        #: partition confinement: HDTL only prefetches the edges of its
        #: core's partition G^m (Section III-B2); a path reaching a vertex
        #: outside ``[part_begin, part_end)`` ends there and the endpoint
        #: continues as a root on its owning core.
        self.part_begin = 0
        self.part_end = graph.num_vertices
        #: line registers: the last line fetched from each CSR array
        self._offset_line = self._neighbor_line = self._weight_line = -1
        #: statistics (line fetches per CSR array; one state fetch per edge)
        self.offset_fetches = 0
        self.neighbor_fetches = 0
        self.weight_fetches = 0
        self.edges_fetched = 0
        self.paths_ended = 0
        self.max_depth_seen = 0

    # ------------------------------------------------------------------
    def confine(self, begin: int, end: int) -> None:
        """Confine the walk to partition ``[begin, end)``.  A new range
        invalidates the line registers."""
        self.part_begin = begin
        self.part_end = end
        self._offset_line = self._neighbor_line = self._weight_line = -1

    def fetch_counts(self) -> dict:
        """Fetches issued, by HDTL stage (offset/neighbor/weight/state)."""
        return {
            "offset": self.offset_fetches,
            "neighbor": self.neighbor_fetches,
            "weight": self.weight_fetches,
            "state": self.edges_fetched,
        }

    # ------------------------------------------------------------------
    def traverse(
        self,
        root: int,
        visited: Set[int],
        on_edge: EdgeHandler,
        on_path_end: PathEndHandler,
    ) -> None:
        """Walk depth-first from ``root``, driving the two handlers.

        ``visited`` is the per-round applied-vertex set shared with the
        runtime; HDTL adds every vertex it descends into (the caller marks
        the root itself when it applies it).  ``on_edge`` sees every
        fetched edge and returns True to descend into its target (the core
        applied a significant update there) or False to prune the branch.
        ``on_path_end`` sees every ended traversal path.
        """
        offsets = self._offsets
        targets = self._targets
        weights = self._weights
        fetch = self.port.fetch
        fetch_state = self.port.fetch_state
        is_hub = self.hub_membership
        stack_depth = self.stack_depth
        part_begin = self.part_begin
        part_end = self.part_end
        line_bytes = self._line_bytes
        offset_region, target_region, weight_region = self._regions
        offset_base, offset_stride = offset_region.base, offset_region.stride
        target_base, target_stride = target_region.base, target_region.stride
        weight_base, weight_stride = weight_region.base, weight_region.stride
        offset_line = self._offset_line
        neighbor_line = self._neighbor_line
        weight_line = self._weight_line
        offset_fetches = self.offset_fetches
        neighbor_fetches = self.neighbor_fetches
        weight_fetches = self.weight_fetches
        edges_fetched = self.edges_fetched
        paths_ended = self.paths_ended
        max_depth = self.max_depth_seen

        visited.add(root)
        addr = offset_base + offset_stride * root
        if addr // line_bytes != offset_line:
            offset_line = addr // line_bytes
            offset_fetches += 1
            fetch(addr)
        # Figure 7's stack: each vertex on the path and an iterator over
        # its unvisited edge offsets.  One loop runs the top vertex's
        # edges; descending breaks out of it, and the parent's iterator
        # resumes where it stopped once the child is exhausted.
        path = [root]
        edge_ranges = [iter(range(offsets[root], offsets[root + 1]))]
        while path:
            source = path[-1]
            depth = len(path)
            for edge in edge_ranges[-1]:
                addr = target_base + target_stride * edge
                if addr // line_bytes != neighbor_line:
                    neighbor_line = addr // line_bytes
                    neighbor_fetches += 1
                    fetch(addr)
                target = targets[edge]
                if weights is None:
                    weight = 1.0
                else:
                    weight = weights[edge]
                    addr = weight_base + weight_stride * edge
                    if addr // line_bytes != weight_line:
                        weight_line = addr // line_bytes
                        weight_fetches += 1
                        fetch(addr)
                fetch_state(target)
                edges_fetched += 1
                descend = on_edge(source, target, weight, depth)
                if is_hub(target):
                    # Reached an H'' vertex: the path ends here; the
                    # runtime re-enqueues the endpoint and, when the root
                    # is in H'', reports the segment to the DDMU as a
                    # core-path.  HDTL never descends past hub/core
                    # vertices, which keeps core-paths edge-disjoint
                    # (Definition 2).
                    paths_ended += 1
                    on_path_end((*path, target), "hub")
                    continue
                if not part_begin <= target < part_end:
                    # Left G^m: the owning core continues this chain.
                    if descend and target not in visited:
                        paths_ended += 1
                        on_path_end((*path, target), "boundary")
                    continue
                if not descend or target in visited:
                    continue
                if depth >= stack_depth:
                    # Fixed-depth stack is full: split the chain here and
                    # let the endpoint continue as a fresh root.
                    paths_ended += 1
                    on_path_end((*path, target), "depth")
                    continue
                visited.add(target)
                addr = offset_base + offset_stride * target
                if addr // line_bytes != offset_line:
                    offset_line = addr // line_bytes
                    offset_fetches += 1
                    fetch(addr)
                path.append(target)
                edge_ranges.append(
                    iter(range(offsets[target], offsets[target + 1]))
                )
                if depth + 1 > max_depth:
                    max_depth = depth + 1
                break
            else:
                # This branch is exhausted: pop, resume the parent.
                path.pop()
                edge_ranges.pop()

        self._offset_line = offset_line
        self._neighbor_line = neighbor_line
        self._weight_line = weight_line
        self.offset_fetches = offset_fetches
        self.neighbor_fetches = neighbor_fetches
        self.weight_fetches = weight_fetches
        self.edges_fetched = edges_fetched
        self.paths_ended = paths_ended
        self.max_depth_seen = max_depth
