"""Tests for the HDTL traversal walker, the edge buffer, and the queue."""

from typing import NamedTuple, Tuple

import pytest

from repro.accel.depgraph.edge_buffer import (
    FICTITIOUS_SOURCE,
    FIFOEdgeBuffer,
    PrefetchedEdge,
)
from repro.accel.depgraph.hdtl import HDTL
from repro.accel.depgraph.queue import LocalCircularQueue
from repro.graph.csr import CSRGraph
from repro.hardware.layout import MemoryLayout


class EdgeFetch(NamedTuple):
    """One ``on_edge`` call, recorded."""

    source: int
    target: int
    weight: float
    depth: int


class PathEnd(NamedTuple):
    """One ``on_path_end`` call, recorded."""

    path: Tuple[int, ...]
    reason: str

    @property
    def endpoint(self) -> int:
        return self.path[-1]


def drive(walker, root, visited, descend_all=True, decider=None):
    """Run a traversal, recording every handler call in order; descend
    decisions come from ``decider(event)`` or default to
    descend-everything."""
    events = []

    def on_edge(source, target, weight, depth):
        event = EdgeFetch(source, target, weight, depth)
        events.append(event)
        return decider(event) if decider else descend_all

    def on_path_end(path, reason):
        events.append(PathEnd(path, reason))

    walker.traverse(root, visited, on_edge, on_path_end)
    return events


class RecordingPort:
    """A fetch port that records the HDTL stage of every fetch."""

    def __init__(self, layout):
        self.regions = {
            "offset": layout.offsets,
            "neighbor": layout.targets,
            "weight": layout.weights,
        }
        self.kinds = []

    def fetch(self, addr):
        for kind, region in self.regions.items():
            if region.base <= addr < region.end:
                self.kinds.append(kind)

    def fetch_state(self, vertex):
        self.kinds.append("state")


def chain(n):
    return CSRGraph.from_edges(n + 1, [(i, i + 1) for i in range(n)])


class TestHDTLTraversal:
    def test_walks_whole_chain(self):
        g = chain(5)
        walker = HDTL(g, lambda v: False, stack_depth=10)
        visited = set()
        events = drive(walker, 0, visited)
        edges = [e for e in events if isinstance(e, EdgeFetch)]
        assert [(e.source, e.target) for e in edges] == [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5)
        ]
        assert visited == {0, 1, 2, 3, 4, 5}

    def test_dfs_order_on_tree(self):
        g = CSRGraph.from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        walker = HDTL(g, lambda v: False)
        events = drive(walker, 0, set())
        edges = [(e.source, e.target) for e in events if isinstance(e, EdgeFetch)]
        # depth-first: explores 1's subtree before fetching (0, 2)
        assert edges.index((1, 3)) < edges.index((0, 2))

    def test_stops_at_hub(self):
        g = chain(5)
        walker = HDTL(g, lambda v: v == 3)
        events = drive(walker, 0, set())
        ends = [e for e in events if isinstance(e, PathEnd)]
        assert len(ends) == 1
        assert ends[0].reason == "hub"
        assert ends[0].path == (0, 1, 2, 3)
        # never descended past the hub
        edges = [(e.source, e.target) for e in events if isinstance(e, EdgeFetch)]
        assert (3, 4) not in edges

    def test_stack_depth_splits_chain(self):
        g = chain(10)
        walker = HDTL(g, lambda v: False, stack_depth=3)
        events = drive(walker, 0, set())
        ends = [e for e in events if isinstance(e, PathEnd)]
        assert any(e.reason == "depth" for e in ends)
        depth_end = next(e for e in ends if e.reason == "depth")
        assert depth_end.endpoint == 3  # split after 3 stack entries

    def test_no_descend_prunes(self):
        g = chain(5)
        walker = HDTL(g, lambda v: False)
        visited = set()
        events = drive(walker, 0, visited, decider=lambda e: e.target <= 2)
        assert 5 not in visited
        # edge (2, 3) is fetched but 3 is pruned, never descended into
        assert visited == {0, 1, 2}
        edges = [(e.source, e.target) for e in events if isinstance(e, EdgeFetch)]
        assert (2, 3) in edges and (3, 4) not in edges

    def test_visited_vertices_not_redescended(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2), (2, 1)])
        walker = HDTL(g, lambda v: False)
        visited = set()
        events = drive(walker, 0, visited)
        edges = [(e.source, e.target) for e in events if isinstance(e, EdgeFetch)]
        # (2, 1) is fetched but 1 is already visited: no infinite loop
        assert edges.count((2, 1)) == 1

    def test_partition_boundary(self):
        g = chain(6)
        walker = HDTL(g, lambda v: False)
        walker.confine(0, 3)
        events = drive(walker, 0, set())
        ends = [e for e in events if isinstance(e, PathEnd)]
        assert len(ends) == 1
        assert ends[0].reason == "boundary"
        assert ends[0].endpoint == 3

    def test_fetch_callback_kinds(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)], weights=[1.0, 2.0])
        layout = MemoryLayout(g, 1)
        port = RecordingPort(layout)
        walker = HDTL(g, lambda v: False, port=port, layout=layout)
        drive(walker, 0, set())
        fetched = port.kinds
        assert "offset" in fetched
        assert "neighbor" in fetched
        assert "weight" in fetched
        assert "state" in fetched

    def test_invalid_stack_depth(self):
        g = chain(2)
        with pytest.raises(ValueError):
            HDTL(g, lambda v: False, stack_depth=0)

    def test_self_loop_no_infinite_loop(self):
        g = CSRGraph.from_edges(2, [(0, 0), (0, 1)])
        walker = HDTL(g, lambda v: False)
        events = drive(walker, 0, set())
        edges = [(e.source, e.target) for e in events if isinstance(e, EdgeFetch)]
        assert (0, 0) in edges and (0, 1) in edges


class TestFIFOEdgeBuffer:
    def test_push_pop_order(self):
        buf = FIFOEdgeBuffer(capacity=4)
        for i in range(3):
            assert buf.push(PrefetchedEdge(i, i + 1, 1.0))
        assert buf.pop().source == 0
        assert buf.pop().source == 1

    def test_capacity_stall(self):
        buf = FIFOEdgeBuffer(capacity=2)
        buf.push(PrefetchedEdge(0, 1, 1.0))
        buf.push(PrefetchedEdge(1, 2, 1.0))
        assert not buf.push(PrefetchedEdge(2, 3, 1.0))
        assert buf.full_stalls == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            FIFOEdgeBuffer().pop()

    def test_fictitious_edge_flag(self):
        edge = PrefetchedEdge(FICTITIOUS_SOURCE, 5, 0.0, reset_value=1.25)
        assert edge.is_fictitious
        assert edge.reset_value == 1.25
        assert not PrefetchedEdge(0, 5, 1.0).is_fictitious

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FIFOEdgeBuffer(capacity=0)

    def test_peek_and_clear(self):
        buf = FIFOEdgeBuffer()
        assert buf.peek() is None
        buf.push(PrefetchedEdge(0, 1, 1.0))
        assert buf.peek().target == 1
        buf.clear()
        assert buf.empty


class TestLocalCircularQueue:
    def test_push_pop_fifo(self):
        q = LocalCircularQueue(0)
        q.push_current(1)
        q.push_current(2)
        assert q.pop() == 1
        assert q.pop() == 2
        assert q.pop() is None

    def test_dedup_within_round(self):
        q = LocalCircularQueue(0)
        assert q.push_current(1)
        assert not q.push_current(1)
        assert q.current_size() == 1

    def test_requeue_after_pop_allowed(self):
        q = LocalCircularQueue(0)
        q.push_current(1)
        q.pop()
        assert q.push_current(1)

    def test_next_round_promotion(self):
        q = LocalCircularQueue(0)
        q.push_next(7)
        assert q.current_empty and q.has_next
        assert q.advance_round() == 1
        assert q.pop() == 7

    def test_steal_half(self):
        q = LocalCircularQueue(0)
        for v in range(10):
            q.push_current(v)
        stolen = q.steal_half()
        assert len(stolen) == 5
        assert q.current_size() == 5
        other = LocalCircularQueue(1)
        other.receive_stolen(stolen)
        assert other.current_size() == 5
        assert other.remote_enqueues == 5

    def test_remote_enqueue_counted(self):
        q = LocalCircularQueue(0)
        q.push_current(1, remote=True)
        q.push_next(2, remote=True)
        assert q.remote_enqueues == 2
