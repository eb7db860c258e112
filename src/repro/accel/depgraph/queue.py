"""The per-core local circular queue of active vertices.

The software system 'contiguously places and maintains the active vertices of
its local partition in a local circular queue in the memory' (Section
III-B1); HDTL pops roots from it and the engine (or remote engines, for hub
shortcut targets) pushes new roots into it.

The model separates *current-round* entries from *next-round* entries: a
vertex already applied in the current round defers to the next round, which
is how the paper's round structure ('in each round of graph processing...')
maps onto the continuous queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Set


class LocalCircularQueue:
    """Active-vertex queue for one core, with per-round dedup."""

    def __init__(self, core: int) -> None:
        self.core = core
        self._current: Deque[int] = deque()
        self._next: Deque[int] = deque()
        # Membership sets keep a vertex from being enqueued twice per round;
        # the hardware achieves the same with an 'in-queue' state bit.
        self._in_current: Set[int] = set()
        self._in_next: Set[int] = set()
        self.enqueues = 0
        self.dequeues = 0
        self.remote_enqueues = 0

    # ------------------------------------------------------------------
    def push_current(self, vertex: int, remote: bool = False) -> bool:
        """Enqueue for the current round; returns False if already queued."""
        if vertex in self._in_current:
            return False
        self._current.append(vertex)
        self._in_current.add(vertex)
        self.enqueues += 1
        if remote:
            self.remote_enqueues += 1
        return True

    def push_next(self, vertex: int, remote: bool = False) -> bool:
        """Enqueue for the next round."""
        if vertex in self._in_next:
            return False
        self._next.append(vertex)
        self._in_next.add(vertex)
        self.enqueues += 1
        if remote:
            self.remote_enqueues += 1
        return True

    def pop(self) -> Optional[int]:
        """Take the next current-round root, or None when drained."""
        if not self._current:
            return None
        vertex = self._current.popleft()
        self._in_current.discard(vertex)
        self.dequeues += 1
        return vertex

    # ------------------------------------------------------------------
    @property
    def current_empty(self) -> bool:
        return not self._current

    @property
    def has_next(self) -> bool:
        return bool(self._next)

    def current_size(self) -> int:
        return len(self._current)

    def advance_round(self) -> int:
        """Promote next-round entries to current; returns how many."""
        promoted = len(self._next)
        self._current.extend(self._next)
        self._in_current.update(self._in_next)
        self._next.clear()
        self._in_next.clear()
        return promoted

    def steal_half(self) -> Deque[int]:
        """Work stealing (Blumofe-Leiserson, cited by the paper): give away
        the back half of the current-round queue."""
        count = len(self._current) // 2
        stolen: Deque[int] = deque()
        for _ in range(count):
            vertex = self._current.pop()
            self._in_current.discard(vertex)
            stolen.append(vertex)
        return stolen

    def receive_stolen(self, vertices) -> None:
        for vertex in vertices:
            self.push_current(vertex, remote=True)
