"""The DepGraph accelerator: HDTL, DDMU, hub index, FIFO buffer, queues."""

from .ddmu import DDMU
from .edge_buffer import FICTITIOUS_SOURCE, FIFOEdgeBuffer, PrefetchedEdge
from .engine import DepGraphEngine, EngineConfig
from .hdtl import HDTL
from .hub_index import EntryFlag, HubIndex, HubIndexEntry
from .hubs import DEFAULT_BETA, DEFAULT_LAMBDA, HubSets, degree_threshold, select_hubs
from .queue import LocalCircularQueue

__all__ = [
    "DDMU",
    "FICTITIOUS_SOURCE",
    "FIFOEdgeBuffer",
    "PrefetchedEdge",
    "DepGraphEngine",
    "EngineConfig",
    "HDTL",
    "EntryFlag",
    "HubIndex",
    "HubIndexEntry",
    "DEFAULT_BETA",
    "DEFAULT_LAMBDA",
    "HubSets",
    "degree_threshold",
    "select_hubs",
    "LocalCircularQueue",
]
