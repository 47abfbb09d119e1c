"""Competitor and substrate graph stores used by the paper's evaluation.

The benchmarked competitors (Figures 6-16) are :class:`LiveGraphStore`,
:class:`SortledtonStore`, :class:`WindBellIndex` and :class:`SpruceStore`;
:class:`AdjacencyListGraph` is the textbook adjacency list the paper's
introduction motivates against, kept as the reference model the tests check
the other stores against.
"""

from .adjacency import AdjacencyListGraph
from .livegraph import LiveGraphStore
from .sortledton import SortledtonStore
from .spruce import SpruceStore
from .wbi import WindBellIndex

#: The schemes compared against CuckooGraph in the paper's evaluation section.
COMPETITORS = {
    "LiveGraph": LiveGraphStore,
    "Spruce": SpruceStore,
    "Sortledton": SortledtonStore,
    "WBI": WindBellIndex,
}

__all__ = [
    "AdjacencyListGraph",
    "COMPETITORS",
    "LiveGraphStore",
    "SortledtonStore",
    "SpruceStore",
    "WindBellIndex",
]
