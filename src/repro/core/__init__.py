"""Core CuckooGraph data structures (the paper's primary contribution).

The public entry points are:

* :class:`~repro.core.graph.CuckooGraph` -- the basic version storing
  distinct directed edges (Section III-A);
* :class:`~repro.core.weighted.WeightedCuckooGraph` -- the extended version
  that counts duplicate edges with per-edge weights (Section III-B);
* :class:`~repro.core.multiedge.MultiEdgeCuckooGraph` -- the Neo4j-flavoured
  variant keeping a list of parallel-edge identifiers per node pair
  (Section V-G);
* :class:`~repro.core.sharded.ShardedCuckooGraph` -- a batch-capable
  front-end that hash-partitions source nodes across N independent
  CuckooGraph shards (the reproduction's scale-out layer, not part of the
  paper);
* :class:`~repro.core.config.CuckooGraphConfig` -- the parameter set
  (``d``, ``R``, ``G``, ``Λ``, ``T``, ...).
"""

from .chain import TableChain
from .config import CuckooGraphConfig, PAPER_CONFIG, tuning_grid
from .counters import Counters
from .cuckoo_table import CuckooHashTable
from .denylist import LargeDenylist, SmallDenylist
from .errors import (
    CapacityError,
    ConfigurationError,
    CuckooGraphError,
    IntegrationError,
    PersistenceError,
    SnapshotCorruptError,
    StoreClosedError,
    WalCorruptError,
)
from .graph import CuckooGraph
from .hashing import BobHash, HashFamily, ModularHash, MultiplyShiftHash
from .multiedge import MultiEdgeCuckooGraph
from .sharded import ShardedCuckooGraph, shard_index
from .slots import AdjacencyPart2
from .weighted import WeightedCuckooGraph

__all__ = [
    "AdjacencyPart2",
    "BobHash",
    "CapacityError",
    "ConfigurationError",
    "Counters",
    "CuckooGraph",
    "CuckooGraphConfig",
    "CuckooGraphError",
    "CuckooHashTable",
    "HashFamily",
    "IntegrationError",
    "LargeDenylist",
    "ModularHash",
    "MultiEdgeCuckooGraph",
    "MultiplyShiftHash",
    "PAPER_CONFIG",
    "PersistenceError",
    "ShardedCuckooGraph",
    "SmallDenylist",
    "SnapshotCorruptError",
    "StoreClosedError",
    "WalCorruptError",
    "TableChain",
    "WeightedCuckooGraph",
    "shard_index",
    "tuning_grid",
]
