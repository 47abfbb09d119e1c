"""Database integrations: the Redis and Neo4j use cases of Sections V-F / V-G.

Both integrations are in-process simulations of the respective systems
(see README, *Running the benchmarks*): :class:`MiniRedisServer` is a
command dispatcher with a loadable :class:`CuckooGraphModule`, and
:class:`MiniNeo4j` is a property-graph store whose edge lookups can be
accelerated by a multi-edge CuckooGraph index.
"""

from .minineo4j import MiniNeo4j, NodeRecord, RelationshipRecord
from .miniredis import CuckooGraphModule, MiniRedisServer, RedisGraphStore, RedisModule

__all__ = [
    "CuckooGraphModule",
    "MiniNeo4j",
    "MiniRedisServer",
    "NodeRecord",
    "RedisGraphStore",
    "RedisModule",
    "RelationshipRecord",
]
