"""Shard routing is part of the on-disk format.

WAL segment *i* holds exactly the source nodes routed to shard *i*, and the
per-segment machinery built on that -- ``WalPosition`` point-in-time
recovery, the replication commit feed, recovery into a store of the same
shard count -- only works while every writer and every reader route a node
the same way.  A change to :func:`~repro.interfaces.shard_index` therefore
re-labels the segments of every existing directory: it is a format change,
and the golden values below are what make it show up as one.
"""

from collections import Counter

from repro import ShardedCuckooGraph
from repro.interfaces import shard_index
from repro.persist import PersistentStore
from repro.persist.wal import read_wal_records
from repro.tiered import TieredStore
from repro.traffic import ScenarioConfig, ranked_keys

DENSE = list(range(32))
WIDE = [(1 << 62) - 1, 3416997615022407173, 4611686018427375559, 987654321987654321]
NEGATIVE = [-1, -2, -3, -1000, -(1 << 62)]

#: ``shard_index(node, shards)`` for DENSE, WIDE and NEGATIVE, per shard count.
GOLDEN = {
    1: ([0] * 32, [0] * 4, [0] * 5),
    2: ([0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0,
         1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0],
        [0, 0, 0, 1], [0, 1, 1, 0, 0]),
    3: ([0, 0, 2, 0, 2, 2, 2, 2, 2, 2, 1, 2, 1, 1, 1, 1,
         1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 2, 0, 2, 0, 2, 2],
        [1, 1, 1, 1], [0, 1, 0, 1, 0]),
    4: ([0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 0, 1, 3, 0, 2,
         3, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 0, 1, 3, 0, 2],
        [2, 0, 0, 3], [2, 1, 3, 2, 0]),
    8: ([0, 1, 2, 4, 5, 7, 0, 2, 3, 5, 6, 0, 1, 3, 4, 6,
         7, 1, 2, 4, 5, 7, 0, 2, 3, 5, 6, 0, 1, 3, 4, 6],
        [6, 4, 4, 7], [6, 5, 3, 6, 0]),
}


def test_shard_index_matches_the_golden_values():
    for shards, (dense, wide, negative) in GOLDEN.items():
        assert [shard_index(u, shards) for u in DENSE] == dense, shards
        assert [shard_index(u, shards) for u in WIDE] == wide, shards
        assert [shard_index(u, shards) for u in NEGATIVE] == negative, shards


def test_every_router_agrees_with_shard_index(tmp_path):
    """The sharded store, the tiered store, the WAL's segment placement and
    the traffic harness's shard-major key layout all route by one hash."""
    shards = 4
    nodes = DENSE + WIDE + NEGATIVE
    owner = {u: shard_index(u, shards) for u in nodes}
    edges = [(u, 7) for u in nodes]

    sharded = ShardedCuckooGraph(num_shards=shards)
    sharded.insert_edges(edges)
    for index, shard in enumerate(sharded.shards):
        assert {u for u, _ in shard.edges()} == {u for u in nodes if owner[u] == index}

    tiered = TieredStore(num_shards=shards, hot_shards=1)
    tiered.insert_edges(edges)
    tiers = tiered.structure_summary()["tiers"]
    per_shard = Counter(owner.values())
    assert [tiers[str(index)]["edges"] for index in range(shards)] == \
        [per_shard[index] for index in range(shards)]
    tiered.close()

    with PersistentStore(tmp_path / "s", store=ShardedCuckooGraph(num_shards=shards),
                         own_store=True) as store:
        store.insert_edges(edges)          # batch path
        for u in nodes:
            store.insert_edge(u, 9)        # single-op path
        segments = store.segment_paths
    for index, segment in enumerate(segments):
        _, records, _ = read_wal_records(segment)
        logged = {op[1] for ops, _ in records for op in ops}
        assert logged == {u for u in nodes if owner[u] == index}, index

    for store in (sharded, tiered, store):
        assert store.num_shards == shards
        assert [store.shard_of(u) for u in nodes] == [owner[u] for u in nodes]

    config = ScenarioConfig(tenants=1, keys_per_tenant=128, key_layout="shard_major",
                            scheme="tiered", num_shards=shards, hot_shards=1)
    ranked = ranked_keys(config, num_shards=shards)
    blocks = [{shard_index(u, shards) for u in ranked[start:start + 32]}
              for start in range(0, 128, 32)]
    assert all(len(block) == 1 for block in blocks)
    assert set().union(*blocks) == set(range(shards))
