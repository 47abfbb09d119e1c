"""Unit tests for the hot/cold tiered store (promotion, counters, lifecycle).

The cross-cutting guarantees (store contract, engine parity, differential
fuzzing against the reference model) come for free from ``TieredStore``'s
entry in ``ALL_STORE_FACTORIES``; this file pins the tier mechanics those
matrices cannot see: when shards migrate, what the counters say, and how the
lifecycle behaves.
"""

import random

import pytest

from repro.core import CuckooGraphConfig
from repro.core.errors import ConfigurationError, StoreClosedError
from repro.baselines import AdjacencyListGraph
from repro.service import GraphClient, GraphService
from repro.tiered import TieredStore, TouchLRUPolicy


def node_on_shard(store: TieredStore, shard: int, start: int = 0) -> int:
    """Smallest node id >= start routed to ``shard``."""
    node = start
    while store.shard_of(node) != shard:
        node += 1
    return node


def cold_shard_of(store: TieredStore) -> int:
    return next(s for s in range(store.num_shards) if not store.is_hot(s))


def test_initial_tier_layout():
    store = TieredStore(num_shards=4, hot_shards=2)
    assert [store.is_hot(s) for s in range(4)] == [True, True, False, False]
    stats = store.tier_stats()
    assert stats["hot_set"] == [0, 1]
    assert stats["touches"] == stats["hits"] == stats["misses"] == 0
    store.close()


def test_invalid_construction():
    with pytest.raises(ConfigurationError):
        TieredStore(num_shards=0)
    with pytest.raises(ConfigurationError):
        TieredStore(num_shards=4, hot_shards=5)
    with pytest.raises(ConfigurationError):
        TieredStore(num_shards=4, hot_shards=0)
    with pytest.raises(ConfigurationError):
        TouchLRUPolicy(promote_after=0)


def test_mutating_misses_promote_cold_shard():
    store = TieredStore(num_shards=4, hot_shards=1,
                        policy=TouchLRUPolicy(promote_after=4))
    cold = cold_shard_of(store)
    u = node_on_shard(store, cold)
    for v in range(1, 6):
        store.insert_edge(u, u + 1000 * v)
    # After promote_after mutating touches the cold shard out-touches the
    # never-touched hot shard 0 and swaps in.
    assert store.is_hot(cold)
    assert not store.is_hot(0)
    assert store.promotions == 1
    assert store.demotions == 1
    # The migrated shard kept every edge.
    assert all(store.has_edge(u, u + 1000 * v) for v in range(1, 6))
    assert store.num_edges == 5
    store.close()


def test_reads_never_migrate():
    store = TieredStore(num_shards=4, hot_shards=1,
                        policy=TouchLRUPolicy(promote_after=2))
    cold = cold_shard_of(store)
    u = node_on_shard(store, cold)
    for _ in range(50):
        store.has_edge(u, u + 1)
        store.successors(u)
    assert not store.is_hot(cold)
    assert store.promotions == 0
    assert store.misses == 100
    store.close()


def test_hit_miss_counters_and_window():
    store = TieredStore(num_shards=4, hot_shards=2)
    hot_u = node_on_shard(store, 0)
    cold_u = node_on_shard(store, cold_shard_of(store))
    store.insert_edge(hot_u, hot_u + 1)
    store.has_edge(cold_u, cold_u + 1)
    stats = store.tier_stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["touches"] == 2
    assert stats["hit_rate"] == pytest.approx(0.5)
    assert sum(stats["shard_touches"]) == 2
    store.close()


def test_batches_touch_once_per_group():
    store = TieredStore(num_shards=4, hot_shards=4)  # all hot: no migrations
    edges = [(u, u + 1) for u in range(16)]
    store.insert_edges(edges)
    stats = store.tier_stats()
    assert stats["hits"] == len(edges)
    assert stats["misses"] == 0
    assert store.has_edges(edges) == [True] * len(edges)
    store.close()


def test_demoted_shard_must_reearn_promotion():
    store = TieredStore(num_shards=2, hot_shards=1,
                        policy=TouchLRUPolicy(promote_after=3))
    cold = cold_shard_of(store)
    hot = 1 - cold
    u_cold = node_on_shard(store, cold)
    for v in range(1, 5):
        store.insert_edge(u_cold, u_cold + 10 * v)
    assert store.is_hot(cold) and not store.is_hot(hot)
    # One mutating touch on the freshly demoted shard is not enough: its
    # window reset on migration, so no thrash back.
    u_hot = node_on_shard(store, hot)
    store.insert_edge(u_hot, u_hot + 1)
    assert store.is_hot(cold) and not store.is_hot(hot)
    assert store.promotions == 1
    store.close()


def test_migration_preserves_edges_and_accesses_monotonic():
    store = TieredStore(num_shards=4, hot_shards=1,
                        policy=TouchLRUPolicy(promote_after=2))
    edges = [(u, v) for u in range(12) for v in (u + 100, u + 200)]
    store.insert_edges(edges)
    before = store.accesses
    cold = cold_shard_of(store)
    u = node_on_shard(store, cold, start=1000)
    for v in range(1, 8):
        store.insert_edge(u, u + v)
    assert store.promotions >= 1
    assert store.accesses >= before  # carried across the tier rebuild
    expected = set(edges) | {(u, u + v) for v in range(1, 8)}
    assert set(store.edges()) == expected
    assert store.num_edges == len(expected)
    store.close()


def test_accesses_setter_only_resets():
    store = TieredStore(num_shards=2, hot_shards=1)
    store.insert_edge(1, 2)
    assert store.accesses > 0
    with pytest.raises(ConfigurationError):
        store.accesses = 5
    store.accesses = 0
    assert store.accesses == 0
    store.close()


def test_structure_summary_shape():
    store = TieredStore(num_shards=2, hot_shards=1)
    store.insert_edge(1, 2)
    summary = store.structure_summary()
    assert summary["scheme"] == "TieredStore"
    assert summary["edges"] == 1
    assert set(summary["tiers"]) == {"0", "1"}
    tiers = {entry["tier"] for entry in summary["tiers"].values()}
    assert tiers == {"hot", "cold"}
    assert summary["tier_stats"]["touches"] == 1
    store.close()


def test_spawn_empty_reproduces_config():
    store = TieredStore(num_shards=4, hot_shards=3, cold=AdjacencyListGraph)
    store.insert_edge(1, 2)
    child = store.spawn_empty()
    assert child.num_shards == 4
    assert child.hot_shards == 3
    assert child.num_edges == 0
    assert [child.is_hot(s) for s in range(4)] == [True, True, True, False]
    assert isinstance(child.shards[3], AdjacencyListGraph)
    child.close()
    store.close()


def test_config_reaches_every_hot_shard():
    """Hot shards are built from the store's config, one seed per shard,
    at construction, on promotion and in a spawned store."""
    store = TieredStore(num_shards=4, hot_shards=1, config=CuckooGraphConfig(d=4, seed=10),
                        policy=TouchLRUPolicy(promote_after=1))
    cold = cold_shard_of(store)
    u = node_on_shard(store, cold)
    store.insert_edge(u, u + 1)
    store.insert_edge(u, u + 2)
    assert store.is_hot(cold) and store.promotions == 1
    child = store.spawn_empty()
    for tiered, hot in ((store, cold), (child, 0)):
        assert tiered.shards[hot].config.d == 4
        assert tiered.shards[hot].config.seed == 10 + hot
    child.close()
    store.close()


def test_close_is_terminal_and_idempotent():
    store = TieredStore(num_shards=2, hot_shards=1)
    store.insert_edge(1, 2)
    store.close()
    store.close()  # idempotent
    assert store.closed
    with pytest.raises(StoreClosedError):
        store.insert_edge(3, 4)
    with pytest.raises(StoreClosedError):
        store.has_edge(1, 2)


def test_client_batches_end_on_the_same_tiers_as_single_inserts():
    """A ``GraphClient.insert_edges`` travels as ``max_batch``-sized store
    calls, so the tiering policy sees the traffic in pieces no larger than
    per-edge serving hands it: same hot set, same footprint, same edges."""
    rng = random.Random(14)
    edges = [(int(rng.paretovariate(0.6)) % 600, rng.randrange(5000))
             for _ in range(2000)]

    def served(load):
        store = TieredStore(num_shards=8, hot_shards=2)
        with GraphClient(GraphService(store, own_store=True, max_batch=64),
                         close_service=True) as client:
            load(client)
            stats = store.tier_stats()
            return (stats["hot_set"], client.memory_bytes(),
                    sorted(client.edges())), stats

    def one_by_one(client):
        for u, v in edges:
            client.insert_edge(u, v)

    batched, stats = served(lambda client: client.insert_edges(edges))
    single, _ = served(one_by_one)
    assert batched == single
    assert stats["promotions"] > 0  # the stream does move the hot set
