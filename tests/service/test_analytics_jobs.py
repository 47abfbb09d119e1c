"""Analytics jobs through GraphService: one path, the library kernel.

Every job runs its kernel on a fresh :class:`~repro.analytics.TraversalEngine`
against the store a read run would use -- the primary, or a replica behind
its read-your-writes barrier -- so what a client gets back is exactly what the
kernel returns on the served graph.
"""

import random

import pytest

from repro import ShardedCuckooGraph
from repro.analytics import (
    AnalyticsFollower,
    materialize_adjacency,
    pagerank,
    weakly_connected_components,
)
from repro.persist import PersistentStore
from repro.replicate import Primary
from repro.service import ANALYTICS_HANDLERS, GraphClient, GraphService


def test_wcc_is_served_in_canonical_form():
    with GraphService() as service:
        client = GraphClient(service)
        client.insert_edges([(1, 2), (5, 6)])
        assert client.wcc() == [[1, 2], [5, 6]]


def test_every_run_gets_a_fresh_engine():
    """No analytics run inherits a prior run's engine or its counters."""
    captured = []

    def probe(store, *args, engine=None, **kwargs):
        captured.append((engine, engine.batch_calls,
                         engine.expand_calls, engine.probe_calls))
        # Real engine work, so counters would accumulate if shared.
        materialize_adjacency(store, engine=engine)
        return engine.batch_calls

    ANALYTICS_HANDLERS["counter_probe"] = probe
    try:
        with GraphService() as service:
            client = GraphClient(service)
            client.insert_edges([(1, 2), (2, 3)])
            for _ in range(3):
                service.analytics("counter_probe").result()
    finally:
        ANALYTICS_HANDLERS.pop("counter_probe", None)
    engines = [entry[0] for entry in captured]
    assert len(set(map(id, engines))) == len(engines) == 3
    for _, batch_calls, expand_calls, probe_calls in captured:
        assert (batch_calls, expand_calls, probe_calls) == (0, 0, 0)


@pytest.mark.parametrize("replicas", [0, 2])
def test_answers_equal_the_kernels_on_the_primary(tmp_path, replicas):
    """Bit for bit: plain ``==`` on PageRank's floats, after a seeded
    insert/delete stream that compacts the WAL mid-load.  An
    :class:`AnalyticsFollower` attached afterwards maintains the same
    scores: the client, the follower and the kernel on the primary agree."""
    store = PersistentStore(
        tmp_path / "primary", store=ShardedCuckooGraph(num_shards=4),
        own_store=True, compact_wal_bytes=4096,
    )
    rng = random.Random(35)
    edges = [(rng.randrange(60), rng.randrange(60)) for _ in range(600)]
    with GraphService(store, replicas=replicas, durability="batch",
                      own_store=True, max_batch=32) as service:
        client = GraphClient(service)
        client.insert_edges(edges)
        client.delete_edges(rng.sample(edges, 150))
        for u, v in edges[:40]:
            client.insert_edge(v, u)
        assert store.compactions >= 1
        ranks = pagerank(store.store)
        assert client.pagerank() == ranks
        assert client.wcc() == weakly_connected_components(store.store)
        reads = service.metrics_summary()["replication"]["replica_reads"]
        assert sum(reads.values()) == (2 if replicas else 0)
        primary = service.replication.primary if replicas else Primary(store)
        follower = AnalyticsFollower(scheme="sharded")
        try:
            primary.attach(follower)
            follower.wait_for(primary.commit_index)
            assert follower.pagerank() == ranks
        finally:
            follower.close()
            if not replicas:
                primary.close()
