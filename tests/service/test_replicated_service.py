"""GraphService(replicas=N): read routing, read-your-writes, metrics.

The service keeps mutations on the primary (the PersistentStore it was
given) and serves read runs -- ``has`` / ``successors`` -- and analytics
jobs from the replication group's followers, round-robin.  These tests pin
the routing (spy stores count who served what), the read-your-writes
guarantee under interleaved traffic, and the replication section of
``ServiceMetrics``.
"""

import os

import pytest

from repro import ShardedCuckooGraph
from repro.persist import PersistentStore
from repro.service import GraphClient, GraphService


def durable_store(tmp_path, num_shards=2):
    return PersistentStore(
        tmp_path / "primary",
        store=ShardedCuckooGraph(num_shards=num_shards),
        own_store=True,
        sync_on_commit=False,
        compact_wal_bytes=None,
    )


def test_replicas_require_a_persistent_store():
    store = ShardedCuckooGraph(num_shards=2)
    with pytest.raises(ValueError, match="PersistentStore"):
        GraphService(store, replicas=1)
    store.close()


def test_read_your_writes_interleaved_traffic(tmp_path):
    """Reads submitted after mutations always observe them."""
    store = durable_store(tmp_path)
    with GraphService(store, replicas=2, durability="batch",
                      own_store=True, max_batch=16) as service:
        for u in range(40):
            insert = service.insert_edge(u, u + 1)
            assert insert.result(timeout=30) is True
            # The very next read must see the write (read-your-writes).
            assert service.has_edge(u, u + 1).result(timeout=30) is True
        gone = service.delete_edge(5, 6)
        assert gone.result(timeout=30) is True
        assert service.has_edge(5, 6).result(timeout=30) is False
        assert sorted(service.successors(7).result(timeout=30)) == [8]

        summary = service.metrics_summary()
        replication = summary["replication"]
        # Every read run was served by a replica, spread round-robin.
        assert sum(replication["replica_reads"].values()) > 0
        assert set(replication["replica_reads"]) == {0, 1}
        assert summary["failed"] == 0


def test_reads_are_served_by_followers_not_the_primary(tmp_path):
    """Spy on the stores: read batch calls land on replicas only."""
    calls = {"primary": 0, "replica": 0}

    class SpyShardedPrimary(ShardedCuckooGraph):
        def has_edges(self, edges):
            calls["primary"] += 1
            return super().has_edges(edges)

        def successors_many(self, nodes):
            calls["primary"] += 1
            return super().successors_many(nodes)

        def spawn_empty(self):
            spawned = SpyShardedReplica(num_shards=self.num_shards)
            return spawned

    class SpyShardedReplica(ShardedCuckooGraph):
        def has_edges(self, edges):
            calls["replica"] += 1
            return super().has_edges(edges)

        def successors_many(self, nodes):
            calls["replica"] += 1
            return super().successors_many(nodes)

    store = PersistentStore(
        tmp_path / "primary", store=SpyShardedPrimary(num_shards=2),
        own_store=True, sync_on_commit=False, compact_wal_bytes=None)
    with GraphService(store, replicas=2, durability="batch",
                      own_store=True) as service:
        service.insert_edge(1, 2).result(timeout=30)
        calls["primary"] = calls["replica"] = 0  # discard the mutation probes

        assert service.has_edge(1, 2).result(timeout=30) is True
        assert service.successors(1).result(timeout=30) == [2]

    assert calls["replica"] >= 2, "reads must be served by replicas"
    assert calls["primary"] == 0, "the primary must not serve read runs"


def test_analytics_jobs_run_on_a_replica(tmp_path):
    store = durable_store(tmp_path)
    with GraphService(store, replicas=2, durability="batch",
                      own_store=True) as service:
        for u in range(10):
            service.insert_edge(u, u + 1)
        order = service.analytics("bfs", 0).result(timeout=30)
        assert order == list(range(11))
        ranks = service.analytics("pagerank").result(timeout=30)
        assert ranks and abs(sum(ranks.values()) - 1.0) < 1e-6
        replication = service.metrics_summary()["replication"]
        assert sum(replication["replica_reads"].values()) >= 2


def test_a_replicated_read_syncs_the_buffered_commits(tmp_path, monkeypatch):
    """Under ``durability="none"`` a write stays buffered until the read's
    read-your-writes barrier fsyncs it, ships it and waits for the replica."""
    fsyncs = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        fsyncs.append(fd)
        real_fsync(fd)

    store = durable_store(tmp_path)
    with GraphService(store, replicas=1, own_store=True) as service:
        # Every segment file exists (creating one fsyncs too).
        warmup = [(u, u + 1) for u in range(16)]
        assert service.insert_edges(warmup).result(timeout=30) == len(warmup)
        monkeypatch.setattr("repro.persist.wal.os.fsync", counting_fsync)
        assert service.insert_edge(1000, 1001).result(timeout=30) is True
        assert fsyncs == []
        assert service.has_edge(1000, 1001).result(timeout=30) is True
        assert fsyncs


def test_replication_lag_is_measured_under_read_your_writes(tmp_path):
    store = durable_store(tmp_path)
    with GraphService(store, replicas=2, durability="batch",
                      own_store=True, max_batch=64) as service:
        futures = [service.insert_edge(u, u + 1) for u in range(60)]
        for future in futures:
            future.result(timeout=30)
        assert service.has_edge(0, 1).result(timeout=30) is True
        replication = service.metrics_summary()["replication"]
        assert replication["lag_samples"] >= 1
        # The barrier closed a real gap at least once (mutations landed
        # before the read run was dispatched).
        assert replication["lag_max"] >= 0
        assert replication["lag_mean"] >= 0


def test_durable_client_with_replicas_survives_restart(tmp_path):
    """GraphClient.durable(replicas=...) recovers and re-replicates."""
    path = tmp_path / "durable"
    client = GraphClient.durable(path, num_shards=2, replicas=2)
    client.insert_edges([(u, u + 1) for u in range(25)])
    state = sorted(client.edges())
    client.close()

    reopened = GraphClient.durable(path, num_shards=2, replicas=2)
    assert sorted(reopened.edges()) == state
    assert reopened.has_edge(3, 4)
    assert reopened.insert_edge(500, 501)
    replication = reopened.service.metrics_summary()["replication"]
    assert sum(replication["replica_reads"].values()) >= 1
    reopened.close()


def test_close_tears_down_replicas_and_primary(tmp_path):
    store = durable_store(tmp_path)
    service = GraphService(store, replicas=2, own_store=True).start()
    service.insert_edge(1, 2).result(timeout=30)
    group = service.replication
    service.close()
    assert group.closed
    assert group.primary.closed
    assert all(f.closed for f in group.followers)
    assert store.closed


def test_eviction_of_a_dead_replica_surfaces_in_metrics(tmp_path):
    """A follower whose channel dies is evicted mid-broadcast -- service
    traffic keeps flowing and the metrics summary says it happened."""
    store = durable_store(tmp_path)
    with GraphService(store, replicas=2, durability="batch",
                      own_store=True) as service:
        service.insert_edge(1, 2).result(timeout=30)
        assert service.metrics_summary()["replication"]["evictions"] == 0
        # One replica's transport dies underneath it (no clean detach).
        service.replication.followers[1]._channel.close()
        service.insert_edge(3, 4).result(timeout=30)
        summary = service.metrics_summary()
        assert summary["replication"]["evictions"] == 1
        assert summary["failed"] == 0
        assert service.replication.primary.evictions == 1
        # The surviving follower kept receiving the stream.
        survivor = service.replication.followers[0]
        survivor.wait_for(service.replication.primary.commit_index)
        assert survivor.store.has_edge(3, 4)
