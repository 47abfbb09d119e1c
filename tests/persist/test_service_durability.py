"""GraphService durability="batch": a mutation run is one pipelined store
commit (its fsyncs beside the apply, all returned before it is acknowledged),
fail-stop on an fsync error only, recovery, close alignment."""

import shutil
import threading

import pytest

from repro import CuckooGraph, GraphClient, GraphService, ShardedCuckooGraph
from repro.core.errors import CapacityError, StoreClosedError
from repro.persist import PersistentStore, recover
from repro.service import ServiceClosedError, ServiceError

from .test_group_commit import (
    SHARDS,
    _FsyncProbe,
    edges_on_every_shard,
    edges_on_one_shard,
)


def durable_store(path, num_shards=3, shard_factory=None):
    """Handed to the service the way most callers build it: buffering.  The
    service itself switches it to sync-on-commit."""
    return PersistentStore(
        path,
        store=ShardedCuckooGraph(num_shards=num_shards, shard_factory=shard_factory),
        sync_on_commit=False,
        compact_wal_bytes=None,
        own_store=True,
    )


def recovered_edges(source, destination, num_shards=SHARDS):
    shutil.copytree(source, destination, ignore=shutil.ignore_patterns("lock"))
    replayed = recover(destination, store=ShardedCuckooGraph(num_shards=num_shards))
    try:
        return sorted(replayed.edges())
    finally:
        replayed.close()


@pytest.fixture
def fsync(monkeypatch):
    """``repro.persist.wal.os.fsync`` replaced by an (unarmed) probe."""
    probe = _FsyncProbe()
    monkeypatch.setattr("repro.persist.wal.os.fsync", probe)
    return probe


#: One mutation run each (submitted before ``start``, singles coalesce):
#: ``(edges, as one list request?, segments the run touches)``.
RUN_SHAPES = {
    "single": (edges_on_one_shard(1), False, 1),
    "coalesced-one-segment": (edges_on_one_shard(3), False, 1),
    "coalesced": (edges_on_every_shard(2, start=500), False, SHARDS),
    "list": (edges_on_every_shard(32, start=500), True, SHARDS),
}


def warm_store(path):
    """A ``durable_store`` whose segment files exist (creating one fsyncs
    too) and hold nothing unsynced: what is counted next is the run's."""
    store = durable_store(path, num_shards=SHARDS)
    store.insert_edges(edges_on_every_shard(1))
    store.sync()
    return store


def submit_run(service, edges, as_list):
    if as_list:
        return [service.insert_edges(edges)]
    return [service.insert_edge(u, v) for u, v in edges]


class TestBatchDurability:
    def test_requires_a_sync_capable_store(self):
        with pytest.raises(ValueError, match="sync"):
            GraphService(ShardedCuckooGraph(num_shards=2), durability="batch")

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="durability"):
            GraphService(durability="eventually")

    def test_each_mutation_run_is_one_group_commit(self, tmp_path):
        edges = [(u, u + 1) for u in range(300)]
        store = durable_store(tmp_path / "svc")
        service = GraphService(store, max_batch=1024, queue_capacity=1024,
                               own_store=True, durability="batch")
        # Submit everything before starting: the dispatcher coalesces the
        # stream into few windows, so commits must track runs, not ops.
        futures = [service.insert_edge(u, v) for u, v in edges]
        service.start()
        assert sum(future.result(timeout=30) for future in futures) == len(edges)
        summary = service.metrics_summary()
        assert 1 <= summary["group_commits"] < len(edges)
        # Each commit is one fsync per touched segment, not one per op.
        assert store.persistence_summary()["wal_syncs"] < len(edges)
        service.close()

    def test_resolved_futures_survive_recovery(self, tmp_path):
        edges = [(u, u + 1) for u in range(100)]
        with GraphService(durable_store(tmp_path / "svc"), own_store=True,
                          durability="batch") as service:
            futures = [service.insert_edge(u, v) for u, v in edges]
            for future in futures:
                future.result(timeout=30)
        recovered = recover(tmp_path / "svc",
                            store=ShardedCuckooGraph(num_shards=3))
        assert sorted(recovered.edges()) == sorted(edges)
        recovered.close()

    def test_mixed_traffic_recovers_to_final_state(self, tmp_path):
        with GraphService(durable_store(tmp_path / "svc"), own_store=True,
                          durability="batch") as service:
            inserts = [service.insert_edge(u, v) for u, v in
                       [(1, 2), (1, 3), (2, 3), (4, 5)]]
            deletes = [service.delete_edge(1, 3), service.delete_edge(9, 9)]
            for future in inserts + deletes:
                future.result(timeout=30)
            reads = service.has_edge(1, 2).result(timeout=30)
            assert reads is True
        recovered = recover(tmp_path / "svc",
                            store=ShardedCuckooGraph(num_shards=3))
        assert sorted(recovered.edges()) == [(1, 2), (2, 3), (4, 5)]
        recovered.close()

    def test_durable_client_end_to_end(self, tmp_path):
        client = GraphClient.durable(path=tmp_path / "cli", num_shards=2)
        assert client.insert_edges([(1, 2), (3, 4)]) == 2
        assert client.service.durability == "batch"
        client.close()
        recovered = recover(tmp_path / "cli",
                            store=ShardedCuckooGraph(num_shards=2))
        assert sorted(recovered.edges()) == [(1, 2), (3, 4)]
        recovered.close()

    def test_ephemeral_durable_client_cleans_up(self):
        client = GraphClient.durable(num_shards=2)
        client.insert_edge(1, 2)
        path = client.service.store.path
        assert path.exists()
        client.close()
        assert not path.exists()


class TestCloseAlignment:
    """Post-close behaviour is StoreClosedError across the whole stack."""

    def test_service_closed_error_is_a_store_closed_error(self):
        assert issubclass(ServiceClosedError, StoreClosedError)
        assert issubclass(ServiceClosedError, RuntimeError)  # legacy contract

    def test_service_post_close_submissions(self):
        service = GraphService()
        service.start()
        service.close()
        with pytest.raises(StoreClosedError):
            service.insert_edge(1, 2)
        with pytest.raises(StoreClosedError):
            service.analytics("bfs", 1)

    def test_owning_client_post_close_operations(self):
        client = GraphClient.local(num_shards=2)
        client.insert_edge(1, 2)
        client.close()
        client.close()  # idempotent
        assert client.closed
        for operation in (
            lambda: client.insert_edge(3, 4),
            lambda: client.delete_edge(1, 2),
            lambda: client.has_edge(1, 2),
            lambda: client.successors(1),
            lambda: client.insert_edges([(5, 6)]),
            lambda: client.has_edges([(1, 2)]),
            lambda: client.successors_many([1]),
            lambda: client.bfs(1),
        ):
            with pytest.raises(StoreClosedError):
                operation()
        # Quiesced introspection still reads the underlying store.
        assert client.num_edges == 1
        assert sorted(client.edges()) == [(1, 2)]

    def test_non_owning_client_close_is_also_terminal(self):
        service = GraphService().start()
        client = GraphClient(service)
        client.insert_edge(1, 2)
        client.close()
        with pytest.raises(StoreClosedError):
            client.insert_edge(3, 4)
        # The shared service itself stays up for other clients.
        assert service.running
        other = GraphClient(service)
        assert other.has_edge(1, 2)
        service.close()


class TestDurableClientReopen:
    def test_durable_reopens_an_existing_directory(self, tmp_path):
        """The same GraphClient.durable call works on first run and restart."""
        first = GraphClient.durable(path=tmp_path / "cli", num_shards=2)
        first.insert_edges([(1, 2), (3, 4)])
        first.close()

        second = GraphClient.durable(path=tmp_path / "cli", num_shards=2)
        assert second.has_edge(1, 2) and second.has_edge(3, 4)
        second.insert_edge(5, 6)
        second.close()

        third = GraphClient.durable(path=tmp_path / "cli", num_shards=2)
        assert sorted(third.edges()) == [(1, 2), (3, 4), (5, 6)]
        third.close()

    def test_reopen_with_wrong_shard_count_is_refused(self, tmp_path):
        from repro.core.errors import PersistenceError

        client = GraphClient.durable(path=tmp_path / "cli", num_shards=2)
        client.insert_edge(1, 2)
        client.close()
        with pytest.raises(PersistenceError):
            GraphClient.durable(path=tmp_path / "cli", num_shards=4)


class TestPipelinedGroupCommit:
    def test_fsyncs_are_in_flight_beside_the_apply_and_all_precede_the_ack(
            self, tmp_path, fsync):
        store = warm_store(tmp_path / "svc")
        inner = store.store
        applied = threading.Event()
        entered = []

        def spy(groups):
            count = ShardedCuckooGraph.insert_groups(inner, groups)
            entered.append(fsync.calls)
            fsync.events.append("applied")
            applied.set()
            return count

        inner.insert_groups = spy
        fsync.gate = threading.Event()
        with GraphService(store, own_store=True, durability="batch") as service:
            fsync.armed = True
            future = service.insert_edges(edges_on_every_shard(32, start=500))
            future.add_done_callback(lambda _: fsync.events.append("acknowledged"))
            assert applied.wait(timeout=30)
            # Applied, every touched segment's fsync entered and none back:
            # the request is not acknowledged.
            assert entered == [SHARDS] and fsync.returned == 0
            assert not future.done()
            fsync.gate.set()
            assert future.result(timeout=30) == 32 * SHARDS
            fsync.armed = False
        assert fsync.events == \
            ["applied"] + ["fsync-returned"] * SHARDS + ["acknowledged"]

    @pytest.mark.parametrize("shape", RUN_SHAPES)
    def test_a_run_is_one_group_commit_and_one_fsync_per_touched_segment(
            self, tmp_path, fsync, shape):
        edges, as_list, touched = RUN_SHAPES[shape]
        store = warm_store(tmp_path / "svc")
        service = GraphService(store, own_store=True, durability="batch")
        fsync.armed = True
        futures = submit_run(service, edges, as_list)
        service.start()
        assert sum(future.result(timeout=30) for future in futures) == len(edges)
        fsync.armed = False
        assert (fsync.calls, fsync.returned) == (touched, touched)
        assert service.metrics_summary()["group_commits"] == 1
        assert store.persistence_summary()["wal_syncs"] == SHARDS + touched
        service.close()

    @pytest.mark.parametrize("shape", RUN_SHAPES)
    def test_killed_the_moment_a_future_resolves_the_edge_recovers(
            self, tmp_path, shape):
        edges, as_list, _ = RUN_SHAPES[shape]
        service = GraphService(durable_store(tmp_path / "svc", num_shards=SHARDS),
                               own_store=True, durability="batch")
        futures = submit_run(service, edges, as_list)
        # Runs on the dispatcher thread inside the first set_result(): the
        # copy is the disk as a kill -9 at that instant would leave it.
        futures[0].add_done_callback(lambda _: shutil.copytree(
            tmp_path / "svc", tmp_path / "killed",
            ignore=shutil.ignore_patterns("lock")))
        service.start()
        for future in futures:
            future.result(timeout=30)
        service.close()
        killed = recover(tmp_path / "killed", store=ShardedCuckooGraph(num_shards=SHARDS))
        assert sorted(killed.edges()) == sorted(edges)
        killed.close()

    def test_the_switch_syncs_what_the_caller_left_buffered(self, tmp_path, fsync):
        store = warm_store(tmp_path / "svc")
        every_shard = edges_on_every_shard(2, start=500)
        buffered = every_shard[: len(every_shard) // 2]  # two segments dirty
        store.insert_edges(buffered)
        assert not set(buffered) & set(recovered_edges(tmp_path / "svc", tmp_path / "before"))
        fsync.armed = True
        service = GraphService(store, own_store=True, durability="batch")
        fsync.armed = False
        assert store.sync_on_commit is True
        assert (fsync.calls, fsync.returned) == (2, 2)
        assert set(buffered) <= set(recovered_edges(tmp_path / "svc", tmp_path / "after"))
        service.close()


class _FullShard(CuckooGraph):
    name = "FullShard"

    def insert_edge(self, u, v):
        if (u, v) == (666, 666):
            raise CapacityError("synthetic: nowhere to put (666, 666)")
        return super().insert_edge(u, v)


class TestSyncFailureFailStop:
    @pytest.mark.parametrize("shape", ["single", "list"])
    def test_sync_failure_fails_the_run_and_stops_the_service(
            self, tmp_path, fsync, shape):
        """Inline (single operation) and on a helper thread (list) alike."""
        edges, as_list, touched = RUN_SHAPES[shape]
        store = warm_store(tmp_path / "svc")
        service = GraphService(store, own_store=True, durability="batch")
        service.start()
        fsync.fail_at = touched  # the last one the run starts
        fsync.armed = True
        (future,) = submit_run(service, edges, as_list)
        with pytest.raises(OSError, match="synthetic fsync failure"):
            future.result(timeout=30)
        fsync.armed = False
        assert (fsync.calls, fsync.returned) == (touched, touched - 1)
        # Fail-stop: the service refuses further submissions.  The flag is
        # set by the dispatcher before the future resolves, so it is
        # already visible here.
        assert isinstance(service.durability_failed, OSError)
        with pytest.raises(ServiceError, match="fail-stopped"):
            service.insert_edge(3, 4)
        assert service.metrics_summary()["group_commits"] == 0
        service.close()

    @pytest.mark.parametrize("as_list", [False, True], ids=["single", "list"])
    def test_refused_apply_fails_its_run_alone_and_leaves_the_log_clean(
            self, tmp_path, as_list):
        store = durable_store(tmp_path / "svc", num_shards=SHARDS,
                              shard_factory=_FullShard)
        accepted = edges_on_every_shard(2)
        with GraphService(store, own_store=True, durability="batch") as service:
            assert service.insert_edges(accepted).result(timeout=30) == len(accepted)
            sizes = store.wal_segment_sizes()
            refused = [(666, 666)]
            if as_list:
                refused = edges_on_every_shard(3, start=50_000) + refused
            (future,) = submit_run(service, refused, as_list)
            with pytest.raises(CapacityError):
                future.result(timeout=30)
            assert store.wal_segment_sizes() == sizes  # rewound
            assert [path.stat().st_size for path in store.segment_paths] == sizes
            assert service.durability_failed is None
            assert service.insert_edge(7, 70).result(timeout=30) is True
            summary = service.metrics_summary()
            assert (summary["group_commits"], summary["failed"]) == (2, 1)
        assert recovered_edges(tmp_path / "svc", tmp_path / "copy") == \
            sorted(accepted + [(7, 70)])

    def test_open_or_create_round_trip(self, tmp_path):
        from repro.persist import open_or_create

        store = open_or_create(tmp_path / "s", store=ShardedCuckooGraph(num_shards=2),
                               own_store=True)
        store.insert_edge(1, 2)
        store.close()
        reopened = open_or_create(tmp_path / "s",
                                  store=ShardedCuckooGraph(num_shards=2),
                                  own_store=True)
        assert reopened.has_edge(1, 2)
        reopened.close()
