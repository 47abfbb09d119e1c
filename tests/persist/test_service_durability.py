"""GraphService durability="batch": a mutation run is one pipelined store
commit (its fsyncs beside the apply, all returned before it is acknowledged),
commits stay in flight while the dispatcher serves on and are acknowledged in
commit order, fail-stop on an fsync error only, recovery, close alignment."""

import random
import shutil
import sys
import threading
import time

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


def spy_on_commits(store, note):
    """``note(edges)`` before every batch mutation the service hands ``store``."""
    for name in ("insert_edges", "delete_edges"):
        def spied(edges, _commit=getattr(store, name), **kwargs):
            note(edges)
            return _commit(edges, **kwargs)
        setattr(store, name, spied)


def one_edge_per_shard(start):
    """``SHARDS`` edges, the i-th in segment i: one single-segment commit each."""
    return edges_on_every_shard(1, start=start)


def wait_until(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never came true"
        time.sleep(0.001)


def stays_pending(*futures, seconds=0.1):
    time.sleep(seconds)
    return not any(future.done() for future in futures)


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
    @pytest.mark.parametrize("shape", ["single", "list"])
    def test_fsyncs_are_in_flight_beside_the_apply_and_all_precede_the_ack(
            self, tmp_path, fsync, shape):
        edges, as_list, touched = RUN_SHAPES[shape]
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
            [future] = submit_run(service, edges, as_list)
            future.add_done_callback(lambda _: fsync.events.append("acknowledged"))
            assert applied.wait(timeout=30)
            # Applied, every touched segment's fsync entered and none back:
            # the request is not acknowledged.
            assert entered == [touched] and fsync.returned == 0
            assert not future.done()
            fsync.gate.set()
            assert future.result(timeout=30) == (len(edges) if as_list else True)
            fsync.armed = False
        assert fsync.events == \
            ["applied"] + ["fsync-returned"] * touched + ["acknowledged"]

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
    def test_mutations_queued_behind_a_failed_fsync_fail_without_a_store_call(
            self, tmp_path, fsync, as_list):
        """Fail-stop covers what was queued before the failure was known; a
        queued read is still served."""
        store = warm_store(tmp_path / "svc")
        service = GraphService(store, own_store=True, durability="batch")
        first, second, third = ([edge] if not as_list else
                                [edge, (edge[0], 8), (edge[0], 9), (edge[0], 10)]
                                for edge in one_edge_per_shard(500)[:3])
        calls = []
        spy_on_commits(store, lambda edges: calls.append(service.durability_failed))
        fsync.fail_at = 1
        fsync.armed = True
        failed = submit_run(service, first, as_list)
        # Reads a source the first run wrote: acknowledges (here: fails) it first.
        read = service.successors(first[0][0])
        if as_list:
            queued = [service.insert_edges(second), service.delete_edges(third)]
        else:
            # A single write on another source would share the first run's
            # conflict layer, and so its commit; writes on the read's source
            # are placed after the read.
            second, third = [(first[0][0], 8)], [(first[0][0], 9)]
            queued = [service.delete_edge(*second[0]), service.insert_edge(*third[0])]
        service.start()
        with pytest.raises(OSError, match="synthetic fsync failure"):
            failed[0].result(timeout=30)
        assert isinstance(read.result(timeout=30), list)
        for future in queued:
            with pytest.raises(ServiceError, match="fail-stopped") as caught:
                future.result(timeout=30)
            assert caught.value.__cause__ is service.durability_failed
        fsync.armed = False
        assert calls == [None]  # the store saw the first run only
        assert not any(store.has_edges(second + third))
        summary = service.metrics_summary()
        assert (summary["group_commits"], summary["failed"]) == (0, len(failed + queued))
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


class TestPipelinedAcknowledgement:
    """Commits stay in flight across dispatch windows; futures settle in
    commit order, after the fsyncs of their commit and of every earlier one.
    (Writes travel as one-edge list requests: a run, hence a commit, each.)"""

    @pytest.mark.parametrize("segments", ["another-segment", "same-segment"])
    def test_a_later_commit_is_not_acknowledged_before_an_earlier_one(
            self, tmp_path, fsync, segments):
        store = warm_store(tmp_path / "svc")
        first, second = (one_edge_per_shard(500) if segments == "another-segment"
                         else edges_on_one_shard(2))[:2]
        order = []
        fsync.gate, fsync.gated = threading.Event(), {1}
        with GraphService(store, own_store=True, durability="batch") as service:
            fsync.armed = True
            held = service.insert_edges([first])
            held.add_done_callback(lambda _: order.append("first"))
            later = service.insert_edges([second])
            later.add_done_callback(lambda _: order.append("second"))
            wait_until(lambda: fsync.returned == 1)  # the later commit's fsync
            assert stays_pending(held, later)
            assert service.metrics_summary()["group_commits"] == 0
            fsync.gate.set()
            assert held.result(timeout=30) == later.result(timeout=30) == 1
            fsync.armed = False
            assert order == ["first", "second"]
            assert service.metrics_summary()["group_commits"] == 2
        assert (fsync.calls, fsync.returned) == (2, 2)
        assert {first, second} <= set(recovered_edges(tmp_path / "svc", tmp_path / "copy"))

    @pytest.mark.parametrize("replicas", [0, 1])
    def test_reads_wait_for_the_in_flight_commits_they_can_observe_only(
            self, tmp_path, fsync, replicas):
        store = warm_store(tmp_path / "svc")
        (u, v), (other, w) = one_edge_per_shard(500)[:2]
        fsync.gate = threading.Event()
        with GraphService(store, own_store=True, durability="batch",
                          replicas=replicas) as service:
            assert service.insert_edges([(other, w)]).result(timeout=30) == 1
            fsync.armed = True
            held = service.insert_edges([(u, v)])
            # Another source: served while the commit's fsync is in flight.
            assert service.has_edge(other, w).result(timeout=30) is True
            assert service.successors(other).result(timeout=30) == [w]
            assert service.has_edges([(other, w), (other, v)]).result(timeout=30) == \
                [True, False]
            assert not held.done()
            # The written source, and a job that may read anything: not
            # before the write is acknowledged.
            reads = [service.has_edge(u, v), service.successors(u),
                     service.analytics("bfs", u)]
            assert stays_pending(held, *reads)
            fsync.gate.set()
            assert held.result(timeout=30) == 1
            assert [future.result(timeout=30) for future in reads] == \
                [True, [v], [u, v]]
            fsync.armed = False

    def test_killed_inside_any_acknowledgement_every_acknowledged_edge_recovers(
            self, tmp_path, fsync):
        store = warm_store(tmp_path / "svc")
        warm = edges_on_every_shard(1)
        edges = one_edge_per_shard(500)[:3]
        fsync.gate = threading.Event()
        service = GraphService(store, own_store=True, durability="batch").start()
        fsync.armed = True
        futures = [service.insert_edges([edge]) for edge in edges]
        for index, future in enumerate(futures):
            # Runs on the dispatcher thread inside set_result(): the copy is
            # the disk as a kill -9 at that instant would leave it.
            future.add_done_callback(lambda _, index=index: shutil.copytree(
                tmp_path / "svc", tmp_path / f"killed-{index}",
                ignore=shutil.ignore_patterns("lock")))
        wait_until(lambda: fsync.calls == 3)  # three commits in flight at once
        assert stays_pending(*futures)
        fsync.gate.set()
        for future in futures:
            assert future.result(timeout=30) == 1
        fsync.armed = False
        service.close()
        for index in range(3):
            killed = recover(tmp_path / f"killed-{index}",
                             store=ShardedCuckooGraph(num_shards=SHARDS))
            assert set(killed.edges()) >= set(warm + edges[:index + 1])
            killed.close()

    def test_a_failed_fsync_fails_every_commit_in_flight_and_every_queued_one(
            self, tmp_path, fsync):
        store = warm_store(tmp_path / "svc")
        warm = edges_on_every_shard(1)
        in_flight = one_edge_per_shard(500)[:3]
        queued = one_edge_per_shard(900)[:2]
        fsync.gate, fsync.gated, fsync.fail_at = threading.Event(), {1}, 1
        commits = []
        insert_edges = store.insert_edges
        store.insert_edges = lambda edges, _pending: (
            commits.append(_pending), insert_edges(edges, _pending=_pending))[1]
        service = GraphService(store, own_store=True, durability="batch").start()
        fsync.armed = True
        futures = [service.insert_edges([edge]) for edge in in_flight]
        wait_until(lambda: fsync.returned == 2)  # the two behind it are synced
        # A read of the first commit's source parks the dispatcher on it, so
        # what follows is still queued when the failure arrives.
        read = service.has_edge(*in_flight[0])
        futures += [service.insert_edges([edge]) for edge in queued]
        assert stays_pending(read, *futures)
        fsync.gate.set()
        with pytest.raises(OSError, match="synthetic fsync failure"):
            futures[0].result(timeout=30)
        for future in futures[1:]:
            with pytest.raises(ServiceError, match="fail-stopped"):
                future.result(timeout=30)
        read.result(timeout=30)
        fsync.armed = False
        assert isinstance(service.durability_failed, OSError)
        assert not any(store.has_edges(queued))  # never reached the store
        # Nothing is left in flight on either side of the service/store seam.
        assert len(commits) == 3 and all(c._in_flight is None for c in commits)
        assert not service._unacked and not service._writing
        summary = service.metrics_summary()
        assert (summary["group_commits"], summary["failed"]) == (0, 5)
        assert set(recovered_edges(tmp_path / "svc", tmp_path / "copy")) >= set(warm)
        service.close()

    def test_a_commit_is_acknowledged_while_the_next_window_waits_for_stragglers(
            self, tmp_path, fsync):
        """``max_delay_s > 0``: the helper's wake-up also ends the timed wait
        of a window that is filling, so the acknowledgement does not wait for
        that window's deadline (and the window stays open)."""
        store = warm_store(tmp_path / "svc")
        (u, v), (other, w) = one_edge_per_shard(500)[:2]
        fsync.gate = threading.Event()
        delay = 4.0
        service = GraphService(store, own_store=True, durability="batch",
                               max_batch=2, max_delay_s=delay)
        fsync.armed = True
        held = service.insert_edges([(u, v)])
        service.has_edge(other, w)  # fills the first window: no straggler wait
        service.start()
        wait_until(lambda: fsync.calls == 1)
        straggler = service.has_edge(other, w)  # opens a window of its own
        time.sleep(0.05)  # the dispatcher is in that window's timed wait
        began = time.monotonic()
        fsync.gate.set()
        assert held.result(timeout=30) == 1
        assert time.monotonic() - began < delay / 4
        assert not straggler.done()
        fsync.armed = False
        service.close()  # ends the wait; the window is dispatched
        assert straggler.result(timeout=30) is False

    def test_a_refused_apply_between_two_commits_fails_alone_and_in_order(
            self, tmp_path, fsync):
        store = durable_store(tmp_path / "svc", num_shards=SHARDS,
                              shard_factory=_FullShard)
        warm = edges_on_every_shard(1)
        store.insert_edges(warm)
        store.sync()
        before, after = one_edge_per_shard(500)[:2]
        order = []
        fsync.gate = threading.Event()
        with GraphService(store, own_store=True, durability="batch") as service:
            sizes = store.wal_segment_sizes()
            fsync.armed = True
            futures = [service.insert_edges([edge])
                       for edge in (before, (666, 666), after)]
            for name, future in zip(("before", "refused", "after"), futures):
                future.add_done_callback(lambda _, name=name: order.append(name))
            assert stays_pending(*futures)
            fsync.gate.set()
            assert futures[0].result(timeout=30) == 1
            with pytest.raises(CapacityError):
                futures[1].result(timeout=30)
            assert futures[2].result(timeout=30) == 1
            fsync.armed = False
            assert order == ["before", "refused", "after"]
            assert service.durability_failed is None
            grown = [size for size, was in zip(store.wal_segment_sizes(), sizes)
                     if size > was]
            assert len(grown) == 2  # the refused record was rewound
            assert service.insert_edge(7, 70).result(timeout=30) is True
            summary = service.metrics_summary()
            assert (summary["group_commits"], summary["failed"]) == (3, 1)
        assert recovered_edges(tmp_path / "svc", tmp_path / "copy") == \
            sorted(warm + [before, after, (7, 70)])


def test_stress_blocking_clients_checkpoints_and_a_second_threads_barrier(tmp_path):
    """Four blocking clients on disjoint sources over 8 shards, checkpoints
    every few dozen commits, and another thread hammering the replication
    barrier: one fsync per (commit, touched segment) pair plus one per segment
    per checkpoint, however the threads interleave; follower == primary ==
    disk == oracle and nothing left unacknowledged."""
    shards, clients, requests = 8, 4, 150
    inner = ShardedCuckooGraph(num_shards=shards)
    store = PersistentStore(tmp_path / "svc", store=inner, sync_on_commit=False,
                            compact_wal_bytes=1 << 10, own_store=True)
    touched = []  # segments per commit, counted where the dispatcher commits
    spy_on_commits(store, lambda edges: touched.append(len(inner.partition_edges(edges))))
    service = GraphService(store, own_store=True, durability="batch", replicas=1)
    client = GraphClient(service.start(), close_service=True)
    primary = service.replication.primary
    oracles = [set() for _ in range(clients)]
    mutations = [0] * clients
    failures = []
    stop = threading.Event()
    deadline = time.monotonic() + 120

    def blocking_client(index):
        rng = random.Random(20251001 + index)
        mine = oracles[index]
        try:
            for _ in range(requests):
                assert time.monotonic() < deadline, "stress run overran its time bound"
                edge = (rng.randrange(40) * clients + index, rng.randrange(12))
                draw = rng.random()
                if draw < 0.5:
                    assert client.insert_edge(*edge) == (edge not in mine)
                    mine.add(edge)
                    mutations[index] += 1
                elif draw < 0.65:
                    assert client.delete_edge(*edge) == (edge in mine)
                    mine.discard(edge)
                    mutations[index] += 1
                elif draw < 0.85:
                    assert client.has_edge(*edge) == (edge in mine)
                else:
                    assert sorted(client.successors(edge[0])) == \
                        sorted(v for u, v in mine if u == edge[0])
        except BaseException as error:  # reported by the main thread
            failures.append(error)

    def hammer():
        try:
            while not stop.is_set():
                primary.sync_and_pump()
        except BaseException as error:
            failures.append(error)

    threads = [threading.Thread(target=blocking_client, args=(index,),
                                name=f"stress-client-{index}")
               for index in range(clients)]
    barrier = threading.Thread(target=hammer, name="stress-barrier")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        barrier.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        stop.set()
        barrier.join(timeout=30)
        sys.setswitchinterval(interval)
    try:
        assert not barrier.is_alive() and not any(t.is_alive() for t in threads)
        assert failures == []
        oracle = set().union(*oracles)
        summary = store.persistence_summary()
        assert summary["compactions"] >= 5
        assert service.metrics_summary()["group_commits"] == len(touched) <= sum(mutations)
        assert summary["wal_syncs"] == sum(touched) + shards * summary["compactions"]
        follower = service.replication.followers[0]
        assert client.has_edge(0, 0) == ((0, 0) in oracle)  # a last barrier
        assert set(follower.store.edges()) == set(store.edges()) == oracle
    finally:
        client.close()
    assert not service._unacked and not service._writing
    replayed = recover(tmp_path / "svc", store=ShardedCuckooGraph(num_shards=shards))
    assert set(replayed.edges()) == oracle
    replayed.close()
