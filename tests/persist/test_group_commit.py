"""The commit pipeline: partition -> append -> syncs in flight beside the
apply -> join -> compact.  Thread lifecycle, what each failure leaves
behind (the three cases the ``repro.persist.store`` docstring documents),
and one stress run against a second thread's ``sync()`` calls."""

import os
import random
import shutil
import sys
import threading
import time

import pytest

from repro import ShardedCuckooGraph
from repro.core.sharded import shard_index
from repro.persist import (
    INSERT,
    PersistentStore,
    WriteAheadLog,
    encode_edge_ops,
    encode_frame,
    recover,
)

from .test_persistent_store import _PoisonStore

SHARDS = 4


def sync_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("wal-sync")]


def edges_on_every_shard(count, num_shards=SHARDS, start=1):
    """``count`` edges per shard, so a batch of them touches every segment."""
    per_shard = {index: [] for index in range(num_shards)}
    node = start
    while any(len(group) < count for group in per_shard.values()):
        group = per_shard[shard_index(node, num_shards)]
        if len(group) < count:
            group.append((node, node + 1))
        node += 1
    return [edge for group in per_shard.values() for edge in group]


def edges_on_one_shard(count, shard=0, num_shards=SHARDS):
    nodes = (node for node in range(1, 10**6)
             if shard_index(node, num_shards) == shard)
    return [(next(nodes), 7) for _ in range(count)]


def sharded_store(path, **kwargs):
    return PersistentStore(path, store=ShardedCuckooGraph(num_shards=SHARDS),
                           own_store=True, compact_wal_bytes=None, **kwargs)


class TestSyncPoolLifecycle:
    def test_threads_start_with_the_first_overlapped_commit_and_end_with_close(
            self, tmp_path):
        before = threading.enumerate()
        store = sharded_store(tmp_path / "s")
        store.insert_edge(1, 2)
        store.delete_edge(1, 2)
        store.sync()
        # Constructing, single-op commits and an idle sync() start nothing.
        assert threading.enumerate() == before
        store.insert_edges(edges_on_every_shard(3))
        helpers = sync_threads()
        assert len(helpers) == SHARDS
        store.insert_edges(edges_on_every_shard(3, start=10_000))
        assert sync_threads() == helpers  # reused, not re-created
        store.close()
        assert threading.enumerate() == before

    def test_group_commit_store_syncs_a_lone_dirty_segment_inline(self, tmp_path):
        before = threading.enumerate()
        store = sharded_store(tmp_path / "s", sync_on_commit=False)
        store.insert_edges(edges_on_one_shard(5))
        store.sync()
        assert threading.enumerate() == before
        store.insert_edges(edges_on_every_shard(2))
        store.sync()  # four dirty segments: the caller takes one, helpers three
        assert len(sync_threads()) == SHARDS
        assert store.persistence_summary()["wal_syncs"] == 1 + SHARDS
        store.close()
        assert threading.enumerate() == before

    def test_ephemeral_and_recovered_stores_join_their_pools(self, tmp_path):
        before = threading.enumerate()
        ephemeral = PersistentStore(store=ShardedCuckooGraph(num_shards=SHARDS),
                                    own_store=True)
        ephemeral.insert_edges(edges_on_every_shard(2))
        assert sync_threads()
        ephemeral.close()
        assert threading.enumerate() == before

        sharded_store(tmp_path / "s").close()
        recovered = recover(tmp_path / "s", store=ShardedCuckooGraph(num_shards=SHARDS))
        assert threading.enumerate() == before  # replay itself is threadless
        recovered.insert_edges(edges_on_every_shard(2))
        assert sync_threads()
        recovered.close()
        assert threading.enumerate() == before

    def test_spawn_empty_shares_nothing_with_its_parent(self, tmp_path):
        before = threading.enumerate()
        parent = sharded_store(tmp_path / "s")
        parent.insert_edges(edges_on_every_shard(2))
        parent_threads = sync_threads()
        child = parent.spawn_empty()
        assert sync_threads() == parent_threads  # spawning starts nothing
        child.insert_edges(edges_on_every_shard(2))
        child_threads = [t for t in sync_threads() if t not in parent_threads]
        assert child_threads
        parent.close()
        assert sync_threads() == child_threads  # the child's pool is its own
        assert child.insert_edges(edges_on_every_shard(2, start=10_000)) == 2 * SHARDS
        child.close()
        assert threading.enumerate() == before


class _FsyncProbe:
    """Stand-in for ``repro.persist.wal.os.fsync``: counts the calls made
    while armed, holds them until ``gate`` (an ``Event``) is set -- only the
    calls numbered in ``gated``, when that is given -- then fails the
    ``fail_at``-th of them and holds the others for ``hold`` seconds, so
    "returned only after the others" is observable."""

    def __init__(self, fail_at=None, hold=0.0, gate=None, gated=None):
        self.real = os.fsync
        self.fail_at = fail_at
        self.hold = hold
        self.gate = gate
        self.gated = gated
        self.armed = False
        self.lock = threading.Lock()
        self.calls = 0
        self.returned = 0
        self.events = []

    def __call__(self, fd):
        if not self.armed:
            return self.real(fd)
        with self.lock:
            self.calls += 1
            mine = self.calls
        if self.gate is not None and (self.gated is None or mine in self.gated):
            assert self.gate.wait(timeout=30), "nobody opened the fsync gate"
        if mine == self.fail_at:
            raise OSError(5, "synthetic fsync failure")
        time.sleep(self.hold)
        self.real(fd)
        with self.lock:
            self.returned += 1
            self.events.append("fsync-returned")


class TestFailureSemantics:
    @pytest.mark.parametrize("fail_at", [1, 2, 4])
    def test_fsync_error_surfaces_after_the_other_syncs_and_rewinds_nothing(
            self, tmp_path, monkeypatch, fail_at):
        probe = _FsyncProbe(fail_at=fail_at, hold=0.05)
        monkeypatch.setattr("repro.persist.wal.os.fsync", probe)
        store = sharded_store(tmp_path / "s")
        store.insert_edges(edges_on_every_shard(2))  # segments exist, pool is up
        batch = edges_on_every_shard(3, start=50_000)

        probe.armed = True
        with pytest.raises(OSError, match="synthetic fsync failure"):
            store.insert_edges(batch)
        probe.armed = False
        # The error reached us only after the three other syncs had returned.
        assert (probe.calls, probe.returned) == (SHARDS, SHARDS - 1)

        # The batch was applied beside the syncs, so its records must stay:
        # whatever memory holds, the log holds.
        assert all(store.has_edges(batch))
        store.sync()  # the failed segment is unsynced again; this retries it
        copy = tmp_path / "copy"
        shutil.copytree(tmp_path / "s", copy, ignore=shutil.ignore_patterns("lock"))
        replayed = recover(copy, store=ShardedCuckooGraph(num_shards=SHARDS))
        assert set(replayed.edges()) >= set(store.edges())
        replayed.close()

        # The store is still usable, and close() leaves no worker behind.
        assert store.insert_edges(edges_on_every_shard(1, start=90_000)) == SHARDS
        store.close()
        assert sync_threads() == []

    def test_single_op_fsync_error_surfaces_after_the_apply_and_the_feed_entry(
            self, tmp_path, monkeypatch):
        """The inline shortcut fails the way a helper does: the record stays
        in the log, so the edge must reach memory and the feed (held back)."""
        probe = _FsyncProbe(fail_at=1)
        monkeypatch.setattr("repro.persist.wal.os.fsync", probe)
        store = sharded_store(tmp_path / "s")
        store.insert_edges(edges_on_every_shard(1))  # creating a segment fsyncs too
        store.subscribe_feed()
        sizes = store.wal_segment_sizes()
        helpers = sync_threads()

        probe.armed = True
        with pytest.raises(OSError, match="synthetic fsync failure"):
            store.insert_edge(7, 8)
        probe.armed = False
        assert (probe.calls, probe.returned) == (1, 0)
        assert store.has_edge(7, 8)
        assert sum(store.wal_segment_sizes()) > sum(sizes)
        assert store.feed_backlog == 1 and store.take_feed() == []

        store.sync()  # retries the fsync: the entry leaves the feed, once
        assert [entry[2] for entry in store.take_feed()] == [(("insert", 7, 8),)]
        assert store.take_feed() == [] and store.feed_backlog == 0
        assert sync_threads() == helpers  # one dirty segment: synced inline
        copy = tmp_path / "copy"
        shutil.copytree(tmp_path / "s", copy, ignore=shutil.ignore_patterns("lock"))
        replayed = recover(copy, store=ShardedCuckooGraph(num_shards=SHARDS))
        assert replayed.has_edge(7, 8)
        replayed.close()
        store.close()

    def test_failed_apply_rewinds_every_touched_segment_after_the_syncs(
            self, tmp_path, monkeypatch):
        probe = _FsyncProbe(hold=0.02)
        monkeypatch.setattr("repro.persist.wal.os.fsync", probe)
        rewind_to = WriteAheadLog.rewind_to

        def spied_rewind(wal, size):
            probe.events.append("rewind")
            rewind_to(wal, size)

        monkeypatch.setattr(WriteAheadLog, "rewind_to", spied_rewind)
        inner = ShardedCuckooGraph(num_shards=SHARDS, shard_factory=_PoisonStore)
        store = PersistentStore(tmp_path / "s", store=inner, own_store=True,
                                compact_wal_bytes=None)
        accepted = edges_on_every_shard(2)
        store.insert_edges(accepted)
        sizes = store.wal_segment_sizes()
        commits = store.commits

        batch = edges_on_every_shard(3, start=50_000)
        batch[len(batch) // 2] = (666, 666)  # the edge _PoisonStore refuses
        probe.armed = True
        with pytest.raises(RuntimeError, match="synthetic"):
            store.insert_edges(batch)
        probe.armed = False
        # Four syncs were joined, then four rewinds (one fsync each) ran.
        assert probe.events == \
            ["fsync-returned"] * SHARDS + ["rewind", "fsync-returned"] * SHARDS
        assert store.wal_segment_sizes() == sizes
        assert [path.stat().st_size for path in store.segment_paths] == sizes
        assert store.commits == commits
        store.close()
        # Only the accepted commit replays -- into stock shards, cleanly.
        replayed = recover(tmp_path / "s", store=ShardedCuckooGraph(num_shards=SHARDS))
        assert sorted(replayed.edges()) == sorted(accepted)
        replayed.close()

    @pytest.mark.parametrize("batch", [edges_on_every_shard(5, start=300),
                                       edges_on_one_shard(6),
                                       edges_on_one_shard(1)],
                             ids=["four-segments", "one-segment", "one-op"])
    def test_record_is_in_the_segment_files_before_the_apply_starts(
            self, tmp_path, batch):
        store = sharded_store(tmp_path / "s")
        store.insert_edges(edges_on_every_shard(1))
        inner = store.store
        expected = {index: encode_frame(encode_edge_ops(INSERT, group))
                    for index, group in inner.partition_edges(batch).items()}
        seen = []

        def spy(groups):
            for index, record in expected.items():
                assert store.segment_paths[index].read_bytes().endswith(record)
            seen.append(set(groups))
            return ShardedCuckooGraph.insert_groups(inner, groups)

        inner.insert_groups = spy
        syncs = store.persistence_summary()["wal_syncs"]
        assert store.insert_edges(batch) == len(batch)
        assert seen == [set(expected)]
        # Acknowledged => durable: every touched segment was synced, once.
        assert store.persistence_summary()["wal_syncs"] == syncs + len(expected)
        assert all(wal.begin_sync() is None for wal in store._wals)
        store.close()


def test_stress_commits_against_a_second_threads_syncs(tmp_path):
    """A few hundred 8-shard commits while another thread hammers sync().

    Every segment's records are handed to exactly one fsync: ``wal_syncs``
    is the number of (commit, touched segment) pairs plus one per segment
    per truncation, however the two threads interleave, and the log replays
    to the oracle.
    """
    shards, commits = 8, 300
    rng = random.Random(20250928)
    inner = ShardedCuckooGraph(num_shards=shards)
    store = PersistentStore(tmp_path / "s", store=inner, own_store=True,
                            sync_on_commit=True, compact_wal_bytes=1 << 13)
    oracle = set()
    expected_syncs = 0
    stop = threading.Event()
    failures = []
    calls = [0]

    def hammer():
        try:
            while not stop.is_set():
                store.sync()
                calls[0] += 1
        except BaseException as error:  # reported by the main thread
            failures.append(error)

    syncer = threading.Thread(target=hammer, name="stress-syncer")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    deadline = time.monotonic() + 60
    try:
        syncer.start()
        for _ in range(commits):
            assert time.monotonic() < deadline, "stress run overran its time bound"
            batch = [(rng.randrange(1, 400), rng.randrange(1, 50))
                     for _ in range(rng.randrange(2, 24))]
            expected_syncs += len(inner.partition_edges(batch))
            if rng.random() < 0.3:
                store.delete_edges(batch)
                oracle.difference_update(batch)
            else:
                store.insert_edges(batch)
                oracle.update(batch)
    finally:
        stop.set()
        syncer.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not syncer.is_alive()
    assert failures == [] and calls[0] > 0

    summary = store.persistence_summary()
    assert summary["compactions"] > 0
    assert summary["wal_syncs"] == expected_syncs + shards * summary["compactions"]
    closer = threading.Thread(target=store.close, name="stress-closer")
    closer.start()
    closer.join(timeout=30)
    assert not closer.is_alive()
    assert sync_threads() == []

    replayed = recover(tmp_path / "s", store=ShardedCuckooGraph(num_shards=shards))
    assert set(replayed.edges()) == oracle
    replayed.close()
