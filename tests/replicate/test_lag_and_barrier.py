"""Regressions: honest lag accounting and a non-spinning wait_for barrier.

Two bugs pinned here, both exposed by driving replication from the
process-backed service work:

* ``Follower.lag()`` used to measure against the primary's *shipped*
  ``commit_index``, so a primary that committed without pumping reported a
  perfectly fresh replica (lag 0) while the follower was genuinely behind.
  The fix measures against ``Primary.logged_commit_index`` -- committed
  group commits, shipped or still buffered -- which is the same quantity
  ``ServiceMetrics`` already counts as replica staleness.

* ``Follower.wait_for`` used to busy-wait: a tight ``poll()`` loop burning
  a core for the whole barrier.  It now sleeps on a condition variable that
  the channel's send hook and every apply notify, waking promptly when the
  awaited commit arrives -- with the timeout and detached-mid-wait errors
  unchanged.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import CuckooGraph, ShardedCuckooGraph
from repro.core.errors import ReplicationError
from repro.persist import PersistentStore
from repro.replicate import Follower, Primary

from ..persist.test_group_commit import SHARDS, edges_on_every_shard


def make_pair(tmp_path):
    store = PersistentStore(
        tmp_path / "primary",
        store=CuckooGraph(),
        own_store=True,
        sync_on_commit=True,
        compact_wal_bytes=None,
    )
    primary = Primary(store)
    follower = Follower(store=CuckooGraph())
    primary.attach(follower)
    return store, primary, follower


class TestLagCountsUnshippedCommits:
    def test_commit_without_pump_shows_nonzero_lag(self, tmp_path):
        """A committed-but-unshipped write is real staleness, not lag 0."""
        store, primary, follower = make_pair(tmp_path)
        try:
            assert follower.lag() == 0
            store.insert_edges([(1, 2), (3, 4)])
            store.insert_edge(5, 6)
            # Two group commits logged, nothing pumped: the replica cannot
            # have them yet, and lag() must say exactly how far behind it is.
            assert primary.commit_index == 0
            assert primary.logged_commit_index == 2
            assert follower.lag() == 2

            primary.pump()
            assert follower.lag() == 2  # shipped but not yet applied
            follower.poll()
            assert follower.lag() == 0
        finally:
            follower.close()
            primary.close()
            store.close()

    def test_lag_counts_records_not_commits(self, tmp_path):
        """``commit_index`` counts records -- one per segment a commit
        touched -- so what is logged and unshipped must be counted the same
        way: one 4-segment batch behind an fsync is lag 4, not lag 1."""
        shards = SHARDS
        store = PersistentStore(
            tmp_path / "primary", store=ShardedCuckooGraph(num_shards=shards),
            own_store=True, sync_on_commit=False, compact_wal_bytes=None)
        primary = Primary(store)
        follower = Follower(store=ShardedCuckooGraph(num_shards=shards))
        primary.attach(follower)
        try:
            batch = edges_on_every_shard(1)
            store.insert_edges(batch)  # one commit, buffered behind its fsync
            store.insert_edge(*batch[0][::-1])
            assert store.commits == 2
            assert primary.pump() == 0
            assert primary.logged_commit_index == shards + 1
            assert follower.lag() == shards + 1

            store.sync()
            assert follower.lag() == shards + 1  # durable, not yet shipped
            assert primary.pump() == shards + 1
            assert follower.lag() == shards + 1  # shipped, not yet applied
            follower.poll(max_records=3)
            assert follower.lag() == shards + 1 - 3
            follower.poll()
            assert follower.lag() == 0
            assert primary.logged_commit_index == primary.commit_index == shards + 1
        finally:
            follower.close()
            primary.close()
            store.close()

    def test_lag_zero_when_detached(self, tmp_path):
        store, primary, follower = make_pair(tmp_path)
        try:
            store.insert_edge(1, 2)
            primary.detach(follower)
            assert follower.lag() == 0
        finally:
            follower.close()
            primary.close()
            store.close()


class TestWaitForSleepsInsteadOfSpinning:
    def test_barrier_wakes_when_commit_arrives_from_another_thread(self, tmp_path):
        """wait_for blocked in one thread resolves promptly after a pump."""
        store, primary, follower = make_pair(tmp_path)
        reached: list[int] = []
        try:
            def barrier():
                reached.append(follower.wait_for(1, timeout=30.0))

            waiter = threading.Thread(target=barrier)
            waiter.start()
            time.sleep(0.15)  # the barrier is parked, nothing shipped yet
            assert not reached
            store.insert_edge(1, 2)
            primary.pump()  # send-side notification wakes the waiter
            waiter.join(timeout=10)
            assert not waiter.is_alive()
            assert reached == [1]
            assert follower.store.has_edge(1, 2)
        finally:
            follower.close()
            primary.close()
            store.close()

    def test_barrier_timeout_is_preserved(self, tmp_path):
        store, primary, follower = make_pair(tmp_path)
        try:
            started = time.monotonic()
            with pytest.raises(ReplicationError, match="barrier timed out"):
                follower.wait_for(1, timeout=0.2)
            elapsed = time.monotonic() - started
            assert 0.2 <= elapsed < 5.0
        finally:
            follower.close()
            primary.close()
            store.close()

    def test_detach_mid_wait_fails_fast_not_at_timeout(self, tmp_path):
        """Detaching while a barrier sleeps must error immediately."""
        store, primary, follower = make_pair(tmp_path)
        failures: list[ReplicationError] = []
        try:
            def barrier():
                try:
                    follower.wait_for(1, timeout=30.0)
                except ReplicationError as exc:
                    failures.append(exc)

            waiter = threading.Thread(target=barrier)
            waiter.start()
            time.sleep(0.15)
            primary.detach(follower)  # notifies the sleeping barrier
            waiter.join(timeout=10)
            assert not waiter.is_alive()
            assert len(failures) == 1
            assert "detached" in str(failures[0])
        finally:
            follower.close()
            primary.close()
            store.close()
