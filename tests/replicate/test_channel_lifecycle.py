"""Regressions: the three channel-lifecycle bugs a real transport exposes.

All three stayed harmless as long as every follower lived in the primary's
process and channels only closed through ``Follower._disconnect``.  A
socket transport breaks that assumption -- a peer can die without any
orderly teardown -- and each bug becomes a hang, a lie, or a lost record:

* ``ReplicationChannel.close()`` never notified the registered listener,
  so a ``wait_for`` barrier blocked on a *notifying* channel slept out its
  full timeout when the transport dropped underneath it.  ``close()`` now
  wakes the listener in the base class, and ``wait_for`` re-checks
  ``closed`` after every wake.
* ``Primary._broadcast`` evicted a dead-channel follower with a bare
  ``_followers.remove``, leaving the follower a stale ``_primary``
  reference: its ``lag()`` kept measuring against a primary that no longer
  shipped to it, and its ``close()`` later detached from a primary that
  had already forgotten it.  Eviction now goes through the full
  ``detach()``.
* One failing ``channel.send()`` mid-broadcast propagated out of
  ``pump()`` with ``commit_index`` already advanced, aborting shipment to
  every follower later in fan-out order.  Send errors are now isolated
  per follower: the dead one is evicted, the rest keep receiving.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import CuckooGraph
from repro.core.errors import ReplicationError
from repro.persist import PersistentStore
from repro.replicate import Follower, Primary


def make_primary(tmp_path):
    store = PersistentStore(
        tmp_path / "primary",
        store=CuckooGraph(),
        own_store=True,
        sync_on_commit=True,
        compact_wal_bytes=None,
    )
    return store, Primary(store)


def attach_fresh(primary):
    follower = Follower(store=CuckooGraph())
    primary.attach(follower)
    return follower


class TestCloseNotifiesBlockedBarrier:
    def test_close_from_another_thread_wakes_wait_for_promptly(self, tmp_path):
        """A transport dying under a blocked barrier raises within a wake,
        not after the full barrier timeout."""
        store, primary = make_primary(tmp_path)
        follower = attach_fresh(primary)
        try:
            outcome = {}

            def blocked_reader():
                started = time.monotonic()
                try:
                    # Index 99 never arrives; only the close should end this.
                    follower.wait_for(99, timeout=30.0)
                except ReplicationError as exc:
                    outcome["error"] = str(exc)
                outcome["elapsed"] = time.monotonic() - started

            reader = threading.Thread(target=blocked_reader)
            reader.start()
            time.sleep(0.1)  # let the barrier actually block
            # The transport drops underneath the follower: no _disconnect,
            # no detach -- exactly what a socket reset looks like.
            follower._channel.close()
            reader.join(timeout=5.0)
            assert not reader.is_alive(), "barrier never woke after close()"
            assert "detached" in outcome["error"]
            # Well under the 30 s barrier timeout: the close itself woke it.
            assert outcome["elapsed"] < 2.0, outcome
        finally:
            follower.close()
            primary.close()
            store.close()


class TestDeadChannelEvictionFullyDisconnects:
    def test_evicted_follower_is_disconnected_not_orphaned(self, tmp_path):
        store, primary = make_primary(tmp_path)
        victim = attach_fresh(primary)
        survivor = attach_fresh(primary)
        try:
            # The victim's transport dies without any orderly teardown.
            victim._channel.close()
            store.insert_edge(1, 2)
            primary.sync_and_pump()

            assert victim not in primary.followers
            assert primary.evictions == 1
            # Full disconnect: no stale _primary reference, so lag() is the
            # honest detached 0 instead of measuring against a primary that
            # no longer ships here, and close() does not detach from a
            # primary that already forgot this follower.
            assert victim._primary is None
            assert victim._channel is None
            assert victim.lag() == 0
            victim.close()
            victim.close()  # idempotent even after the eviction

            # The survivor got the record the eviction interrupted nothing of.
            survivor.wait_for(primary.commit_index)
            assert survivor.store.has_edge(1, 2)
        finally:
            survivor.close()
            primary.close()
            store.close()


class TestBroadcastIsolatesSendErrors:
    def test_middle_follower_send_failure_does_not_abort_fanout(self, tmp_path):
        store, primary = make_primary(tmp_path)
        first = attach_fresh(primary)
        middle = attach_fresh(primary)
        last = attach_fresh(primary)
        try:
            # The middle channel fails on send (not closed -- closed is the
            # other eviction path): a socket whose peer reset mid-write.
            def dying_send(message):
                raise ReplicationError("connection reset by peer")

            middle._channel.send = dying_send
            store.insert_edge(3, 4)
            shipped = primary.sync_and_pump()  # must not raise
            assert shipped == 1
            assert primary.commit_index == 1

            # The dead replica was evicted (fully), the other two delivered.
            assert middle not in primary.followers
            assert middle._primary is None
            assert primary.evictions == 1
            first.wait_for(primary.commit_index)
            last.wait_for(primary.commit_index)
            assert first.store.has_edge(3, 4)
            assert last.store.has_edge(3, 4)
            assert first.commit_index == last.commit_index == 1
        finally:
            middle.close()
            first.close()
            last.close()
            primary.close()
            store.close()


class TestInProcessChannel:
    """The deque-backed pipe: FIFO, a dry poll returns ``None``, every send
    and the close each wake the listener once."""

    def test_fifo_poll_and_listener(self):
        from repro.replicate import InProcessChannel, InProcessTransport

        channel = InProcessTransport().connect()
        assert isinstance(channel, InProcessChannel)
        assert channel.receive() is None  # dry: no exception raised inside

        heard = []
        channel.set_listener(lambda: heard.append(1))
        for message in ("a", "b", "c"):
            channel.send(message)
        assert len(heard) == 3
        assert [channel.receive() for _ in range(3)] == ["a", "b", "c"]
        assert channel.receive() is None
        channel.send("d")
        assert channel.receive() == "d"
        assert len(heard) == 4

        channel.close()
        assert channel.closed and len(heard) == 5  # close notifies too
        with pytest.raises(ReplicationError, match="closed"):
            channel.send("after close")


class TestSocketChannel:
    """The follower end of the socket transport: its reader thread queues
    frames in arrival order, a dry poll returns ``None``, the consumer end
    refuses to ship, and a peer hang-up closes it and wakes the listener."""

    def test_fifo_poll_listener_and_peer_close(self):
        import socket

        from repro.persist import INSERT, encode_frame
        from repro.replicate import GenerationBump, RecordShipment
        from repro.replicate.net import SocketChannel, encode_message

        primary_end, follower_end = socket.socketpair()
        channel = SocketChannel(follower_end)
        arrivals = threading.Semaphore(0)
        heard = []

        def listener():
            heard.append(1)
            arrivals.release()

        channel.set_listener(listener)
        channel.start()
        try:
            assert channel.receive() is None
            messages = [
                RecordShipment(commit_index=index, segment=index % 2,
                               generation=0, ops=((INSERT, index, index + 1),),
                               end_offset=100 * index)
                for index in range(1, 4)
            ] + [GenerationBump(commit_index=3, generation=1)]
            for message in messages:
                primary_end.sendall(encode_frame(encode_message(message)))
            for _ in messages:
                assert arrivals.acquire(timeout=10)
            assert [channel.receive() for _ in messages] == messages
            assert channel.receive() is None
            with pytest.raises(ReplicationError, match="consumer end"):
                channel.send(messages[0])

            primary_end.close()
            assert arrivals.acquire(timeout=10)  # the close wakes it too
            assert channel.closed and len(heard) == len(messages) + 1
        finally:
            primary_end.close()
            channel.close()
            if channel._reader is not None:
                channel._reader.join(timeout=10)

    def test_corrupt_frame_closes_the_channel(self):
        import socket
        import zlib

        from repro.persist import FRAME_HEADER
        from repro.replicate.net import SocketChannel

        primary_end, follower_end = socket.socketpair()
        channel = SocketChannel(follower_end)
        closed = threading.Event()
        channel.set_listener(closed.set)
        channel.start()
        try:
            payload = b"\x01not a record"
            bad_crc = zlib.crc32(payload) ^ 1
            primary_end.sendall(FRAME_HEADER.pack(len(payload), bad_crc) + payload)
            assert closed.wait(10)
            assert channel.closed
            assert channel.receive() is None  # nothing half-decoded queued
        finally:
            primary_end.close()
            channel.close()
            channel._reader.join(timeout=10)
