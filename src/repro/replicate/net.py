"""TCP transport for replication: the log-shipping stream over a socket.

The in-process transport hands the primary and its follower two ends of a
queue; this module hands them two ends of a TCP connection, which is what
lets a replica live in another process (or another machine) and what makes
``promote()`` a real failover primitive instead of a same-process trick.

Wire format.  Every message is framed exactly like a WAL record on disk
(:data:`~repro.persist.wal.FRAME_HEADER`: 4-byte length + 4-byte CRC32 of
the payload) -- the replication stream *is* the log, so it ships in the
log's clothes.  The payload starts with a one-byte message type:

* ``MSG_RECORD`` -- a :class:`RecordShipment`: a ``<BQIQQ`` header
  (type, commit_index, segment, generation, end_offset) followed by the
  operations in the WAL op codec (:func:`~repro.persist.wal.encode_ops`).
* ``MSG_BUMP`` -- a :class:`GenerationBump`: ``<BQQ``.
* ``MSG_HELLO`` -- follower -> server greeting carrying its node id.
* ``MSG_SNAPSHOT_CHUNK`` / ``MSG_BACKFILL`` / ``MSG_ATTACHED`` -- the
  bootstrap: the server streams the primary's snapshot *file* in chunks
  (object-storage-shaped -- a remote follower never touches the primary's
  filesystem), then every already-shipped record, then the attach stamp
  (commit index, generation, per-segment offsets).
* ``MSG_PING`` / ``MSG_PONG`` -- follower-initiated heartbeat; the pong
  carries ``logged_commit_index`` so a remote replica measures real lag.
* ``MSG_DETACH`` -- graceful goodbye from the follower.

Topology.  :class:`ReplicationServer` wraps a :class:`Primary` and accepts
connections; each accepted connection becomes a
:class:`~repro.replicate.primary.ChannelSubscriber` wrapping a
:class:`_ServerChannel` (the ``send`` half of :class:`ReplicationChannel`).
:class:`RemoteFollower` is a :class:`Follower` whose constructor performs
the bootstrap handshake and then consumes a :class:`SocketChannel` (the
``receive`` half, whose reader thread invokes the listener per arrival --
so ``wait_for`` barriers sleep, they do not poll).  Together the pair
plays the :class:`ReplicationTransport` role across processes.

Concurrency rule (same as ``Primary.attach``): do not mutate or checkpoint
the primary's store while a follower is bootstrapping.  The server holds
``Primary.lock`` across the entire bootstrap (sync + pump + snapshot +
backfill + subscribe), which serialises it against ``pump`` -- but a group
commit *between* lock acquisitions is fine and simply ships through the
channel afterwards.

Failure model.  Loss is handled by re-attaching, never by repair: a dead
socket surfaces as a closed channel (the reader thread closes it, waking
any blocked barrier -- the close-notifies contract), the primary evicts
the dead subscriber mid-broadcast and keeps shipping to the rest, and a
crashed follower reconnects with a fresh store.
"""

from __future__ import annotations

import os
import queue
import socket
import struct
import tempfile
import threading
import time
import zlib
from typing import Callable, Optional, Tuple, Union

from ..core.errors import ReplicationError
from ..interfaces import DynamicGraphStore
from ..persist import (
    FRAME_HEADER,
    SNAPSHOT_NAME,
    apply_record,
    decode_ops,
    encode_frame,
    encode_ops,
)
from ..persist.snapshot import load_snapshot
from .follower import Follower
from .primary import Primary
from .transport import GenerationBump, RecordShipment, ReplicationChannel

MSG_RECORD = 1
MSG_BUMP = 2
MSG_HELLO = 3
MSG_SNAPSHOT_CHUNK = 4
MSG_BACKFILL = 5
MSG_ATTACHED = 6
MSG_PING = 7
MSG_PONG = 8
MSG_DETACH = 9

_RECORD_HEAD = struct.Struct("<BQIQQ")   # type, commit_index, segment, generation, end_offset
_BUMP = struct.Struct("<BQQ")            # type, commit_index, generation
_HELLO = struct.Struct("<Bq")            # type, node_id
_ATTACHED_HEAD = struct.Struct("<BQQI")  # type, commit_index, generation, num_segments
_PONG = struct.Struct("<BQ")             # type, logged_commit_index

_PING_PAYLOAD = bytes([MSG_PING])
_DETACH_PAYLOAD = bytes([MSG_DETACH])

#: Snapshot bytes per bootstrap frame.
SNAPSHOT_CHUNK_BYTES = 64 * 1024

#: How often a server connection handler re-checks liveness while idle.
_HANDLER_POLL_S = 0.2

#: Default handshake timeout for a connecting follower (seconds).
DEFAULT_CONNECT_TIMEOUT_S = 10.0


# ---------------------------------------------------------------------- #
# Codec
# ---------------------------------------------------------------------- #

def encode_message(message) -> bytes:
    """Serialise a stream message (record or bump) into a frame payload."""
    if isinstance(message, RecordShipment):
        return _RECORD_HEAD.pack(
            MSG_RECORD, message.commit_index, message.segment,
            message.generation, message.end_offset) + encode_ops(message.ops)
    if isinstance(message, GenerationBump):
        return _BUMP.pack(MSG_BUMP, message.commit_index, message.generation)
    raise ReplicationError(f"cannot encode replication message {message!r}")


def decode_message(payload: bytes):
    """Parse a frame payload back into the dataclass that was sent."""
    kind = payload[0]
    if kind == MSG_RECORD:
        _, commit_index, segment, generation, end_offset = \
            _RECORD_HEAD.unpack_from(payload)
        return RecordShipment(
            commit_index=commit_index, segment=segment, generation=generation,
            ops=tuple(decode_ops(payload[_RECORD_HEAD.size:])),
            end_offset=end_offset)
    if kind == MSG_BUMP:
        _, commit_index, generation = _BUMP.unpack(payload)
        return GenerationBump(commit_index=commit_index, generation=generation)
    raise ReplicationError(f"unknown replication message type {kind}")


class _Idle(Exception):
    """A timed-out read that caught the socket between frames (not an error)."""


def _read_exact(sock: socket.socket, n: int, *, idle_signal: bool = False) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ReplicationError`.

    With ``idle_signal``, a timeout that lands *between* frames (zero bytes
    read so far) raises :class:`_Idle` so the caller can run its liveness
    checks; a timeout mid-frame keeps reading -- a frame, once started, is
    finished or the connection is declared dead.
    """
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except socket.timeout:
            if idle_signal and not buf:
                raise _Idle() from None
            if idle_signal:
                continue
            raise ReplicationError(
                "timed out reading from the replication peer") from None
        except OSError as exc:
            raise ReplicationError(f"replication socket died: {exc}") from None
        if not chunk:
            raise ReplicationError("replication peer closed the connection")
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(sock: socket.socket, *, idle_signal: bool = False) -> bytes:
    """Read one CRC-checked frame; raises like :func:`_read_exact`."""
    header = _read_exact(sock, FRAME_HEADER.size, idle_signal=idle_signal)
    length, crc = FRAME_HEADER.unpack(header)
    payload = _read_exact(sock, length, idle_signal=idle_signal)
    if zlib.crc32(payload) != crc:
        raise ReplicationError("replication frame failed its checksum")
    return payload


# ---------------------------------------------------------------------- #
# Channels
# ---------------------------------------------------------------------- #

class SocketChannel(ReplicationChannel):
    """Follower-side channel: a reader thread feeds an in-memory queue.

    The reader decodes each arriving frame; stream messages land in the
    queue and invoke the listener (barriers sleep on the arrival condition,
    the network wakes them), pongs route to the primary handle.  Any read
    error -- reset, EOF, checksum -- closes the channel, and ``close()``
    notifies, so a blocked ``wait_for`` raises the detached error within
    one wake instead of sleeping out its timeout.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = False
        self._close_lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._reader: Optional[threading.Thread] = None
        # Late-bound by RemoteFollower: record/pong observers on the handle.
        self._on_record: Optional[Callable[[int], None]] = None
        self._on_pong: Optional[Callable[[int], None]] = None

    def start(self) -> None:
        """Start the reader thread (after the listener is registered)."""
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-replica-reader", daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            while not self._closed:
                payload = _recv_frame(self._sock)
                kind = payload[0]
                if kind in (MSG_RECORD, MSG_BUMP):
                    message = decode_message(payload)
                    self._queue.put(message)
                    if kind == MSG_RECORD and self._on_record is not None:
                        self._on_record(message.commit_index)
                    self._notify_listener()
                elif kind == MSG_PONG:
                    _, index = _PONG.unpack(payload)
                    if self._on_pong is not None:
                        self._on_pong(index)
                # Anything else on an attached stream is a protocol error,
                # but tolerated: unknown types are skipped, not fatal.
        except ReplicationError:
            pass
        finally:
            self.close()  # idempotent; wakes any blocked barrier

    def send(self, message) -> None:
        raise ReplicationError(
            "SocketChannel is the consumer end; only the primary ships")

    def send_payload(self, payload: bytes) -> None:
        """Write one control frame (ping, detach) up the same socket."""
        if self._closed:
            raise ReplicationError("cannot write on a closed replication channel")
        with self._write_lock:
            try:
                self._sock.sendall(encode_frame(payload))
            except OSError as exc:
                self.close()
                raise ReplicationError(
                    f"replication socket died: {exc}") from None

    def receive(self):
        try:
            return self._queue.get_nowait()
        except queue.Empty:
            return None

    def _close(self) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass

    @property
    def closed(self) -> bool:
        return self._closed


class _ServerChannel(ReplicationChannel):
    """Primary-side channel: ``send`` writes one frame per message.

    A write failure marks the channel closed and raises
    :class:`ReplicationError` -- which is exactly what ``Primary._broadcast``
    treats as "this replica died": it evicts the subscriber and keeps
    shipping to the rest.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._closed = False
        self._write_lock = threading.Lock()

    def send(self, message) -> None:
        self.send_payload(encode_message(message))

    def send_payload(self, payload: bytes) -> None:
        if self._closed:
            raise ReplicationError("cannot ship on a closed replication channel")
        with self._write_lock:
            try:
                self._sock.sendall(encode_frame(payload))
            except OSError as exc:
                self._closed = True
                raise ReplicationError(
                    f"follower connection died: {exc}") from None

    def _close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Shutdown (not close) so the handler thread blocked in recv wakes
        # with EOF and runs its own cleanup; it owns the final close.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    @property
    def closed(self) -> bool:
        return self._closed


# ---------------------------------------------------------------------- #
# Server (primary side)
# ---------------------------------------------------------------------- #

class ReplicationServer:
    """Accepts follower connections for a :class:`Primary` and serves them.

    Each connection is bootstrapped (snapshot file stream + backfill +
    attach stamp) under ``primary.lock`` -- atomically with its
    subscription, so no record can land between backfill and subscribe --
    and then answers heartbeats until the follower detaches or dies.  The
    owner keeps driving the primary exactly as before (``sync_and_pump``
    after mutations); records fan out to remote subscribers the same way
    they reach in-process followers.
    """

    def __init__(self, primary: Primary, host: str = "127.0.0.1",
                 port: int = 0):
        self._primary = primary
        self._listener = socket.create_server((host, port))
        # Closing a listening socket does not wake a thread blocked in
        # accept(); poll with a short timeout so close() is prompt.
        self._listener.settimeout(_HANDLER_POLL_S)
        self._address = self._listener.getsockname()[:2]
        self._closed = False
        self._lock = threading.Lock()
        self._conns: list = []
        self._threads: list = []
        #: Connections that completed the bootstrap handshake.
        self.attaches = 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-replication-accept",
            daemon=True)
        self._accept_thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` a :class:`RemoteFollower` connects to."""
        return self._address

    @property
    def primary(self) -> Primary:
        return self._primary

    @property
    def closed(self) -> bool:
        return self._closed

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve, args=(conn,),
                name="repro-replication-conn", daemon=True)
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._conns.append(conn)
                self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        subscriber = None
        channel = None
        try:
            conn.settimeout(DEFAULT_CONNECT_TIMEOUT_S)
            hello = _recv_frame(conn)
            if hello[0] != MSG_HELLO:
                raise ReplicationError("replication client did not say hello")
            with self._primary.lock:
                # Cursor == disk, then stream the whole prefix and subscribe
                # while still holding the lock: nothing ships in between.
                self._primary.sync_and_pump()
                self._stream_bootstrap(conn)
                channel = _ServerChannel(conn)
                subscriber = self._primary.subscribe_channel(channel)
            self.attaches += 1
            conn.settimeout(_HANDLER_POLL_S)
            while not self._closed and not channel.closed:
                try:
                    payload = _recv_frame(conn, idle_signal=True)
                except _Idle:
                    continue
                kind = payload[0]
                if kind == MSG_PING:
                    channel.send_payload(_PONG.pack(
                        MSG_PONG, self._primary.logged_commit_index))
                elif kind == MSG_DETACH:
                    break
        except (ReplicationError, OSError):
            pass
        finally:
            if subscriber is not None:
                if not self._primary.closed:
                    self._primary.detach(subscriber)
                else:
                    subscriber._disconnect()
            elif channel is not None:
                channel.close()
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)
                # Appended before start(), so it is always there: a handler
                # leaves no dead Thread behind for close() to join.
                self._threads.remove(threading.current_thread())

    def _stream_bootstrap(self, conn: socket.socket) -> None:
        """Snapshot file chunks, then shipped records, then the attach stamp."""
        snapshot = self._primary.path / SNAPSHOT_NAME
        if snapshot.exists():
            with open(snapshot, "rb") as file:
                while True:
                    chunk = file.read(SNAPSHOT_CHUNK_BYTES)
                    if not chunk:
                        break
                    conn.sendall(encode_frame(
                        bytes([MSG_SNAPSHOT_CHUNK]) + chunk))
        for ops in self._primary.shipped_records():
            conn.sendall(encode_frame(bytes([MSG_BACKFILL]) + encode_ops(ops)))
        offsets = self._primary.position.offsets
        stamp = _ATTACHED_HEAD.pack(
            MSG_ATTACHED, self._primary.commit_index,
            self._primary.generation, len(offsets))
        if offsets:
            stamp += struct.pack(f"<{len(offsets)}Q", *offsets)
        conn.sendall(encode_frame(stamp))

    def close(self) -> None:
        """Stop accepting, drop every connection, join the threads.  Idempotent.

        The primary itself is left open (the server never owned it); its
        remote subscribers are detached as their handlers unwind.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
            threads = list(self._threads)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=5.0)
        self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ReplicationServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# Remote follower (client side)
# ---------------------------------------------------------------------- #

class RemotePrimaryHandle:
    """Follower-side stand-in for the primary across the wire.

    Quacks like :class:`Primary` as far as :class:`Follower` cares:
    ``logged_commit_index`` (the newest index the wire has advertised, via
    record headers and pong replies -- so ``lag()`` measures against what
    the primary *says* it logged) and ``detach`` (a goodbye frame, then the
    local disconnect).  ``ping`` is the heartbeat the failover manager
    drives; ``last_contact`` timestamps every proof of life.
    """

    def __init__(self, channel: SocketChannel, *, attached_index: int):
        self._channel = channel
        self._advertised = attached_index
        self._lock = threading.Lock()
        self._pong = threading.Event()
        self._last_contact = time.monotonic()

    @property
    def logged_commit_index(self) -> int:
        return self._advertised

    @property
    def last_contact(self) -> float:
        """``time.monotonic()`` of the last frame that proved the primary alive."""
        return self._last_contact

    @property
    def closed(self) -> bool:
        return self._channel.closed

    def _observe(self, index: int) -> None:
        with self._lock:
            if index > self._advertised:
                self._advertised = index
            self._last_contact = time.monotonic()

    def _observe_pong(self, index: int) -> None:
        self._observe(index)
        self._pong.set()

    def ping(self, timeout: float = 1.0) -> int:
        """Round-trip a heartbeat; return the primary's logged commit index.

        Raises :class:`ReplicationError` when the connection is closed or
        the primary does not answer within ``timeout`` -- the health signal
        an election is built on.
        """
        if self._channel.closed:
            raise ReplicationError("primary connection is closed")
        self._pong.clear()
        self._channel.send_payload(_PING_PAYLOAD)
        if not self._pong.wait(timeout):
            raise ReplicationError(
                f"primary did not answer a ping within {timeout}s")
        return self._advertised

    def detach(self, follower) -> None:
        try:
            if not self._channel.closed:
                self._channel.send_payload(_DETACH_PAYLOAD)
        except ReplicationError:
            pass  # goodbye is best-effort; the close below is what matters
        follower._disconnect()


class RemoteFollower(Follower):
    """A :class:`Follower` attached to a :class:`ReplicationServer` over TCP.

    The constructor performs the whole attach: connect, greet with
    ``node_id``, receive the snapshot as a file stream (written to a
    temporary file, loaded, deleted -- the follower never touches the
    primary's directory), apply the backfill records, take the attach
    stamp, and start the reader thread.  After that it behaves exactly like
    an in-process follower: pull-based ``poll``/``wait_for``, real
    ``lag()`` (against the primary's *advertised* logged index), the same
    ``promote()`` fencing.

    Args:
        address: The server's ``(host, port)``.
        node_id: This replica's identity in an election (lowest live id
            wins); also what the server sees in the hello.
        connect_timeout: Handshake timeout, seconds.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        store: Optional[DynamicGraphStore] = None,
        scheme: Union[str, Callable[[], DynamicGraphStore]] = "sharded",
        *,
        node_id: int = 0,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT_S,
        own_store: Optional[bool] = None,
    ):
        super().__init__(store, scheme, own_store=own_store)
        self.node_id = node_id
        try:
            sock = socket.create_connection(tuple(address),
                                            timeout=connect_timeout)
        except OSError as exc:
            raise ReplicationError(
                f"cannot reach replication server at {address}: {exc}"
            ) from None
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            sock.settimeout(connect_timeout)
            sock.sendall(encode_frame(_HELLO.pack(MSG_HELLO, node_id)))
            commit_index, generation, offsets = self._bootstrap(sock)
        except Exception:
            sock.close()
            raise
        sock.settimeout(None)
        channel = SocketChannel(sock)
        handle = RemotePrimaryHandle(channel, attached_index=commit_index)
        channel._on_record = handle._observe
        channel._on_pong = handle._observe_pong
        self._connect(handle, channel, commit_index=commit_index,
                      generation=generation, offsets=offsets)
        channel.start()  # reader only runs once the listener is registered

    def _bootstrap(self, sock: socket.socket) -> Tuple[int, int, tuple]:
        """Consume the bootstrap stream; return the attach stamp."""
        snapshot_file = None
        snapshot_path = None

        def finalize_snapshot() -> None:
            nonlocal snapshot_file
            if snapshot_file is None:
                return
            snapshot_file.close()
            snapshot_file = None
            try:
                load_snapshot(snapshot_path, self._store)
            finally:
                os.unlink(snapshot_path)

        try:
            while True:
                payload = _recv_frame(sock)
                kind = payload[0]
                if kind == MSG_SNAPSHOT_CHUNK:
                    if snapshot_file is None:
                        fd, snapshot_path = tempfile.mkstemp(
                            prefix="repro-bootstrap-", suffix=".snapshot")
                        snapshot_file = os.fdopen(fd, "wb")
                    snapshot_file.write(payload[1:])
                elif kind == MSG_BACKFILL:
                    finalize_snapshot()
                    apply_record(self._store, decode_ops(payload[1:]))
                elif kind == MSG_ATTACHED:
                    finalize_snapshot()
                    _, commit_index, generation, segments = \
                        _ATTACHED_HEAD.unpack_from(payload)
                    offsets: tuple = ()
                    if segments:
                        offsets = struct.unpack_from(
                            f"<{segments}Q", payload, _ATTACHED_HEAD.size)
                    return commit_index, generation, offsets
                else:
                    raise ReplicationError(
                        f"unexpected message type {kind} during bootstrap")
        finally:
            if snapshot_file is not None:
                snapshot_file.close()
                os.unlink(snapshot_path)

    def ping(self, timeout: float = 1.0) -> int:
        """Heartbeat the primary through this follower's connection."""
        if self._primary is None:
            raise ReplicationError("follower is detached")
        return self._primary.ping(timeout)

    @property
    def last_contact(self) -> Optional[float]:
        """When the primary last proved itself alive (``None`` if detached)."""
        if self._primary is None:
            return None
        return self._primary.last_contact
