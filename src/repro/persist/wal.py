"""Binary write-ahead log with checksummed, length-framed group commits.

The durability idiom is the one the repo already models for LiveGraph's
Transactional Edge Log and Redis' AOF, promoted to a real subsystem: every
mutation is encoded into a compact binary record and appended to a log
*before* it is applied to the in-memory structure, so a crash can lose at
most the commits that never reached the disk.

Framing.  A log file starts with a 16-byte header -- an 8-byte magic plus
the 8-byte **generation** the segment was created or last truncated at
(see below) -- and then holds a sequence of records::

    +----------+----------+------------------+
    | length   | crc32    | payload          |
    | 4B <I    | 4B <I    | ``length`` bytes |
    +----------+----------+------------------+

One record is one **group commit**: the payload concatenates every
operation of one batched mutation call (``insert_edges`` of 500 edges is a
single record, a single ``fsync``).  The log itself never decides to
fsync: :class:`WriteAheadLog` appends and syncs on request, and the store
that owns the segments says when.  Each operation is an opcode byte plus
8-byte little-endian signed node identifiers (the paper uses 8-byte ids):
``insert``/``delete`` carry ``(u, v)``, ``insert_w`` carries
``(u, v, delta)`` for weighted stores.  :func:`encode_ops` is the format's
definition, one operation at a time; :func:`encode_edge_ops` produces the
same bytes for a whole group of same-kind edge operations in one packing
call, and is what the batch commit path uses.

Torn tails.  A crash mid-append leaves a final record whose header, payload
or checksum is incomplete.  :func:`read_wal_records` treats the first
structurally incomplete record as the end of the log -- the standard WAL
reading rule: it returns every complete record before that point plus the
byte offset up to which the file is valid, and
:func:`~repro.persist.store.recover` truncates the file there before
appending resumes.  Damage the reader *can* prove a crashed append never
produces -- a foreign magic header, a checksum mismatch on a record with
more data after it, an undecodable opcode inside a checksum-valid record --
raises :class:`~repro.core.errors.WalCorruptError` instead of being skipped.
(A corrupted *length* field that claims past end-of-file is structurally
indistinguishable from a torn tail and is treated as one.)

Generations.  Compaction must be crash-atomic: the snapshot is written (and
atomically renamed) first, then every segment is truncated.  A crash in
between would leave records on disk that the snapshot already contains --
replaying them would double-apply weighted deltas.  The generation stamp
closes that window: a checkpoint writes generation ``G`` into the snapshot
(the rename is the commit point) and then truncates each segment to a
header stamped ``G``; recovery skips -- and re-truncates -- any segment
whose generation is older than the snapshot's, because its content is by
construction already folded in.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.errors import PersistenceError, WalCorruptError

#: Magic identifying a CuckooGraph WAL segment (8 bytes, versioned).
WAL_MAGIC = b"CKGRWAL1"

#: Generation stamp following the magic (see module docstring).
_GENERATION = struct.Struct("<Q")

#: Total file-header size: magic + generation.
WAL_HEADER_SIZE = len(WAL_MAGIC) + _GENERATION.size

#: Record header: payload length + CRC32 of the payload.
_RECORD_HEADER = struct.Struct("<II")

#: The record framing, public: the replication socket transport reuses it
#: as its wire frame (length-prefixed, CRC-checked), so a network message
#: is framed exactly like a WAL record.
FRAME_HEADER = _RECORD_HEADER


def encode_frame(payload: bytes) -> bytes:
    """Frame ``payload`` the way a WAL record is framed on disk."""
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload

#: Opcode byte values used in record payloads.
OP_INSERT = 1
OP_DELETE = 2
OP_INSERT_WEIGHTED = 3

#: Logical operation tags as they appear in op tuples.
INSERT = "insert"
DELETE = "delete"
INSERT_WEIGHTED = "insert_w"

_EDGE_OP = struct.Struct("<Bqq")
_WEIGHTED_OP = struct.Struct("<Bqqq")

#: ``op tag -> (opcode, struct)`` for the encoder.
_ENCODERS = {
    INSERT: (OP_INSERT, _EDGE_OP),
    DELETE: (OP_DELETE, _EDGE_OP),
    INSERT_WEIGHTED: (OP_INSERT_WEIGHTED, _WEIGHTED_OP),
}

#: The two-field operations :func:`encode_edge_ops` packs by the group.
_EDGE_OPCODES = {INSERT: OP_INSERT, DELETE: OP_DELETE}

#: ``opcode -> (tag, struct)`` for the decoder.
_DECODERS = {
    OP_INSERT: (INSERT, _EDGE_OP),
    OP_DELETE: (DELETE, _EDGE_OP),
    OP_INSERT_WEIGHTED: (INSERT_WEIGHTED, _WEIGHTED_OP),
}

#: An op tuple: ``("insert"|"delete", u, v)`` or ``("insert_w", u, v, delta)``.
Op = tuple


@dataclass(frozen=True)
class WalPosition:
    """An exact group-commit cut through a store directory's WAL segments.

    ``offsets[i]`` is the absolute byte offset just past the last included
    record of segment ``i`` (``WAL_HEADER_SIZE`` for "nothing included");
    ``generation`` is the checkpoint generation the offsets are relative to
    -- a position taken before a compaction is meaningless afterwards, and
    consumers (:func:`~repro.persist.store.recover` with ``upto=``) refuse
    it.  Because every operation on a source node lands in that node's own
    segment, any per-segment prefix set is a consistent state: replaying the
    segments up to these offsets, in any order, reproduces exactly the state
    a follower had when it reported the position.
    """

    generation: int
    offsets: Tuple[int, ...]

    @property
    def segments(self) -> int:
        return len(self.offsets)


def fsync_directory(directory: os.PathLike | str) -> None:
    """Make a file creation or rename in ``directory`` itself durable.

    ``open(..., "ab")`` and ``os.replace`` update a directory entry; on
    common filesystems that entry is not on disk until the *directory* is
    fsynced.  Segment creation, snapshots and manifests all go through
    this, so a power loss cannot lose a file whose contents were already
    fsynced, nor resurrect a pre-rename file after later fsynced writes
    survived.
    """
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def encode_ops(ops: Iterable[Op]) -> bytes:
    """Serialise a group commit's operations into one record payload."""
    parts: list[bytes] = []
    for op in ops:
        tag = op[0]
        try:
            opcode, packer = _ENCODERS[tag]
        except KeyError:
            raise PersistenceError(f"unknown WAL operation tag {tag!r}") from None
        parts.append(packer.pack(opcode, *op[1:]))
    return b"".join(parts)


#: Edge ops packed per :func:`encode_edge_ops` call; a longer group is cut
#: into chunks of this many, which bounds the layouts :func:`_edge_ops_struct`
#: ever compiles.
EDGE_OPS_CHUNK = 256


@lru_cache(maxsize=EDGE_OPS_CHUNK)
def _edge_ops_struct(count: int) -> struct.Struct:
    """``count`` back-to-back ``_EDGE_OP`` layouts as one ``Struct``."""
    return struct.Struct("<" + "Bqq" * count)


def encode_edge_ops(tag: str, edges: Sequence[Tuple[int, int]]) -> bytes:
    """Serialise one shard group of same-kind edge operations.

    Byte-identical to ``encode_ops((tag, u, v) for u, v in edges)`` for
    ``tag`` in ``("insert", "delete")``, but the whole group goes through
    one ``Struct.pack`` call (one per :data:`EDGE_OPS_CHUNK` edges) instead
    of one per operation -- the group commit of a batch mutation encodes
    per-shard groups of exactly this shape.
    """
    try:
        opcode = _EDGE_OPCODES[tag]
    except KeyError:
        raise PersistenceError(f"{tag!r} is not an edge operation tag") from None
    count = len(edges)
    if count <= 1:
        return _EDGE_OP.pack(opcode, *edges[0]) if count else b""
    fields = [opcode] * (3 * count)
    fields[1::3], fields[2::3] = zip(*edges)
    if count <= EDGE_OPS_CHUNK:
        return _edge_ops_struct(count).pack(*fields)
    step = 3 * EDGE_OPS_CHUNK
    return b"".join(
        _edge_ops_struct(len(chunk) // 3).pack(*chunk)
        for chunk in (fields[start:start + step]
                      for start in range(0, len(fields), step))
    )


def decode_ops(payload: bytes) -> List[Op]:
    """Parse one record payload back into its operation tuples.

    Raises :class:`WalCorruptError` on an unknown opcode or a truncated
    operation; the payload has already passed its CRC, so either means the
    record was written by something other than :func:`encode_ops`.
    """
    ops: List[Op] = []
    offset = 0
    length = len(payload)
    while offset < length:
        opcode = payload[offset]
        entry = _DECODERS.get(opcode)
        if entry is None:
            raise WalCorruptError(f"unknown WAL opcode {opcode} at payload offset {offset}")
        tag, packer = entry
        end = offset + packer.size
        if end > length:
            raise WalCorruptError(f"truncated WAL operation at payload offset {offset}")
        fields = packer.unpack_from(payload, offset)
        ops.append((tag, *fields[1:]))
        offset = end
    return ops


def read_wal_records(
    path: os.PathLike | str,
) -> Tuple[int | None, List[Tuple[List[Op], int]], int]:
    """Read a WAL segment, tolerating a torn final record.

    Returns ``(generation, records, valid_length)``: the generation stamped
    in the segment header (``None`` if no complete header exists), one
    ``(ops, end_offset)`` pair per complete group-commit record in append
    order (``end_offset`` is the byte offset just past the record), and the
    byte offset up to which the file holds complete records.
    ``valid_length`` is what recovery truncates the file to before
    appending resumes.  A missing or empty file yields ``(None, [], 0)``; a
    partially written header (torn initial create) also yields
    ``(None, [], 0)``.  A *wrong* magic raises :class:`WalCorruptError`.
    """
    path = Path(path)
    if not path.exists():
        return None, [], 0
    with open(path, "rb") as file:
        head = file.read(WAL_HEADER_SIZE)
        if len(head) < len(WAL_MAGIC):
            if WAL_MAGIC.startswith(head):
                return None, [], 0  # torn header write: no commit ever completed
            raise WalCorruptError(f"{path} does not start with a WAL magic header")
        if head[: len(WAL_MAGIC)] != WAL_MAGIC:
            raise WalCorruptError(f"{path} has a foreign magic header")
        if len(head) < WAL_HEADER_SIZE:
            return None, [], 0  # generation stamp torn mid-create
        generation = _GENERATION.unpack_from(head, len(WAL_MAGIC))[0]
        data = file.read()

    records: List[Tuple[List[Op], int]] = []
    offset = 0
    total = len(data)
    while True:
        header_end = offset + _RECORD_HEADER.size
        if header_end > total:
            break  # torn record header
        length, crc = _RECORD_HEADER.unpack_from(data, offset)
        payload_end = header_end + length
        if payload_end > total:
            break  # torn payload
        payload = data[header_end:payload_end]
        if zlib.crc32(payload) != crc:
            if payload_end == total:
                break  # torn final record: checksum never completed
            raise WalCorruptError(
                f"{path}: checksum mismatch in a non-final record at "
                f"offset {WAL_HEADER_SIZE + offset}"
            )
        records.append((decode_ops(payload), WAL_HEADER_SIZE + payload_end))
        offset = payload_end
    return generation, records, WAL_HEADER_SIZE + offset


class WriteAheadLog:
    """Append-only log of group-commit records for one WAL segment.

    Args:
        path: Segment file; created (with its header) on first append.
        generation: Stamp written into the header of a *fresh* segment; an
            existing segment keeps the generation already on disk.

    Appending never fsyncs.  A record is buffered by :meth:`append_payload`
    and becomes durable at the next :meth:`sync` -- *when* that happens is
    the caller's decision (:class:`~repro.persist.store.PersistentStore`
    makes it: per commit, or per service group commit).  ``sync`` is
    :meth:`begin_sync` (hand the records to the OS, on the appending thread)
    followed by :meth:`finish_sync` (the ``fsync`` itself, which releases the
    GIL and may therefore run on a helper thread while the caller works).

    Every ``begin_sync`` (and every rewind or truncation, which fsync on the
    spot) is one numbered **sync round**; :attr:`sync_ticket` names the round
    that makes everything appended so far durable and :meth:`synced` says
    whether it has returned.  Rounds only count up, so a ticket stays valid
    across a failed fsync (a later round covers it) and across a rewind that
    hands the same byte offsets out again.

    The file handle is opened lazily, so a log constructed purely to *read*
    (recovery) never takes a second writer on the segment.
    """

    def __init__(self, path: os.PathLike | str, generation: int = 0):
        self.path = Path(path)
        self.generation = generation
        self._file = None
        self._closed = False
        self._dirty = False  # appended records not yet handed to an fsync
        self._rounds = 0  # sync rounds begun
        self._synced_round = 0  # newest round whose fsync is known to have returned
        self._round_lock = threading.Lock()  # rounds begin and return on several threads
        self._size = self.path.stat().st_size if self.path.exists() else 0
        #: Group-commit records appended through this handle.
        self.records_appended = 0
        #: fsync calls issued (syncs, rewinds and truncations).
        self.syncs = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def size_bytes(self) -> int:
        """Current segment size in bytes (header included)."""
        return self._size

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_open(self):
        if self._closed:
            raise PersistenceError(f"WAL segment {self.path} is closed")
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self._size >= WAL_HEADER_SIZE:
                with open(self.path, "rb") as existing:
                    header = existing.read(WAL_HEADER_SIZE)
                if header[: len(WAL_MAGIC)] != WAL_MAGIC:
                    raise WalCorruptError(f"{self.path} has a foreign magic header")
                self.generation = _GENERATION.unpack_from(header, len(WAL_MAGIC))[0]
            created = not self.path.exists()
            self._file = open(self.path, "ab")
            if created:
                # The new directory entry must be durable before any record
                # in the file is: otherwise a power loss could drop the
                # whole segment while recovery still finds the manifest and
                # silently reports the (fsynced!) commits as never made.
                fsync_directory(self.path.parent)
            if self._size < WAL_HEADER_SIZE:
                # Fresh (or torn-at-create) segment: (re)write the header.
                self._file.truncate(0)
                self._file.write(WAL_MAGIC + _GENERATION.pack(self.generation))
                self._file.flush()
                self._size = WAL_HEADER_SIZE
        return self._file

    def close(self) -> None:
        """Flush, fsync unsynced records and release the segment.

        Idempotent and terminal.
        """
        if self._closed:
            return
        try:
            if self._file is not None:
                self.sync()
        finally:
            self._closed = True
            if self._file is not None:
                self._file.close()
                self._file = None

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def append_batch(self, ops: Iterable[Op]) -> int:
        """Encode ``ops`` and append them as one group-commit record."""
        return self.append_payload(encode_ops(ops))

    def append_payload(self, payload: bytes) -> int:
        """Append one already-encoded group-commit record; return its size.

        The record is buffered, not synced (see the class docstring).  An
        empty payload is a no-op (nothing to make durable), so callers can
        pass mutation batches through without special-casing.
        """
        if not payload:
            return 0
        file = self._ensure_open()
        record = _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        file.write(record)
        self._size += len(record)
        self.records_appended += 1
        self._dirty = True
        return len(record)

    def begin_sync(self) -> Optional[int]:
        """Hand every unsynced record to the OS; return the descriptor to fsync.

        ``None`` when nothing is unsynced, so a multi-segment store's group
        commit costs one fsync per segment the batch actually *touched*, not
        one per shard.  Otherwise the caller owes exactly one
        :meth:`finish_sync` on the returned descriptor; the records count as
        handed over from here on (a second ``begin_sync`` returns ``None``
        until something new is appended or that fsync fails).
        """
        if self._closed:
            raise PersistenceError(f"WAL segment {self.path} is closed")
        if not self._dirty:
            return None
        self._file.flush()
        self._dirty = False
        with self._round_lock:
            self._rounds += 1
        self.syncs += 1
        return self._file.fileno()

    def finish_sync(self, fd: int) -> None:
        """``fsync`` a descriptor :meth:`begin_sync` returned (any thread).

        On an ``OSError`` the records are unsynced again -- the next
        :meth:`sync` or :meth:`close` retries -- and the error propagates.
        """
        covers = self._rounds  # every round begun by now flushed before this fsync
        try:
            os.fsync(fd)
        except OSError:
            self._dirty = True
            raise
        with self._round_lock:
            if covers > self._synced_round:
                self._synced_round = covers

    @property
    def sync_ticket(self) -> int:
        """The sync round that makes every record appended so far durable."""
        return self._rounds + self._dirty

    def synced(self, ticket: int) -> bool:
        """Whether the fsync of round ``ticket``, or of a later one, has returned."""
        return self._synced_round >= ticket

    def _synced_in_place(self) -> None:
        """A rewind or truncation just fsynced the whole file: a finished round."""
        with self._round_lock:
            self._rounds += 1
            self._synced_round = self._rounds
        self.syncs += 1
        self._dirty = False

    def sync(self) -> None:
        """Make every appended record durable, on the calling thread."""
        fd = self.begin_sync()
        if fd is not None:
            self.finish_sync(fd)

    def rewind_to(self, size: int) -> None:
        """Drop everything appended past byte offset ``size``.

        Compensation hook for a write-ahead caller whose *apply* step failed
        after the record was already logged: truncating the freshly appended
        tail keeps the log a faithful record of what the store accepted.
        (``records_appended``/``syncs`` count attempts and are not rewound.)
        """
        if self._closed:
            raise PersistenceError(f"WAL segment {self.path} is closed")
        if self._file is None or size >= self._size:
            return
        self._file.flush()
        self._file.truncate(size)
        os.fsync(self._file.fileno())
        self._synced_in_place()
        self._size = size

    def truncate(self, generation: int | None = None) -> None:
        """Drop every record, leaving an empty (header-only) segment.

        Called after a snapshot has captured the store state the records
        rebuilt; ``generation`` (when given) re-stamps the header with the
        snapshot's generation, which is what lets recovery prove a
        not-yet-truncated sibling segment is stale (see module docstring).
        """
        # Open first: _ensure_open adopts the generation of an existing
        # on-disk header, and the explicit re-stamp must win over that (a
        # lazily-unopened segment would otherwise be truncated under its
        # *old* generation and every later commit dropped as stale).
        file = self._ensure_open()
        if generation is not None:
            self.generation = generation
        file.truncate(0)
        file.write(WAL_MAGIC + _GENERATION.pack(self.generation))
        file.flush()
        os.fsync(file.fileno())
        self._synced_in_place()
        self._size = WAL_HEADER_SIZE
