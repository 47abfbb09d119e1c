"""Checksummed binary snapshots of a store's logical edge set.

A snapshot captures what the WAL would rebuild -- the *logical* content of a
:class:`~repro.interfaces.DynamicGraphStore`, not its physical layout -- so
recovery can load it into a fresh store of **any** registered scheme and
then replay only the WAL records appended since.  Three store families are
recognised:

* **weighted** stores (anything exposing ``weighted_edges``) snapshot
  ``(u, v, w)`` triples, so duplicate-edge counts survive a restart;
* **multi-edge** stores (anything exposing ``edge_multiplicity``) snapshot
  the pair multiplicities the same way -- parallel-edge identifiers are
  regenerated on load, multiplicity is preserved;
* everything else snapshots plain ``(u, v)`` pairs.

Format v2 (magic ``CKGRSNP2``), all integers little-endian::

    magic     8 bytes
    header    kind (u8), rows (u64), sources (u64), generation (u64),
              CRC32 of the stored body (u32)
    CRC32 of the header fields above (u32)
    body      zlib (level 1) of the source-major columns:
                sources       the distinct sources, ascending    (i64 each)
                degrees       each source's row count            (u32 each)
                destinations  every row's destination, in (u, v) order (i64)
                weights       weighted kind only: the weight or
                              multiplicity of each row           (i64 each)

Why columns: the rows are sorted, so a row-major file repeats a source id
once per destination -- half of every plain row.  Naming each source once
with its degree removes that, and lines every destination up in one run,
where a popular destination recurs as the same 8 bytes for the compressor to
find.  Why zlib level 1: on a 48 000-edge power-law graph over random
62-bit ids it takes the columns from 9.4 to 4.95 bytes per edge (zlib over
the rows themselves: 6.0), in about 5 ms per 40 000 rows, and ``zlib`` is in
the standard library; level 6 is 4 % smaller for twice the time, level 9 no
smaller than that for four times it, on every checkpoint.

Every byte after the magic is checked before a row is built: the header by
its own CRC (so a flipped generation cannot pass for a newer checkpoint and
make recovery skip live WAL segments as stale), the compressed body by its
CRC, then the decompressed length against ``rows`` and ``sources``, and the
degrees against ``rows``.  The columns come from the sorted rows of
:func:`snapshot_rows` (``edges()`` / ``weighted_edges()``), never from
per-source reads such as ``successors_many``: on a
:class:`~repro.tiered.TieredStore` those count touches, and a checkpoint
must not steer tier placement.

Format v1 (``CKGRSNP1``: kind, rows, generation and body CRC, then the rows
packed row by row) is still *read*, so a directory checkpointed by an older
version recovers; it is never written.  Its header fields are outside every
checksum and cannot be verified -- the first checkpoint after an upgrade
replaces the file with a v2 one.

The file is written to a temporary sibling and atomically renamed into
place, so a crash during snapshotting leaves the previous snapshot untouched
(:func:`~repro.persist.store.recover` deletes the orphaned temporary file); a
file that fails validation therefore raises
:class:`~repro.core.errors.SnapshotCorruptError` instead of being tolerated
the way a torn WAL tail is.

:class:`CompactionPolicy` is the size trigger that ties the two halves of
the subsystem together: once the WAL grows past a threshold, the store
snapshots itself and truncates the log, bounding both recovery time and
disk usage.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from ..core.errors import SnapshotCorruptError
from ..interfaces import DynamicGraphStore
from .wal import fsync_directory

#: Magic header identifying a CuckooGraph snapshot (8 bytes, versioned).
SNAPSHOT_MAGIC = b"CKGRSNP2"

#: Snapshot kinds: plain distinct edges vs weight/multiplicity triples.
KIND_PLAIN = 0
KIND_WEIGHTED = 1

#: Columns a row holds besides its source, by kind (the known kinds).
_VALUE_COLUMNS = {KIND_PLAIN: 1, KIND_WEIGHTED: 2}

#: kind, rows, sources, generation, CRC32 of the stored body.
_HEADER = struct.Struct("<BQQQI")
_HEADER_CRC = struct.Struct("<I")
_PREFIX = len(SNAPSHOT_MAGIC) + _HEADER.size + _HEADER_CRC.size
_COMPRESSION_LEVEL = 1

_V1_MAGIC = b"CKGRSNP1"
_V1_HEADER = struct.Struct("<BQQI")  # kind, rows, generation, CRC32 of the body


def snapshot_rows(store: DynamicGraphStore) -> Tuple[int, List[tuple]]:
    """The ``(kind, rows)`` a snapshot of ``store`` should contain."""
    weighted_edges = getattr(store, "weighted_edges", None)
    if callable(weighted_edges) and store.weighted:
        return KIND_WEIGHTED, sorted(weighted_edges())
    multiplicity = getattr(store, "edge_multiplicity", None)
    if callable(multiplicity):
        return KIND_WEIGHTED, sorted((u, v, multiplicity(u, v)) for u, v in store.edges())
    return KIND_PLAIN, sorted(store.edges())


def write_snapshot(path: os.PathLike | str, store: DynamicGraphStore,
                   generation: int = 0) -> int:
    """Serialise ``store``'s logical edge set to ``path``; return the row count.

    The write is atomic (temporary file + ``os.replace``), so ``path`` only
    ever holds a complete snapshot.  ``generation`` is the checkpoint
    counter that makes compaction crash-atomic: the rename is the commit
    point, and WAL segments stamped with an *older* generation are known to
    be folded into this snapshot already (see :mod:`repro.persist.wal`).
    """
    path = Path(path)
    kind, rows = snapshot_rows(store)
    # The rows are sorted, so a Counter over their sources (insertion-ordered)
    # holds the distinct sources, ascending, with their degrees.  Columns are
    # taken out of the rows by C-level maps -- half the cost of a zip(*rows)
    # transpose -- and packed in one call.
    degrees = Counter(map(itemgetter(0), rows))
    values = [map(itemgetter(column), rows) for column in range(1, 1 + _VALUE_COLUMNS[kind])]
    columns = struct.pack(
        f"<{len(degrees)}q{len(degrees)}I{len(rows) * len(values)}q",
        *degrees, *degrees.values(), *chain.from_iterable(values))
    body = zlib.compress(columns, _COMPRESSION_LEVEL)
    fields = _HEADER.pack(kind, len(rows), len(degrees), generation, zlib.crc32(body))
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as file:
        file.write(SNAPSHOT_MAGIC + fields + _HEADER_CRC.pack(zlib.crc32(fields)))
        file.write(body)
        file.flush()
        os.fsync(file.fileno())
    os.replace(temp, path)
    fsync_directory(path.parent)
    return len(rows)


def _header(path: Path, head: bytes) -> Tuple[int, int, int, int, int]:
    """The checked fields of a v2 header: ``(kind, rows, sources,
    generation, body_crc)``."""
    if head[:len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotCorruptError(f"{path} does not start with a snapshot magic header")
    if len(head) < _PREFIX:
        raise SnapshotCorruptError(f"{path} is shorter than a snapshot header")
    fields = head[len(SNAPSHOT_MAGIC):_PREFIX - _HEADER_CRC.size]
    if zlib.crc32(fields) != _HEADER_CRC.unpack_from(head, _PREFIX - _HEADER_CRC.size)[0]:
        raise SnapshotCorruptError(f"{path} failed its header checksum")
    kind, count, sources, generation, crc = _HEADER.unpack(fields)
    if kind not in _VALUE_COLUMNS:
        raise SnapshotCorruptError(f"{path} declares unknown snapshot kind {kind}")
    return kind, count, sources, generation, crc


def _v1_header(path: Path, head: bytes) -> Tuple[int, int, int, int]:
    """The fields of a v1 header, ``(kind, rows, generation, body_crc)``;
    nothing covers them."""
    if len(head) < len(_V1_MAGIC) + _V1_HEADER.size:
        raise SnapshotCorruptError(f"{path} is shorter than a snapshot header")
    return _V1_HEADER.unpack_from(head, len(_V1_MAGIC))


def _read_v1(path: Path, data: bytes) -> Tuple[int, int, List[tuple]]:
    """Format v1, read only: the header, then ``rows`` rows packed one by one."""
    kind, count, generation, crc = _v1_header(path, data)
    row = struct.Struct("<qqq" if kind == KIND_WEIGHTED else "<qq")
    body = data[len(_V1_MAGIC) + _V1_HEADER.size:]
    if kind not in _VALUE_COLUMNS or len(body) != count * row.size or zlib.crc32(body) != crc:
        raise SnapshotCorruptError(f"{path} failed its v1 kind, length or body check")
    return kind, generation, list(row.iter_unpack(body))


def read_snapshot(path: os.PathLike | str) -> Tuple[int, int, List[tuple]]:
    """Read and validate a snapshot; return ``(kind, generation, rows)``.

    Raises :class:`SnapshotCorruptError` -- and no other error -- when the
    magic, the header checksum, the body checksum, the decompression, the
    column lengths or the degree sum does not hold: snapshots are atomically
    replaced, so none of that is ever the signature of a crash.  A v1 file
    is read too; its header cannot be checked.
    """
    path = Path(path)
    data = path.read_bytes()
    if data[:len(_V1_MAGIC)] == _V1_MAGIC:
        return _read_v1(path, data)
    kind, count, sources, generation, crc = _header(path, data)
    body = memoryview(data)[_PREFIX:]
    if zlib.crc32(body) != crc:
        raise SnapshotCorruptError(f"{path} failed its body checksum")
    try:
        columns = zlib.decompress(body)
    except zlib.error as error:
        raise SnapshotCorruptError(f"{path}: the body does not decompress ({error})") from None
    width = _VALUE_COLUMNS[kind]
    if len(columns) != 12 * sources + 8 * width * count:
        raise SnapshotCorruptError(
            f"{path} declares {count} rows over {sources} sources but carries "
            f"{len(columns)} column bytes"
        )
    degrees = struct.unpack_from(f"<{sources}I", columns, 8 * sources)
    if sum(degrees) != count:
        raise SnapshotCorruptError(
            f"{path}: the degrees of its {sources} sources do not sum to its {count} rows"
        )
    source_column = chain.from_iterable(
        map(repeat, struct.unpack_from(f"<{sources}q", columns), degrees))
    values = [struct.unpack_from(f"<{count}q", columns, 12 * sources + 8 * count * index)
              for index in range(width)]
    return kind, generation, list(zip(source_column, *values))


def snapshot_generation(path: os.PathLike | str) -> int:
    """The checkpoint generation stamped in a snapshot's header (0 if absent).

    Reads only the header -- the body is left to :func:`read_snapshot` -- so
    cursor/position validation against the current checkpoint baseline stays
    cheap on large snapshots; the header checksum is verified, so what it
    returns is what the checkpoint wrote.  A v1 header is returned unchecked.
    """
    path = Path(path)
    if not path.exists():
        return 0
    with open(path, "rb") as file:
        head = file.read(_PREFIX)
    if head[:len(_V1_MAGIC)] == _V1_MAGIC:
        return _v1_header(path, head)[2]
    return _header(path, head)[3]


def load_snapshot(path: os.PathLike | str, store: DynamicGraphStore) -> Tuple[int, int]:
    """Load a snapshot into a fresh ``store``; return ``(rows, generation)``.

    A missing file loads zero rows at generation 0 (a store that never
    compacted has no snapshot, only WAL).  Weighted rows are applied
    through ``insert_weighted_edge`` when the target is ``weighted``; a
    multi-edge target gets one ``insert_edge`` per unit of multiplicity; a
    plain target collapses each triple to a single distinct edge.
    """
    path = Path(path)
    if not path.exists():
        return 0, 0
    kind, generation, rows = read_snapshot(path)
    if kind == KIND_PLAIN:
        store.insert_edges(rows)
        return len(rows), generation
    weighted = store.weighted
    multi_edge = callable(getattr(store, "edge_multiplicity", None))
    for u, v, weight in rows:
        if weighted:
            store.insert_weighted_edge(u, v, weight)
        elif multi_edge:
            for _ in range(weight):
                store.insert_edge(u, v)
        else:
            store.insert_edge(u, v)
    return len(rows), generation


@dataclass(frozen=True)
class CompactionEvent:
    """What a checkpoint is about to fold away, reported *before* truncation.

    Whoever follows the log (a replication primary, an incremental
    :func:`~repro.persist.store.replay_into` probe) keeps a byte position
    into each segment; truncation moves the segments out from under that
    position.  This event closes the window: it fires after the store state
    is final for the checkpoint but before the snapshot rename and the
    segment truncations, carrying the generation the segments still hold
    (``generation``), the generation the checkpoint will commit
    (``new_generation``), and the pre-truncation end offset of every
    segment (``wal_offsets``, buffered-but-unsynced appends included) -- so
    a subscriber can ship or fold everything up to those offsets and then
    treat the generation bump as a clean cursor reset instead of silently
    losing its position mid-stream.
    """

    path: Path
    generation: int
    new_generation: int
    wal_offsets: Tuple[int, ...]


@dataclass(frozen=True)
class CompactionPolicy:
    """When to fold the WAL into a snapshot and truncate it.

    ``max_wal_bytes=None`` disables compaction (the log grows forever,
    which the crash-recovery tests rely on to keep every commit visible).

    Subscribers registered with :meth:`subscribe` are called with a
    :class:`CompactionEvent` every time a checkpoint is about to truncate
    the WAL -- threshold-triggered *and* explicit
    :meth:`~repro.persist.store.PersistentStore.checkpoint` calls both --
    which is how a log follower keeps its cursor valid across compactions.
    """

    max_wal_bytes: Optional[int] = 1 << 20
    subscribers: List[Callable[[CompactionEvent], None]] = field(
        default_factory=list, compare=False, repr=False
    )

    def should_compact(self, wal_bytes: int) -> bool:
        """Whether a log of ``wal_bytes`` total bytes warrants compaction."""
        return self.max_wal_bytes is not None and wal_bytes > self.max_wal_bytes

    def subscribe(self, callback: Callable[[CompactionEvent], None]) -> None:
        """Register ``callback`` to run before every WAL truncation."""
        self.subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[CompactionEvent], None]) -> None:
        """Remove a subscriber registered with :meth:`subscribe` (idempotent)."""
        if callback in self.subscribers:
            self.subscribers.remove(callback)

    def notify(self, event: CompactionEvent) -> None:
        """Deliver ``event`` to every subscriber, in registration order."""
        for callback in list(self.subscribers):
            callback(event)
