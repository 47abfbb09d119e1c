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

Format: an 8-byte magic header, a fixed header (``kind`` byte, 8-byte row
count, 8-byte checkpoint generation, CRC32 of the body), then the packed
rows.  The file is written to a
temporary sibling and atomically renamed into place, so a crash during
snapshotting leaves the previous snapshot untouched; a file that fails
validation therefore raises
:class:`~repro.core.errors.SnapshotCorruptError` instead of being
tolerated the way a torn WAL tail is.

:class:`CompactionPolicy` is the size trigger that ties the two halves of
the subsystem together: once the WAL grows past a threshold, the store
snapshots itself and truncates the log, bounding both recovery time and
disk usage.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from ..core.errors import SnapshotCorruptError
from ..interfaces import DynamicGraphStore
from .wal import fsync_directory

#: Magic header identifying a CuckooGraph snapshot (8 bytes, versioned).
SNAPSHOT_MAGIC = b"CKGRSNP1"

#: Snapshot kinds: plain distinct edges vs weight/multiplicity triples.
KIND_PLAIN = 0
KIND_WEIGHTED = 1

_HEADER = struct.Struct("<BQQI")  # kind, row count, generation, CRC32 of the body
_PLAIN_ROW = struct.Struct("<qq")
_WEIGHTED_ROW = struct.Struct("<qqq")


def snapshot_rows(store: DynamicGraphStore) -> Tuple[int, List[tuple]]:
    """The ``(kind, rows)`` a snapshot of ``store`` should contain."""
    weighted_edges = getattr(store, "weighted_edges", None)
    if callable(weighted_edges) and getattr(store, "weighted", True):
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
    width = 3 if kind == KIND_WEIGHTED else 2
    # Rows are ``width`` little-endian 8-byte ids each, so the whole body is
    # one flat array of them: one pack call instead of one per row.
    body = struct.pack(f"<{width * len(rows)}q", *chain.from_iterable(rows))
    header = SNAPSHOT_MAGIC + _HEADER.pack(kind, len(rows), generation, zlib.crc32(body))
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as file:
        file.write(header)
        file.write(body)
        file.flush()
        os.fsync(file.fileno())
    os.replace(temp, path)
    fsync_directory(path.parent)
    return len(rows)


def read_snapshot(path: os.PathLike | str) -> Tuple[int, int, List[tuple]]:
    """Read and validate a snapshot; return ``(kind, generation, rows)``.

    Raises :class:`SnapshotCorruptError` when the magic header, row count or
    body checksum does not hold -- snapshots are atomically replaced, so
    this is never the signature of a crash.
    """
    path = Path(path)
    data = path.read_bytes()
    prefix = len(SNAPSHOT_MAGIC)
    if data[:prefix] != SNAPSHOT_MAGIC:
        raise SnapshotCorruptError(f"{path} does not start with a snapshot magic header")
    if len(data) < prefix + _HEADER.size:
        raise SnapshotCorruptError(f"{path} is shorter than a snapshot header")
    kind, count, generation, crc = _HEADER.unpack_from(data, prefix)
    if kind not in (KIND_PLAIN, KIND_WEIGHTED):
        raise SnapshotCorruptError(f"{path} declares unknown snapshot kind {kind}")
    packer = _WEIGHTED_ROW if kind == KIND_WEIGHTED else _PLAIN_ROW
    body = data[prefix + _HEADER.size:]
    if len(body) != count * packer.size:
        raise SnapshotCorruptError(
            f"{path} declares {count} rows but carries {len(body)} body bytes"
        )
    if zlib.crc32(body) != crc:
        raise SnapshotCorruptError(f"{path} failed its body checksum")
    return kind, generation, list(packer.iter_unpack(body))


def snapshot_generation(path: os.PathLike | str) -> int:
    """The checkpoint generation stamped in a snapshot's header (0 if absent).

    Reads only the fixed header -- the body checksum is left to
    :func:`read_snapshot` -- so cursor/position validation against the
    current checkpoint baseline stays cheap on large snapshots.
    """
    path = Path(path)
    if not path.exists():
        return 0
    with open(path, "rb") as file:
        head = file.read(len(SNAPSHOT_MAGIC) + _HEADER.size)
    if head[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotCorruptError(f"{path} does not start with a snapshot magic header")
    if len(head) < len(SNAPSHOT_MAGIC) + _HEADER.size:
        raise SnapshotCorruptError(f"{path} is shorter than a snapshot header")
    return _HEADER.unpack_from(head, len(SNAPSHOT_MAGIC))[2]


def load_snapshot(path: os.PathLike | str, store: DynamicGraphStore) -> Tuple[int, int]:
    """Load a snapshot into a fresh ``store``; return ``(rows, generation)``.

    A missing file loads zero rows at generation 0 (a store that never
    compacted has no snapshot, only WAL).  Weighted rows are applied
    through ``insert_weighted_edge`` when the target supports it; a
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
    insert_weighted = getattr(store, "insert_weighted_edge", None)
    multi_edge = callable(getattr(store, "edge_multiplicity", None))
    for u, v, weight in rows:
        if callable(insert_weighted):
            insert_weighted(u, v, weight)
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
