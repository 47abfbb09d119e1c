"""Durability subsystem: write-ahead log, snapshots and crash recovery.

Any :class:`~repro.interfaces.DynamicGraphStore` becomes restartable by
wrapping it in a :class:`PersistentStore`: mutations are appended to a
checksummed binary write-ahead log *before* they are applied (one record
per batch call per touched segment -- which is what makes group commit
cheap), a
snapshot-plus-truncate compaction bounds log growth, and :func:`recover`
replays snapshot and log into a fresh store of any registered scheme.
Sharded stores log one WAL segment per shard; the segments are mutually
independent, so a commit fsyncs every segment it touched side by side --
on helper threads, while the calling thread applies the batch in memory --
and returns once all of them are durable (:mod:`repro.persist.store` has
the timeline and the failure semantics).

Quickstart::

    from repro.persist import PersistentStore, recover

    with PersistentStore("/tmp/graph", scheme="sharded") as store:
        store.insert_edges([(1, 2), (1, 3)])

    # ... process crashes and restarts ...
    store = recover("/tmp/graph")
    assert store.has_edge(1, 2)
"""

from .snapshot import (
    CompactionEvent,
    CompactionPolicy,
    KIND_PLAIN,
    KIND_WEIGHTED,
    SNAPSHOT_MAGIC,
    fsync_directory,
    load_snapshot,
    read_snapshot,
    snapshot_generation,
    snapshot_rows,
    write_snapshot,
)
from .store import (
    LOCK_NAME,
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    PersistentStore,
    SNAPSHOT_NAME,
    STORE_SCHEMES,
    apply_record,
    open_or_create,
    recover,
)
from .wal import (
    DELETE,
    FRAME_HEADER,
    INSERT,
    INSERT_WEIGHTED,
    WAL_HEADER_SIZE,
    WAL_MAGIC,
    WalPosition,
    WriteAheadLog,
    decode_ops,
    encode_edge_ops,
    encode_frame,
    encode_ops,
    read_wal_records,
)

__all__ = [
    "CompactionEvent",
    "CompactionPolicy",
    "DELETE",
    "FRAME_HEADER",
    "INSERT",
    "INSERT_WEIGHTED",
    "KIND_PLAIN",
    "KIND_WEIGHTED",
    "LOCK_NAME",
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "PersistentStore",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_NAME",
    "STORE_SCHEMES",
    "WAL_HEADER_SIZE",
    "WAL_MAGIC",
    "WalPosition",
    "WriteAheadLog",
    "apply_record",
    "decode_ops",
    "encode_edge_ops",
    "encode_frame",
    "encode_ops",
    "fsync_directory",
    "load_snapshot",
    "open_or_create",
    "read_snapshot",
    "read_wal_records",
    "recover",
    "snapshot_generation",
    "snapshot_rows",
    "write_snapshot",
]
