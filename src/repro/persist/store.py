"""`PersistentStore`: durability wrapper for any :class:`DynamicGraphStore`.

The wrapper is write-ahead in the strict sense: every mutation (single-op
or batch) is encoded into **one** WAL group-commit record per touched
segment and appended *before* it is applied to the wrapped store, so the
on-disk log is always a superset of the in-memory state and a crash can
lose at most the commits whose records never completed.  Everything else --
reads, batch reads, ``edges``, ``num_edges``, ``memory_bytes``,
``accesses``, ``counters``, ``weighted``, ``num_shards`` -- is forwarded by
:class:`~repro.interfaces.DelegatingStore`, so the wrapped structure keeps
its access characteristics, counters and memory model untouched; this
module adds only the logged mutations, ``structure_summary`` (the store's
own plus the log's) and ``spawn_empty``.

Layout of a store directory::

    manifest.json     scheme name + WAL segmentation (written once)
    snapshot.bin      logical edge set at the last compaction (optional)
    wal-000.bin ...   one segment, or one per shard of a sharded store

A store gets **one WAL segment per shard** (its ``num_shards``, which is 1
for an unpartitioned store), and an operation goes to the segment that
``shard_of`` its source node names -- the routing the wrapped store applies
it by.  The segments are therefore totally ordered per shard and mutually
independent: nothing orders their fsyncs against each other, which is what
the commit below exploits.

A commit (``sync_on_commit=True``) is one pipeline, for every mutation::

    partition   the batch is routed once (partition_edges) and the same
                groups feed the WAL records and the store's insert_groups()
                / delete_groups()
    append      one record per group, each packed in one call, written to
                the OS (not yet durable)
    sync || apply   one fsync per touched segment goes in flight on the
                store's helper threads (os.fsync releases the GIL) while
                the calling thread applies the groups in memory
    join        every fsync has returned
    compact     the size check, and a checkpoint when it is due

and the call returns after that: acknowledged => durable, exactly one fsync
per touched segment.  A commit with one segment to sync and one operation
to apply (every single-op call) has nothing worth a thread hand-off and
syncs on the caller's thread, then applies.

This is also the service's group commit: ``GraphService(durability="batch")``
sets :attr:`PersistentStore.sync_on_commit` and makes every mutation run one
commit.  Its dispatcher is the one caller that does not sit through *join*:
it hands the call a :class:`PendingCommit`, gets control back after *apply*
with the fsyncs still in flight (always on the helpers: the inline shortcut
is the cheap way to wait, and it does not wait), serves other requests, and
runs *join* and *compact* later through :meth:`PendingCommit.finish` -- in
commit order, before the run is acknowledged.  Several commits can then be in
flight at once, two of them on one segment included: each has its own sync
round, and a later round covers the earlier records.  A checkpoint that
``finish`` triggers first waits out the later commits still in flight, which
the dispatcher names to it.

With ``sync_on_commit=False`` the pipeline stops after *append*
(buffered) and the fsyncs move to :meth:`PersistentStore.sync`, which syncs
its dirty segments through the same helpers, or inline when only one is
dirty.  Its callers are whoever buffers -- a bulk load, a
``durability="none"`` service's read barrier (``Primary.sync_and_pump``)
-- and, on any store, ``Primary`` construction and ``attach``, the
``sync_on_commit`` switch, the retry after a failed fsync and ``close()``.
*When* to fsync is decided here and nowhere else;
:class:`~repro.persist.wal.WriteAheadLog` only appends and syncs on request.

The same path feeds replication.  While a :class:`~repro.replicate.Primary`
is subscribed (:meth:`PersistentStore.subscribe_feed`), every commit whose
apply returned leaves its records' operations and end offsets in an in-memory
**commit feed**; an entry is released once an fsync that covers its record
has returned, and the primary ships it from there -- the log is written, and
in steady state never read back.  With no subscriber nothing is collected.

What the failures leave behind (``tests/persist/test_group_commit.py``):

* **An fsync fails** (``OSError``).  The call (or, for the dispatcher,
  ``PendingCommit.finish``) raises it -- after the apply, and after every
  other sync it had in flight has returned; the inline sync of a single-op
  commit is no exception.  Nothing is rewound: the record is
  in the log, so the batch is applied and its feed entry queued (held back
  until a sync succeeds), and ``recover()`` of the directory is a superset
  of memory.
  The failed segment counts as unsynced again, so the next ``sync()`` or
  ``close()`` retries the fsync; whether the kernel still holds the pages
  to write by then is the OS's business, so the call that raised must be
  treated as *not durable* (the service goes fail-stop on it).
* **The apply fails.**  The commit's own in-flight syncs are joined, then
  every touched segment is rewound to its size before the commit (and that
  truncation fsynced; earlier commits still in flight lie before that size):
  a mutation the store refused must not replay at every future recovery.
  The store may keep a partially applied batch in memory, as
  batch exceptions always allowed; after a restart the commit is absent.
* **The order the apply can rely on.**  When the apply starts, its records
  are already in every touched segment file (write-ahead at the OS level);
  when the call (for the dispatcher: ``finish``) returns, every touched
  segment has been synced and none is dirty.

Recovery is :func:`recover`: load the snapshot (if any) into a fresh store
of the recorded (or caller-supplied) scheme, replay every complete WAL
record, truncate any torn tail, and hand back a ``PersistentStore`` that
appends where the crashed one stopped.  The invariant the crash-recovery
suite enforces: for any prefix of the WAL, recovery reproduces exactly the
state at the last complete group commit.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import deque
from functools import partial
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from queue import SimpleQueue
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar, Union,
)

from ..core.errors import PersistenceError, ReplicationError
from ..core.graph import CuckooGraph
from ..core.sharded import ShardedCuckooGraph
from ..core.weighted import WeightedCuckooGraph
from ..interfaces import DelegatingStore, DynamicGraphStore
from .snapshot import (
    CompactionEvent,
    CompactionPolicy,
    fsync_directory,
    load_snapshot,
    snapshot_generation,
    write_snapshot,
)
from .wal import (
    DELETE,
    INSERT,
    INSERT_WEIGHTED,
    Op,
    WAL_HEADER_SIZE,
    WalPosition,
    WriteAheadLog,
    encode_edge_ops,
    encode_ops,
    read_wal_records,
)

try:
    import fcntl
except ImportError:  # non-POSIX platform: the advisory lock degrades to a no-op
    fcntl = None

#: File names inside a store directory.
MANIFEST_NAME = "manifest.json"
SNAPSHOT_NAME = "snapshot.bin"
LOCK_NAME = "lock"

#: On-disk manifest format version.
MANIFEST_FORMAT = 1

_A = TypeVar("_A")


class _DirectoryLock:
    """Advisory exclusive lock on a store directory (``flock`` on ``lock``).

    Exactly one writer -- a live :class:`PersistentStore` or an in-progress
    :func:`recover` (which truncates torn tails) -- may hold a directory at
    a time.  Without this, a recovery racing a live unsynced writer
    could truncate a half-flushed record and stitch the writer's next flush
    onto the wrong offset, corrupting the log for good.  ``flock`` conflicts
    across open file descriptions, so a second store in the *same* process
    is refused too.  A live store is read through a replication
    :class:`~repro.replicate.Follower`, or by recovering a copy of its
    directory.
    """

    def __init__(self, directory: Path):
        self.path = directory / LOCK_NAME
        self._fd: Optional[int] = None

    def acquire(self) -> None:
        if fcntl is None:
            return
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise PersistenceError(
                f"{self.path.parent} is held by another live store or an "
                f"in-progress recovery"
            ) from None
        self._fd = fd

    def release(self) -> None:
        if self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None

#: The schemes :func:`recover` rebuilds a store from by the name recorded in
#: the manifest; any other store is recovered with ``store=`` or a factory.
STORE_SCHEMES: Dict[str, Callable[[], DynamicGraphStore]] = {
    "cuckoo": CuckooGraph,
    "weighted": WeightedCuckooGraph,
    "sharded": lambda: ShardedCuckooGraph(num_shards=4),
    "sharded-weighted": lambda: ShardedCuckooGraph(num_shards=4, weighted=True),
}


def _segment_name(index: int) -> str:
    return f"wal-{index:03d}.bin"


def _resolve_factory(scheme: Union[str, Callable[[], DynamicGraphStore]]):
    if callable(scheme):
        return scheme
    try:
        return STORE_SCHEMES[scheme]
    except KeyError:
        raise PersistenceError(
            f"unknown persistence scheme {scheme!r}; expected one of "
            f"{sorted(STORE_SCHEMES)} or a factory callable"
        ) from None


def _read_manifest(path: Path) -> dict:
    """Parse a store directory's manifest, surfacing damage as PersistenceError."""
    try:
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["segments"] = int(manifest["segments"])
    except (json.JSONDecodeError, OSError, UnicodeDecodeError, KeyError,
            TypeError, ValueError) as error:
        raise PersistenceError(f"{path}: unreadable {MANIFEST_NAME} ({error})") from error
    return manifest


def _write_manifest(path: Path, manifest: dict) -> None:
    """Atomically (temp file + fsync + rename) write the manifest.

    The manifest is written once per store lifetime, but it is the file
    recovery reads first -- a torn manifest would strand perfectly good,
    fsynced WAL data, so it gets the same crash discipline as snapshots.
    """
    target = path / MANIFEST_NAME
    temp = path / (MANIFEST_NAME + ".tmp")
    with open(temp, "w") as file:
        file.write(json.dumps(manifest, indent=2) + "\n")
        file.flush()
        os.fsync(file.fileno())
    os.replace(temp, target)
    fsync_directory(path)


class _SyncThreads:
    """The helper threads of one store: each takes a segment and sits in its
    ``fsync`` so the committing thread need not.

    ``os.fsync`` releases the GIL, so a helper costs the caller nothing once
    it is inside it -- but it needs the GIL to get there, and the apply that
    follows may hold it for milliseconds.  Hence the hand-off in
    :meth:`start`: it returns only after every helper has reported "about to
    sync".  The same hand-off bounds what can be in flight: a call whose
    segments find no free helper waits for one.  What is in flight belongs to
    the call that started it (several commits, and a ``sync()`` from
    ``Primary.sync_and_pump``'s thread, can be in progress at once); only the
    threads are shared.
    """

    def __init__(self, count: int):
        self._tasks: SimpleQueue = SimpleQueue()
        self._threads = [
            threading.Thread(target=self._run, name=f"wal-sync-{index}", daemon=True)
            for index in range(count)
        ]
        for thread in self._threads:
            thread.start()

    def _run(self) -> None:
        while (task := self._tasks.get()) is not None:
            wal, fd, entered, done, count, wake = task
            entered.put(None)
            try:
                wal.finish_sync(fd)
            except BaseException as error:  # handed to, and raised by, the caller
                done.put(error)
            else:
                done.put(None)
            # Nobody takes from ``done`` before looking at its size (see
            # PendingCommit), so the helper that returns last sees it full.
            if wake is not None and done.qsize() == count:
                wake()

    def start(self, syncing: Sequence[Tuple[WriteAheadLog, int]],
              wake: Optional[Callable[[], None]] = None) -> Tuple[SimpleQueue, int]:
        """Put the fsync of every ``(segment, descriptor)`` in flight; the
        helper that finishes the last of them calls ``wake`` (if any)."""
        entered: SimpleQueue = SimpleQueue()
        done: SimpleQueue = SimpleQueue()
        for wal, fd in syncing:
            self._tasks.put((wal, fd, entered, done, len(syncing), wake))
        for _ in syncing:
            entered.get()
        return done, len(syncing)

    @staticmethod
    def join(in_flight: Optional[Tuple[SimpleQueue, int]]) -> Optional[BaseException]:
        """Wait for every sync :meth:`start` put in flight; return the first
        error among them (``in_flight`` is ``None`` when nothing was)."""
        if in_flight is None:
            return None
        done, count = in_flight
        errors = [done.get() for _ in range(count)]
        return next((error for error in errors if error is not None), None)

    def close(self) -> None:
        for _ in self._threads:
            self._tasks.put(None)
        for thread in self._threads:
            thread.join()


class PendingCommit:
    """A commit whose caller waits for its fsyncs later, not inside the call.

    The one caller is :class:`~repro.service.GraphService`'s dispatcher: it
    hands an instance to ``insert_edges`` / ``delete_edges``, which return once
    the batch is logged, its fsyncs are in flight and it is applied in memory,
    and goes on to its next request.  ``wake`` is called -- on a helper thread,
    so it may only signal -- when the last of the fsyncs has returned.  The
    commit is **not durable, and must not be acknowledged, before**
    :meth:`finish` **has returned**, and commits are finished in the order they
    were made (the commit feed releases them in that order).  The caller keeps
    the list of what it has in flight -- the store keeps none -- and tells
    ``finish`` what is behind the commit it finishes.
    """

    __slots__ = ("wake", "_store", "_in_flight", "_error")

    def __init__(self, wake: Optional[Callable[[], None]] = None):
        self.wake = wake
        self._store: Optional["PersistentStore"] = None
        self._in_flight: Optional[Tuple[SimpleQueue, int]] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        """Whether :meth:`finish` would find every fsync returned."""
        if self._in_flight is None:
            return True
        done, count = self._in_flight
        return done.qsize() == count

    def join(self) -> Optional[BaseException]:
        """Wait until every fsync has returned; the first error among them is
        returned, and kept for :meth:`finish` to raise."""
        if self._in_flight is not None:
            self._error = _SyncThreads.join(self._in_flight)
            self._in_flight = None
        return self._error

    def finish(self, behind: Iterable["PendingCommit"] = ()) -> None:
        """The tail of the commit: every fsync has returned -- the first
        error among them is raised here, nothing having been rewound -- then
        the compaction check.  ``behind`` is the caller's later commits still
        in flight, which a checkpoint joins before it cuts the segments."""
        error = self.join()
        if error is not None:
            raise error
        self._store._maybe_compact(behind)


class PersistentStore(DelegatingStore):
    """Write-ahead-logged wrapper implementing the full store contract.

    Args:
        path: Store directory.  ``None`` creates an ephemeral temporary
            directory that is removed on :meth:`close` (what the benchmark
            scheme registry uses, so figure runs leave nothing behind).
        store: The structure to wrap.  When omitted, ``scheme`` builds it.
        scheme: Registered scheme name (or factory) used when ``store`` is
            not given; a *name* is recorded in the manifest so
            :func:`recover` can rebuild the store without being told.
        sync_on_commit: ``True`` makes every commit individually durable
            (one fsync per touched segment per mutation call); ``False``
            buffers appends until :meth:`sync`.  Settable afterwards
            (:attr:`sync_on_commit`), which is how
            :class:`~repro.service.GraphService` (``durability="batch"``)
            turns a buffering store into a group-committing one.
        compact_wal_bytes: WAL size threshold (summed over segments) past
            which the store snapshots itself and truncates the log;
            ``None`` disables compaction.

    ``close`` is terminal and idempotent: post-close mutations (and
    ``sync``/``checkpoint``) raise
    :class:`~repro.core.errors.StoreClosedError`, reads keep delegating to
    the wrapped store.
    """

    name = "PersistentStore"

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        store: Optional[DynamicGraphStore] = None,
        scheme: Union[str, Callable[[], DynamicGraphStore]] = "sharded",
        *,
        sync_on_commit: bool = True,
        compact_wal_bytes: Optional[int] = 1 << 20,
        own_store: Optional[bool] = None,
        _scheme_name: Optional[str] = None,
        _recovered: bool = False,
        _generation: int = 0,
        _lock: Optional[_DirectoryLock] = None,
    ):
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if path is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-persist-")
            path = self._tmpdir.name
        self._path = Path(path)
        self._path.mkdir(parents=True, exist_ok=True)
        if _lock is not None:
            self._lock = _lock  # recovery already holds the directory
        else:
            self._lock = _DirectoryLock(self._path)
            self._lock.acquire()
        try:
            self._initialise(store, scheme, sync_on_commit, compact_wal_bytes,
                             own_store, _scheme_name, _recovered, _generation)
        except BaseException:
            self._lock.release()
            raise

    def _initialise(self, store, scheme, sync_on_commit, compact_wal_bytes,
                    own_store, _scheme_name, _recovered, _generation) -> None:
        if store is None:
            self._store = _resolve_factory(scheme)()
            self._scheme_name = scheme if isinstance(scheme, str) else None
        else:
            self._store = store
            self._scheme_name = _scheme_name
        self._own_store = (store is None) if own_store is None else own_store

        self._sync_on_commit = sync_on_commit
        self._policy = CompactionPolicy(max_wal_bytes=compact_wal_bytes)
        self._spawn_counter = 0
        #: Checkpoint counter; bumped by every snapshot-and-truncate cycle
        #: and stamped into both the snapshot and the WAL segment headers
        #: so recovery can prove which of the two a record belongs to.
        self._generation = _generation

        #: Group commits logged (one per mutation call, however large).
        self.commits = 0
        #: Snapshot-and-truncate cycles performed.
        self.compactions = 0
        #: Filled in by :func:`recover` on a recovered instance.
        self.last_recovery: Optional[Dict[str, object]] = None

        manifest_path = self._path / MANIFEST_NAME
        if manifest_path.exists():
            if not _recovered:
                raise PersistenceError(
                    f"{self._path} already holds a persistent store; "
                    f"use repro.persist.recover() to reopen it"
                )
            segments = int(_read_manifest(self._path)["segments"])
        else:
            segments = self._store.num_shards
            _write_manifest(self._path, {
                "format": MANIFEST_FORMAT,
                "scheme": self._scheme_name,
                "segments": segments,
            })
        if segments != self._store.num_shards:
            raise PersistenceError(
                f"{self._path} is segmented for {segments} shard(s) but the "
                f"store routes over {self._store.num_shards}"
            )
        self._segments = segments
        self._wals = [
            WriteAheadLog(self._path / _segment_name(index),
                          generation=self._generation)
            for index in range(segments)
        ]
        #: Guards which call syncs what: a segment's records are handed to
        #: exactly one fsync, also when ``sync()`` arrives from another
        #: thread mid-commit.  Held for appends and hand-overs only, never
        #: across an fsync, an apply or a subscriber callback.
        self._log_lock = threading.Lock()
        #: Started by the first call with an fsync to overlap.
        self._sync_threads: Optional[_SyncThreads] = None
        #: The commit feed; ``None`` (nothing collects) until :meth:`subscribe_feed`.
        self._feed: Optional[deque] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def path(self) -> Path:
        """The store directory (ephemeral when constructed with ``path=None``)."""
        return self._path

    @property
    def store(self) -> DynamicGraphStore:
        """The wrapped in-memory structure."""
        return self._store

    @property
    def generation(self) -> int:
        """The current checkpoint generation (bumped by every compaction)."""
        return self._generation

    @property
    def segments(self) -> int:
        """Number of WAL segments (one per shard of a sharded store)."""
        return self._segments

    @property
    def segment_paths(self) -> List[Path]:
        """The WAL segment files, in segment order."""
        return [self._path / _segment_name(index) for index in range(self._segments)]

    @property
    def compaction_policy(self) -> CompactionPolicy:
        """The store's compaction policy -- subscribe here to observe truncations."""
        return self._policy

    @property
    def scheme_name(self) -> Optional[str]:
        """Registered scheme name recorded in the manifest (``None`` if untracked)."""
        return self._scheme_name

    @property
    def sync_on_commit(self) -> bool:
        """Whether every commit syncs the segments it touched before it returns."""
        return self._sync_on_commit

    @sync_on_commit.setter
    def sync_on_commit(self, value: bool) -> None:
        """Switching it on first syncs what was buffered, so that "no segment
        is dirty between commits" holds from the switch on."""
        if value and not self._sync_on_commit:
            self.sync()
        self._sync_on_commit = value

    def close(self) -> None:
        """Flush and release the log, then the wrapped store.  Idempotent.

        Terminal for writes: further mutations raise
        :class:`~repro.core.errors.StoreClosedError` instead of silently
        writing to a released log.  The sync helper threads, if a
        commit ever started them, are joined here.  An ephemeral
        (``path=None``) store also removes its temporary directory.
        """
        if self._closed:
            return
        self._closed = True
        if self._sync_threads is not None:
            self._sync_threads.close()
            self._sync_threads = None
        for wal in self._wals:
            wal.close()
        if self._own_store:
            self._store.close()
        self._lock.release()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    # ------------------------------------------------------------------ #
    # Logging
    # ------------------------------------------------------------------ #

    def _start_syncs(self, syncing: Sequence[Tuple[WriteAheadLog, int]],
                     wake: Optional[Callable[[], None]] = None):
        """Put ``syncing`` in flight on the helper threads (started here, by
        the first call that has any); the result is for ``_SyncThreads.join``."""
        if not syncing:
            return None
        with self._log_lock:
            if self._sync_threads is None:
                self._sync_threads = _SyncThreads(self._segments)
        return self._sync_threads.start(syncing, wake)

    def _commit(self, records: Sequence[Tuple[int, bytes]], ops: int,
                apply: Callable[[], _A], shipped: Callable[[], List[tuple]],
                pending: Optional[PendingCommit] = None) -> _A:
        """One durable commit: append, syncs in flight beside the apply, join.

        ``records`` is one ``(segment index, payload)`` per touched segment,
        ``ops`` the operations they carry and ``shipped()`` those operations
        as one tuple of op tuples per record, built only when the commit feed
        wants them.  A caller that passes ``pending`` does not wait here: the
        join (and the compaction check) is ``pending.finish()``.  The module
        docstring has the order of events and what each failure leaves behind.
        """
        touched: List[Tuple[WriteAheadLog, int]] = []
        syncing: List[Tuple[WriteAheadLog, int]] = []
        with self._log_lock:
            for index, payload in records:
                wal = self._wals[index]
                touched.append((wal, wal.size_bytes))
                wal.append_payload(payload)
                if self._sync_on_commit:
                    syncing.append((wal, wal.begin_sync()))
        if touched:
            self.commits += 1
        failed: Optional[OSError] = None
        if pending is None and len(syncing) == 1 and ops == 1:
            # One fsync and one operation to overlap it with, and a caller
            # that waits for it at once: not worth two thread hand-offs, so
            # (like a lone dirty segment in ``sync()``) the caller syncs, then
            # applies.  A failure is held until the apply is done, as a
            # helper's is: the record stays in the log, so the operation has
            # to reach memory and the feed.
            wal, fd = syncing.pop()
            try:
                wal.finish_sync(fd)
            except OSError as error:
                failed = error
        in_flight = self._start_syncs(syncing, pending and pending.wake)
        try:
            result = apply()
        except Exception:
            _SyncThreads.join(in_flight)  # their errors are moot: the records go
            self._rollback(touched)
            raise
        feed = self._feed
        if feed is not None:
            with self._log_lock:  # tickets are read where begin_sync() writes them
                for (index, _), record_ops in zip(records, shipped()):
                    wal = self._wals[index]
                    feed.append((wal, wal.sync_ticket, (
                        index, self._generation, record_ops, wal.size_bytes)))
        if pending is not None:
            pending._store = self
            pending._in_flight = in_flight
            return result
        error = _SyncThreads.join(in_flight) or failed
        if error is not None:
            raise error
        self._maybe_compact()
        return result

    def _rollback(self, touched: list) -> None:
        """Drop the records of a commit whose apply raised.

        Leaves the log a faithful record of what the store *accepted*: a
        failed mutation (say, a :class:`~repro.core.errors.CapacityError`
        mid-batch) must not survive in the WAL, or every future recovery
        would replay it into the same exception and the directory would be
        unrecoverable.  The in-memory store may retain a partially applied
        batch (the same caveat batch exceptions already carry); after a
        restart the whole failed commit is simply absent.
        """
        for wal, size in touched:
            wal.rewind_to(size)
        if touched:
            self.commits -= 1

    def sync(self) -> None:
        """Fsync every segment's unsynced records.

        With ``sync_on_commit=False`` this is the durability point (see the
        module docstring for who calls it); with ``True`` it finds nothing
        to do unless a commit's fsync failed, which it retries.  Several
        dirty segments are synced side by side (the caller takes one,
        helper threads the rest); a lone one on the caller's thread.
        """
        self._check_open("mutations")
        with self._log_lock:
            syncing = [(wal, fd) for wal in self._wals
                       if (fd := wal.begin_sync()) is not None]
        if not syncing:
            return
        wal, fd = syncing.pop()
        in_flight = self._start_syncs(syncing)
        try:
            wal.finish_sync(fd)
        finally:
            error = _SyncThreads.join(in_flight)
        if error is not None:
            raise error

    def subscribe_feed(self) -> None:
        """Start collecting the **commit feed**, for one replication primary.

        From here on every commit whose apply succeeded queues one entry per
        touched segment, ``(segment, generation, ops, end_offset)`` -- what
        the record it appended holds and where it ends -- in commit order,
        and :meth:`take_feed` hands an entry out once an fsync covering its
        record has returned.  A rolled-back commit never enters the feed; one
        whose fsync failed waits in it for a ``sync()`` that succeeds.  Taking
        is destructive, so a second subscriber is refused.
        """
        with self._log_lock:
            if self._feed is not None:
                raise ReplicationError(
                    f"{self._path} already feeds a replication primary")
            self._feed = deque()

    def unsubscribe_feed(self) -> None:
        """Stop collecting and drop what was not taken (idempotent)."""
        self._feed = None

    @property
    def feed_backlog(self) -> int:
        """Entries not yet taken, durable or still waiting (0 unsubscribed)."""
        feed = self._feed
        return len(feed) if feed is not None else 0

    def take_feed(self) -> List[tuple]:
        """Remove and return the durable entries at the head of the feed.

        Commit order: an entry still waiting for its fsync holds back the
        ones behind it, so a segment's entries always leave in record order.
        """
        taken: List[tuple] = []
        feed = self._feed
        if feed:  # the read barrier asks on every read: an empty feed costs no lock
            with self._log_lock:
                while feed and feed[0][0].synced(feed[0][1]):
                    taken.append(feed.popleft()[2])
        return taken

    def wal_bytes(self) -> int:
        """Total WAL size across segments (header bytes included)."""
        return sum(wal.size_bytes for wal in self._wals)

    def wal_segment_sizes(self) -> List[int]:
        """Per-segment log end offsets, buffered (unflushed) appends included.

        A replication primary starts its ship cursor here.
        """
        return [wal.size_bytes for wal in self._wals]

    def checkpoint(self) -> int:
        """Snapshot the wrapped store and truncate the WAL; return rows written.

        Crash-atomic via the generation stamp: the snapshot (written and
        atomically renamed with generation ``G+1``) is the commit point, and
        each segment is then truncated to a header stamped ``G+1``.  A crash
        in between leaves some segments at generation ``G``; recovery skips
        them because their records are provably folded into the snapshot.
        """
        self._check_open("mutations")
        generation = self._generation + 1
        # Pre-truncation event: a replication primary drains the commit
        # feed up to these offsets before the segments are cut out from
        # under them.  ``size_bytes`` counts buffered-but-unsynced appends
        # too, which is exactly what the snapshot below will fold in.
        self._policy.notify(CompactionEvent(
            path=self._path,
            generation=self._generation,
            new_generation=generation,
            wal_offsets=tuple(wal.size_bytes for wal in self._wals),
        ))
        rows = write_snapshot(self._path / SNAPSHOT_NAME, self._store,
                              generation=generation)
        for wal in self._wals:
            wal.truncate(generation=generation)
        self._generation = generation
        self.compactions += 1
        return rows

    def _maybe_compact(self, in_flight: Iterable[PendingCommit] = ()) -> None:
        if self._policy.should_compact(self.wal_bytes()):
            # Nothing may be in flight when the segments are cut: a record
            # still waiting for its fsync would stay in the feed with offsets
            # of a log that no longer exists.
            for pending in in_flight:
                pending.join()
            self.checkpoint()

    def persistence_summary(self) -> Dict[str, object]:
        """Snapshot of the durability-side accounting."""
        return {
            "path": str(self._path),
            "segments": self._segments,
            "scheme": self._scheme_name,
            "generation": self._generation,
            "commits": self.commits,
            "compactions": self.compactions,
            "wal_bytes": self.wal_bytes(),
            "wal_records": sum(wal.records_appended for wal in self._wals),
            "wal_syncs": sum(wal.syncs for wal in self._wals),
            "snapshot_exists": (self._path / SNAPSHOT_NAME).exists(),
            "last_recovery": self.last_recovery,
        }

    # ------------------------------------------------------------------ #
    # Mutations: log first, then apply
    # ------------------------------------------------------------------ #

    def _commit_op(self, op: Op, apply: Callable[[], _A]) -> _A:
        """Commit one operation: one record, in its source node's segment."""
        return self._commit([(self.shard_of(op[1]), encode_ops((op,)))], 1, apply,
                            lambda: [(op,)])

    def _commit_edges(self, tag: str, edges: Iterable[tuple[int, int]],
                      apply_groups: Callable[[dict], int],
                      pending: Optional[PendingCommit]) -> int:
        """Commit a batch: route it once, log it and apply it by the same groups
        (``apply_groups`` is the wrapped store's ``insert_groups`` or
        ``delete_groups``)."""
        groups = self.partition_edges(edges)
        records = [(index, encode_edge_ops(tag, group))
                   for index, group in groups.items()]
        return self._commit(
            records, sum(map(len, groups.values())), partial(apply_groups, groups),
            lambda: [tuple([(tag, u, v) for u, v in group]) for group in groups.values()],
            pending)

    def insert_edge(self, u: int, v: int) -> bool:
        self._check_open("mutations")
        return self._commit_op((INSERT, u, v),
                               lambda: self._store.insert_edge(u, v))

    def delete_edge(self, u: int, v: int) -> bool:
        self._check_open("mutations")
        return self._commit_op((DELETE, u, v),
                               lambda: self._store.delete_edge(u, v))

    def insert_edges(self, edges: Iterable[tuple[int, int]],
                     _pending: Optional[PendingCommit] = None) -> int:
        """One group commit for the whole batch, then one batch apply.

        ``_pending`` is the service dispatcher's (see :class:`PendingCommit`):
        with it the call returns before the commit is durable.
        """
        self._check_open("mutations")
        return self._commit_edges(INSERT, edges, self._store.insert_groups, _pending)

    def delete_edges(self, edges: Iterable[tuple[int, int]],
                     _pending: Optional[PendingCommit] = None) -> int:
        """One group commit for the whole batch, then one batch apply
        (``_pending`` as for :meth:`insert_edges`)."""
        self._check_open("mutations")
        return self._commit_edges(DELETE, edges, self._store.delete_groups, _pending)

    def insert_weighted_edge(self, u: int, v: int, delta: int = 1) -> int:
        """Weighted insert, logged with its delta (wrapped store must support it)."""
        self._check_open("mutations")
        if not self._store.weighted:
            raise TypeError(f"wrapped store {self._store.name!r} is not weighted")
        return self._commit_op((INSERT_WEIGHTED, u, v, delta),
                               lambda: self._store.insert_weighted_edge(u, v, delta))

    def structure_summary(self) -> dict[str, object]:
        return {"persistence": self.persistence_summary(),
                "store": self._store.structure_summary()}

    def spawn_empty(self) -> "PersistentStore":
        """Fresh empty persistent store of the same configuration.

        An ephemeral store spawns another ephemeral one; a store rooted at a
        real path spawns into a ``spawn-N`` subdirectory, so everything a
        test writes stays under the directory (and pytest ``tmp_path``) it
        was given.
        """
        if self._tmpdir is None:
            while True:
                spawn_path = self._path / f"spawn-{self._spawn_counter}"
                self._spawn_counter += 1
                if not spawn_path.exists():
                    break
        else:
            spawn_path = None
        return PersistentStore(
            path=spawn_path,
            store=self._store.spawn_empty(),
            sync_on_commit=self._sync_on_commit,
            compact_wal_bytes=self._policy.max_wal_bytes,
            # The spawned wrapper is the sole holder of the inner store it
            # just created, so it owns (and closes) it.
            own_store=True,
            _scheme_name=self._scheme_name,
        )


class _PoisonedTail(Exception):
    """Internal: a segment's *final* record failed to apply during replay.

    The matching live-store scenario is an apply that raised after its
    record was fsynced and the process died before the compensating
    :meth:`WriteAheadLog.rewind_to` could run.  The record has been
    truncated away by the time this is raised; :func:`recover` restarts
    replay into a fresh store.
    """


def apply_record(store: DynamicGraphStore, ops: Sequence[Op]) -> None:
    """Apply one WAL record's decoded operations to ``store``.

    The one way from the log to a store: recovery, a replica's live stream
    and both bootstraps (``Primary.attach``, the socket follower) all come
    through here.  Each maximal run of plain inserts (or deletes) goes to the
    store as one ``insert_edges`` / ``delete_edges`` call -- the commit that
    logged the record applied it as that batch, so the store sees the calls
    it saw then (a store that acts per call, such as a tiered one, included).
    Weighted inserts carry a delta each and stay per-op, as does a run of
    one, where a batch call's fixed cost buys nothing.

    Raises :class:`ReplicationError` (instead of a bare ``AttributeError``
    deep in a store) when a weighted record meets an unweighted store;
    recovery refuses that case up front (``_check_replay_compatible``).
    """
    for tag, run in groupby(ops, key=itemgetter(0)):
        run = list(run)
        if tag == INSERT_WEIGHTED:
            if not store.weighted:
                raise ReplicationError(
                    f"stream holds weighted records but the store "
                    f"({store.name!r}) is not weighted"
                )
            for _, u, v, delta in run:
                store.insert_weighted_edge(u, v, delta)
        elif len(run) == 1:
            _, u, v = run[0]
            if tag == INSERT:
                store.insert_edge(u, v)
            else:
                store.delete_edge(u, v)
        elif tag == INSERT:
            store.insert_edges([(u, v) for _, u, v in run])
        else:
            store.delete_edges([(u, v) for _, u, v in run])


def _check_replay_compatible(path: Path, store: DynamicGraphStore,
                             records) -> None:
    """Refuse up front to replay weighted records into an unweighted store.

    Applying them would raise mid-replay, which the poisoned-tail handling
    could then misread as a crash artefact and set good records aside; a
    scheme mismatch is operator error and must fail loudly and losslessly.
    """
    if store.weighted:
        return
    if any(op[0] == INSERT_WEIGHTED for ops, _ in records for op in ops):
        raise PersistenceError(
            f"{path} holds weighted records but the recovery store "
            f"({store.name!r}) is not weighted"
        )


def _set_aside_poisoned(path: Path, start: int) -> None:
    """Move a poisoned record's bytes to a ``.poisoned`` sidecar, then truncate.

    Dropped records are unacknowledged by construction, but they are still
    the only copy of *something* -- preserve the bytes for forensics (and
    for the case where the real problem was recovering into a
    mis-configured store) instead of destroying them.
    """
    data = path.read_bytes()
    sidecar = path.with_name(path.name + ".poisoned")
    with open(sidecar, "ab") as file:
        file.write(data[start:])
        file.flush()
        os.fsync(file.fileno())
    with open(path, "rb+") as file:
        file.truncate(start)


def _replay_segment(path: Path, store: DynamicGraphStore,
                    snapshot_generation: int) -> Dict[str, int]:
    """Replay one segment into ``store``; truncate its torn tail, if any.

    A segment stamped with a generation *older* than the snapshot's is the
    signature of a checkpoint that crashed between the snapshot rename and
    this segment's truncation: its records are already folded into the
    snapshot, so replaying them would double-apply weighted deltas.  Such a
    segment is skipped and truncated to nothing (a fresh header at the
    current generation is written on the next append).
    """
    generation, records, valid_length = read_wal_records(path)
    stale = generation is not None and generation < snapshot_generation
    if stale:
        valid_length = 0
    if path.exists() and path.stat().st_size > valid_length:
        # The bytes past the last complete record (or the whole stale
        # segment) are a crash artefact; drop them so appending resumes on
        # a clean record boundary.
        with open(path, "rb+") as file:
            file.truncate(valid_length)
    if stale:
        return {"batches": 0, "ops": 0}
    _check_replay_compatible(path, store, records)
    ops = 0
    start = WAL_HEADER_SIZE
    for index, (batch, end) in enumerate(records):
        try:
            apply_record(store, batch)
        except Exception as error:
            if index == len(records) - 1:
                # The final commit's apply fails deterministically -- the
                # signature of a process that logged the record, hit this
                # same exception applying it, and was killed before the
                # compensating rewind ran.  Set the record aside (it is by
                # construction unacknowledged: its mutation call never
                # returned) so the directory stays recoverable.
                _set_aside_poisoned(path, start)
                raise _PoisonedTail(str(error)) from error
            raise PersistenceError(
                f"{path}: replay failed {len(records) - index - 1} record(s) "
                f"before the tail -- not a crash artefact"
            ) from error
        ops += len(batch)
        start = end
    return {"batches": len(records), "ops": ops}


def _rewind_to(path: Path, segment_paths: List[Path],
               upto: Union[int, WalPosition]) -> None:
    """Point-in-time rewind: truncate the WAL to an exact group-commit cut.

    ``upto`` is either a global group-commit **index** -- records are
    counted in canonical segment-major order (all of segment 0's records,
    then segment 1's, ...), which for a single-segment store is exactly
    append order -- or a :class:`~repro.persist.wal.WalPosition` carrying
    one byte offset per segment (exact for sharded stores too: segments
    route disjoint source nodes, so any per-segment prefix set is a
    consistent state).  Everything past the cut is truncated away, reusing
    the torn-tail machinery: the subsequent replay simply never sees the
    dropped records.  Indices are relative to the current checkpoint
    baseline (the snapshot is commit 0); a position taken before a
    compaction, a cut past the end of the log, or an offset that is not a
    record boundary is refused before any byte is touched.
    """
    baseline = snapshot_generation(path / SNAPSHOT_NAME)
    cuts: List[Optional[int]] = []
    if isinstance(upto, WalPosition):
        if len(upto.offsets) != len(segment_paths):
            raise PersistenceError(
                f"position covers {len(upto.offsets)} segment(s) but {path} "
                f"holds {len(segment_paths)}"
            )
        if upto.generation != baseline:
            raise PersistenceError(
                f"{path}: position was taken at generation {upto.generation} "
                f"but the snapshot baseline is {baseline}; a compaction has "
                f"folded the records it points into"
            )
        for segment, offset in zip(segment_paths, upto.offsets):
            generation, records, _ = read_wal_records(segment)
            if generation is not None and generation != baseline:
                raise PersistenceError(
                    f"{segment} is stamped generation {generation}, not the "
                    f"snapshot baseline {baseline}; recover() it plainly first"
                )
            boundaries = {WAL_HEADER_SIZE} | {end for _, end in records}
            if offset not in boundaries:
                raise PersistenceError(
                    f"{segment}: offset {offset} is not a group-commit "
                    f"boundary of the on-disk log"
                )
            cuts.append(offset if segment.exists() else None)
    else:
        if upto < 0:
            raise PersistenceError(f"upto must be >= 0, got {upto}")
        remaining = int(upto)
        for segment in segment_paths:
            generation, records, _ = read_wal_records(segment)
            if generation is not None and generation != baseline:
                raise PersistenceError(
                    f"{segment} is stamped generation {generation}, not the "
                    f"snapshot baseline {baseline}; recover() it plainly first"
                )
            take = min(remaining, len(records))
            remaining -= take
            cut = records[take - 1][1] if take else WAL_HEADER_SIZE
            cuts.append(cut if segment.exists() else None)
        if remaining > 0:
            raise PersistenceError(
                f"{path} holds only {upto - remaining} group commit(s) past "
                f"the snapshot; cannot rewind to index {upto}"
            )
    for segment, cut in zip(segment_paths, cuts):
        if cut is None or segment.stat().st_size <= cut:
            continue
        with open(segment, "rb+") as file:
            file.truncate(cut)


def recover(
    path: Union[str, Path],
    scheme: Optional[Union[str, Callable[[], DynamicGraphStore]]] = None,
    store: Optional[DynamicGraphStore] = None,
    *,
    sync_on_commit: bool = True,
    compact_wal_bytes: Optional[int] = 1 << 20,
    own_store: Optional[bool] = None,
    upto: Optional[Union[int, WalPosition]] = None,
) -> PersistentStore:
    """Rebuild a :class:`PersistentStore` from its directory.

    Loads the snapshot (if one exists) into a fresh store, replays every
    complete WAL record on top, truncates any torn tail, and returns a
    wrapper that appends where the previous process stopped.  The fresh
    store comes from ``store`` (an empty instance), else ``scheme`` (a
    registered name or factory), else the scheme name recorded in the
    directory's manifest.  Under the writer lock it first deletes the
    temporary files a crash between a write and its rename leaves behind
    (``snapshot.bin.tmp``, ``manifest.json.tmp``).

    Segments are replayed one after another, each record through
    :func:`apply_record` (the batch calls its commit made): replay is pure
    Python under the GIL, so threads buy it nothing (measured; see the
    README).  A live store's directory is locked; to inspect one, recover a
    copy of it.  ``own_store`` forces (or forbids) the returned wrapper closing the
    store on ``close``; by default the wrapper owns the store exactly when
    this function built it.

    ``upto`` is point-in-time recovery: rewind the directory to an exact
    group-commit cut -- an integer index (the snapshot is commit 0; exact
    append order for single-segment stores, canonical segment-major order
    otherwise) or a :class:`~repro.persist.wal.WalPosition` (exact for any
    segmentation) -- before replaying.  The rewind is **destructive**, the
    same way torn-tail truncation is: the records past the cut are gone,
    and the returned store appends from the recovered point.  Recover a
    *copy* of the directory to keep the full history.
    """
    path = Path(path)
    if not (path / MANIFEST_NAME).exists():
        raise PersistenceError(f"{path} has no {MANIFEST_NAME}; nothing to recover")
    manifest = _read_manifest(path)
    segments = int(manifest["segments"])
    scheme_name = manifest.get("scheme")

    built_here = store is None
    if store is None:
        chosen = scheme if scheme is not None else scheme_name
        if chosen is None:
            raise PersistenceError(
                f"{path} records no scheme name; pass recover(..., scheme=...) "
                f"or recover(..., store=...)"
            )
        store = _resolve_factory(chosen)()
    if store.num_edges != 0:
        raise PersistenceError("recovery target store must be empty")
    if segments != store.num_shards:
        raise PersistenceError(
            f"{path} holds {segments} WAL segment(s) but the recovery store "
            f"routes over {store.num_shards}; shard counts must match"
        )

    # Exclusive hold for the whole replay (recovery truncates torn tails; a
    # live writer must not be appending meanwhile) and then handed to the
    # returned store, so the directory is continuously protected.
    lock = _DirectoryLock(path)
    lock.acquire()
    try:
        # A crash between a write and its rename orphans the temporary file;
        # the renamed-over original is intact, so the orphan is only garbage.
        for name in (SNAPSHOT_NAME, MANIFEST_NAME):
            (path / (name + ".tmp")).unlink(missing_ok=True)
        started = time.perf_counter()
        segment_paths = [path / _segment_name(index) for index in range(segments)]
        if upto is not None:
            _rewind_to(path, segment_paths, upto)
        retries = 0
        while True:
            try:
                snapshot_rows, generation = load_snapshot(path / SNAPSHOT_NAME, store)
                stats = [_replay_segment(seg, store, generation)
                         for seg in segment_paths]
                break
            except _PoisonedTail:
                # A poisoned final record was set aside; replay the now
                # clean log into a fresh store (the current one holds a
                # partial application of the dropped record).  At most one
                # retry per segment can ever be needed.
                retries += 1
                if retries > segments:
                    raise PersistenceError(
                        f"{path}: replay kept failing after setting aside "
                        f"{retries - 1} poisoned tail record(s)"
                    ) from None
                store = store.spawn_empty()
        seconds = time.perf_counter() - started

        recovered = PersistentStore(
            path=path,
            store=store,
            sync_on_commit=sync_on_commit,
            compact_wal_bytes=compact_wal_bytes,
            # A store recover() built -- from a scheme or by respawning after
            # a poisoned tail -- has no other holder, so the wrapper owns it.
            own_store=True if (built_here or retries) and own_store is None else own_store,
            _scheme_name=scheme_name,
            _recovered=True,
            _generation=generation,
            _lock=lock,
        )
    except BaseException:
        lock.release()  # idempotent: a failed constructor released it already
        raise
    recovered.last_recovery = {
        "snapshot_rows": snapshot_rows,
        "wal_batches": sum(stat["batches"] for stat in stats),
        "wal_ops": sum(stat["ops"] for stat in stats),
        "seconds": seconds,
    }
    return recovered


def open_or_create(
    path: Union[str, Path],
    store: Optional[DynamicGraphStore] = None,
    scheme: Union[str, Callable[[], DynamicGraphStore]] = "sharded",
    **kwargs,
) -> PersistentStore:
    """Open ``path`` as a persistent store, recovering it if it already is one.

    The restart-friendly entry point: a directory that already holds a
    manifest is :func:`recover`-ed (``store``/``scheme`` must match its
    segmentation), anything else becomes a fresh :class:`PersistentStore`.
    Keyword arguments (``sync_on_commit``, ``compact_wal_bytes``,
    ``own_store``) pass through.
    """
    path = Path(path)
    if (path / MANIFEST_NAME).exists():
        return recover(path, scheme=None if store is not None else scheme,
                       store=store, **kwargs)
    return PersistentStore(path, store=store, scheme=scheme, **kwargs)
