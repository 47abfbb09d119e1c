"""Crash recovery: kill-at-any-WAL-prefix must land on a group-commit boundary.

The durability invariant under test: for any seeded op stream committed in
batches, truncating the WAL at **any byte offset** and recovering yields a
store whose edge set equals the dict-of-sets oracle's state at the last
complete group commit below the cut.  The torn tail is ignored, recovery is
idempotent (recovering twice gives the same state), and a recovered store
appends cleanly where the crash stopped.
"""

import json
import random
import shutil
import struct

import pytest

from repro import CuckooGraph, ShardedCuckooGraph
from repro.core.errors import SnapshotCorruptError
from repro.persist import (
    DELETE,
    INSERT,
    MANIFEST_NAME,
    PersistentStore,
    WAL_HEADER_SIZE,
    encode_ops,
    open_or_create,
    recover,
)


def seeded_batches(seed: int, batches: int = 8, ops_per_batch: int = 5):
    """Mixed insert/delete batches over a small universe, plus oracle states.

    Returns ``(batches, states)`` where ``states[i]`` is the sorted oracle
    edge set after the first ``i`` batches (``states[0]`` is empty).
    """
    rng = random.Random(seed)
    model: set[tuple[int, int]] = set()
    all_batches, states = [], [sorted(model)]
    for _ in range(batches):
        batch = []
        for _ in range(ops_per_batch):
            u, v = rng.randrange(12), rng.randrange(12)
            if model and rng.random() < 0.3:
                u, v = rng.choice(sorted(model))
                batch.append(("delete", u, v))
                model.discard((u, v))
            else:
                batch.append(("insert", u, v))
                model.add((u, v))
        all_batches.append(batch)
        states.append(sorted(model))
    return all_batches, states


def apply_batch(store: PersistentStore, batch) -> None:
    """One batch -> one group commit each for its insert and delete runs.

    Consecutive same-kind runs are committed separately (mirroring the
    service dispatcher), so the WAL carries several records per batch while
    every record still lands atomically.
    """
    run_kind, run = None, []

    def flush():
        if not run:
            return
        if run_kind == "insert":
            store.insert_edges(run)
        else:
            store.delete_edges(run)

    for kind, u, v in batch:
        if kind != run_kind:
            flush()
            run_kind, run = kind, []
        run.append((u, v))
    flush()


def build_store(path, batches, num_shards=None):
    inner = (ShardedCuckooGraph(num_shards=num_shards)
             if num_shards else CuckooGraph())
    store = PersistentStore(path, store=inner, own_store=True,
                            sync_on_commit=True, compact_wal_bytes=None)
    commit_boundaries = [store.wal_bytes()]
    for batch in batches:
        apply_batch(store, batch)
        commit_boundaries.append(store.wal_bytes())
    store.close()
    return commit_boundaries


def oracle_state_at_cut(cut_bytes, batches):
    """Oracle edge set once the single-segment WAL is cut to ``cut_bytes``.

    Replays the op stream through a shadow oracle, counting the bytes each
    group-commit record occupies, and stops at the last record that fits.
    """
    offset = WAL_HEADER_SIZE
    model: set[tuple[int, int]] = set()
    for batch in batches:
        run_kind, run = None, []
        runs = []
        for kind, u, v in batch:
            if kind != run_kind:
                if run:
                    runs.append((run_kind, run))
                run_kind, run = kind, []
            run.append((u, v))
        if run:
            runs.append((run_kind, run))
        for kind, run in runs:
            tag = INSERT if kind == "insert" else DELETE
            record_len = 8 + len(encode_ops([(tag, u, v) for u, v in run]))
            if offset + record_len > cut_bytes:
                return sorted(model)
            offset += record_len
            for u, v in run:
                if kind == "insert":
                    model.add((u, v))
                else:
                    model.discard((u, v))
    return sorted(model)


def test_truncate_final_record_at_every_byte_offset(tmp_path):
    """Cut the tail anywhere: recovery equals the last complete commit."""
    batches, states = seeded_batches(seed=20260729)
    source = tmp_path / "source"
    boundaries = build_store(source, batches)
    wal = source / "wal-000.bin"
    data = wal.read_bytes()
    assert boundaries[-1] == len(data)
    last_commit_start = boundaries[-2]

    for cut in range(last_commit_start, len(data) + 1):
        workdir = tmp_path / f"cut-{cut}"
        workdir.mkdir()
        shutil.copy(source / MANIFEST_NAME, workdir / MANIFEST_NAME)
        (workdir / "wal-000.bin").write_bytes(data[:cut])
        recovered = recover(workdir, store=CuckooGraph())
        expected = oracle_state_at_cut(cut, batches)
        assert sorted(recovered.edges()) == expected, f"cut={cut}"
        # A full final batch must reproduce the final oracle state.
        if cut == len(data):
            assert expected == states[-1]
        recovered.close()


def test_truncation_at_commit_boundaries_walks_the_oracle_states(tmp_path):
    """Cutting exactly at each batch boundary yields exactly each oracle state."""
    batches, states = seeded_batches(seed=7, batches=6)
    source = tmp_path / "source"
    boundaries = build_store(source, batches)
    data = (source / "wal-000.bin").read_bytes()

    for index, cut in enumerate(boundaries):
        workdir = tmp_path / f"boundary-{index}"
        workdir.mkdir()
        shutil.copy(source / MANIFEST_NAME, workdir / MANIFEST_NAME)
        (workdir / "wal-000.bin").write_bytes(data[:cut])
        recovered = recover(workdir, store=CuckooGraph())
        assert sorted(recovered.edges()) == states[index], f"batch boundary {index}"
        recovered.close()


def test_recovery_is_idempotent_and_appendable(tmp_path):
    """Recover twice -> same state; a recovered store keeps committing."""
    batches, states = seeded_batches(seed=99)
    source = tmp_path / "source"
    build_store(source, batches)
    # Tear the tail mid-record.
    wal = source / "wal-000.bin"
    data = wal.read_bytes()
    wal.write_bytes(data[:-3])

    first = recover(source, store=CuckooGraph())
    first_state = sorted(first.edges())
    first.close()
    second = recover(source, store=CuckooGraph())
    assert sorted(second.edges()) == first_state
    # The torn bytes were truncated away: appending must produce a log that
    # replays cleanly, including the new commit.
    second.insert_edge(100, 200)
    second.close()
    third = recover(source, store=CuckooGraph())
    assert sorted(third.edges()) == sorted(first_state + [(100, 200)])
    third.close()


def test_sharded_torn_segment_only_loses_that_segments_tail(tmp_path):
    """A crash tears one shard's segment; other shards' commits survive."""
    source = tmp_path / "source"
    inner = ShardedCuckooGraph(num_shards=2)
    store = PersistentStore(source, store=inner, own_store=True,
                            sync_on_commit=True, compact_wal_bytes=None)
    # Pick two nodes owned by different shards.
    nodes = sorted(range(20), key=inner.shard_of)
    a = next(n for n in nodes if inner.shard_of(n) == 0)
    b = next(n for n in nodes if inner.shard_of(n) == 1)
    store.insert_edge(a, 100)
    store.insert_edge(b, 200)
    store.insert_edge(b, 201)  # the commit that will be torn
    store.close()

    segment = source / "wal-001.bin"
    segment.write_bytes(segment.read_bytes()[:-5])
    recovered = recover(source, store=ShardedCuckooGraph(num_shards=2))
    assert recovered.has_edge(a, 100)
    assert recovered.has_edge(b, 200)
    assert not recovered.has_edge(b, 201)
    recovered.close()


def test_interrupted_checkpoint_does_not_double_apply(tmp_path):
    """Crash between snapshot rename and WAL truncation must not replay twice.

    The generation stamp is what makes compaction crash-atomic: the snapshot
    carries generation G+1, segments not yet truncated still carry G, and
    recovery must skip them -- replaying would double-apply weighted deltas.
    """
    from repro.persist import write_snapshot

    source = tmp_path / "source"
    store = PersistentStore(source, scheme="weighted", compact_wal_bytes=None)
    store.insert_weighted_edge(1, 2, 5)
    store.insert_weighted_edge(3, 4, 2)
    store.delete_edge(3, 4)  # weight 1 now
    # Simulate the crash window: the snapshot (generation 1) lands
    # atomically, but the process dies before any segment is truncated.
    write_snapshot(source / "snapshot.bin", store.store, generation=1)
    store.close()

    recovered = recover(source)
    assert recovered.edge_weight(1, 2) == 5, "WAL replayed over its own snapshot"
    assert recovered.edge_weight(3, 4) == 1
    # Recovery healed the stale segment: a second recovery sees a truncated
    # log and the same state.
    assert recovered.last_recovery["wal_ops"] == 0
    recovered.close()
    again = recover(source)
    assert again.edge_weight(1, 2) == 5
    assert again.last_recovery["wal_ops"] == 0
    again.close()


def test_completed_checkpoint_replays_post_snapshot_commits(tmp_path):
    """After a *completed* checkpoint, later commits replay on top of it."""
    source = tmp_path / "source"
    store = PersistentStore(source, scheme="weighted", compact_wal_bytes=None)
    store.insert_weighted_edge(1, 2, 5)
    assert store.checkpoint() == 1
    store.insert_weighted_edge(1, 2, 1)  # post-snapshot commit, weight 6
    store.close()

    recovered = recover(source)
    assert recovered.edge_weight(1, 2) == 6
    assert recovered.last_recovery["snapshot_rows"] == 1
    assert recovered.last_recovery["wal_ops"] == 1
    recovered.close()


def test_checkpoint_right_after_recovery_keeps_later_commits(tmp_path):
    """A post-recovery checkpoint must stamp segments with the new generation.

    Regression: checkpoint() on a recovered store truncates segments that
    were never appended to in this process; the re-stamp must win over the
    stale on-disk header generation, or every commit after the checkpoint
    would be classified stale and silently dropped by the next recovery.
    """
    source = tmp_path / "source"
    store = PersistentStore(source, scheme="cuckoo", compact_wal_bytes=None)
    store.insert_edge(1, 2)
    store.checkpoint()  # generation 1 on disk
    store.close()

    reopened = recover(source)
    reopened.checkpoint()          # generation 2; segment was never appended to
    reopened.insert_edge(5, 6)     # post-checkpoint commit
    reopened.close()

    final = recover(source)
    assert sorted(final.edges()) == [(1, 2), (5, 6)]
    assert final.last_recovery["wal_ops"] == 1
    final.close()


def test_flipped_snapshot_generation_is_refused_not_skipped(tmp_path):
    """A damaged snapshot header must fail recovery, not re-date the log.

    The generation decides which WAL segments are stale.  Flipped from 1 to
    3, it would make recovery skip both post-checkpoint segments -- 10 of 20
    acknowledged edges -- and truncate them as already folded in.
    """
    source = tmp_path / "source"
    store = PersistentStore(source, store=ShardedCuckooGraph(num_shards=2),
                            own_store=True, sync_on_commit=True,
                            compact_wal_bytes=None)
    store.insert_edges([(u, u + 1) for u in range(10)])
    store.checkpoint()
    store.insert_edges([(u, u + 1) for u in range(100, 110)])
    store.close()

    snapshot = source / "snapshot.bin"
    data = bytearray(snapshot.read_bytes())
    generation_at = 8 + 1 + 8 + 8  # magic, kind, rows, sources
    assert struct.unpack_from("<Q", data, generation_at)[0] == 1
    data[generation_at] ^= 0x02  # generation 1 -> 3
    snapshot.write_bytes(bytes(data))
    segments = {name: (source / name).read_bytes()
                for name in ("wal-000.bin", "wal-001.bin")}
    assert all(len(segment) > WAL_HEADER_SIZE for segment in segments.values())

    with pytest.raises(SnapshotCorruptError):
        recover(source, store=ShardedCuckooGraph(num_shards=2))
    assert {name: (source / name).read_bytes() for name in segments} == segments


@pytest.mark.parametrize("reopen", [
    recover, lambda path: open_or_create(path, scheme="cuckoo"),
], ids=["recover", "open_or_create"])
def test_writable_recovery_deletes_orphaned_temp_files(tmp_path, reopen):
    """A crash between a write and its rename leaves a ``.tmp`` sibling;
    writable recovery deletes it under the writer lock."""
    source = tmp_path / "source"
    store = PersistentStore(source, scheme="cuckoo", compact_wal_bytes=None)
    store.insert_edge(1, 2)
    store.checkpoint()
    store.insert_edge(3, 4)
    store.close()
    orphans = [source / "snapshot.bin.tmp", source / (MANIFEST_NAME + ".tmp")]
    for orphan in orphans:
        orphan.write_bytes(b"half-written")

    reopened = reopen(source)
    assert not any(orphan.exists() for orphan in orphans)
    assert sorted(reopened.edges()) == [(1, 2), (3, 4)]
    reopened.close()


def test_poisoned_final_record_is_dropped_not_fatal(tmp_path):
    """A final record whose apply fails deterministically must not brick recovery.

    Live-store analogue: the record was fsynced, the apply raised, and the
    process was killed before the compensating rewind ran.  recover() drops
    the record and restarts replay into a fresh store.
    """
    from repro.persist import MANIFEST_FORMAT, WriteAheadLog

    class Poison(CuckooGraph):
        def insert_edge(self, u, v):
            if (u, v) == (666, 666):
                raise RuntimeError("synthetic capacity exhaustion")
            return super().insert_edge(u, v)

        def spawn_empty(self):
            return Poison()

    source = tmp_path / "source"
    source.mkdir()
    (source / MANIFEST_NAME).write_text(json.dumps(
        {"format": MANIFEST_FORMAT, "scheme": None, "segments": 1}))
    wal = WriteAheadLog(source / "wal-000.bin")
    wal.append_batch([(INSERT, 1, 2), (INSERT, 3, 4)])
    wal.append_batch([(INSERT, 666, 666)])  # poisoned, uncompensated tail
    wal.close()

    recovered = recover(source, store=Poison())
    assert sorted(recovered.edges()) == [(1, 2), (3, 4)]
    assert recovered.last_recovery["wal_ops"] == 2
    recovered.close()
    # The poisoned record is gone from disk: a plain store recovers too.
    again = recover(source, store=CuckooGraph())
    assert sorted(again.edges()) == [(1, 2), (3, 4)]
    again.close()


def test_poisoned_mid_log_record_is_a_hard_error(tmp_path):
    """Only the *final* record gets the crash benefit of the doubt."""
    from repro.core.errors import PersistenceError
    from repro.persist import MANIFEST_FORMAT, WriteAheadLog

    class Poison(CuckooGraph):
        def insert_edge(self, u, v):
            if (u, v) == (666, 666):
                raise RuntimeError("boom")
            return super().insert_edge(u, v)

        def spawn_empty(self):
            return Poison()

    source = tmp_path / "source"
    source.mkdir()
    (source / MANIFEST_NAME).write_text(json.dumps(
        {"format": MANIFEST_FORMAT, "scheme": None, "segments": 1}))
    wal = WriteAheadLog(source / "wal-000.bin")
    wal.append_batch([(INSERT, 666, 666)])
    wal.append_batch([(INSERT, 1, 2)])  # a commit *after* the poison
    wal.close()

    with pytest.raises(PersistenceError, match="before the tail"):
        recover(source, store=Poison())
