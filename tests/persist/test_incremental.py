"""The compaction hook: ``CompactionPolicy.subscribe`` delivers the
pre-truncation event -- old/new generation plus per-segment offsets -- for
both explicit and threshold checkpoints, while the segments still hold the
records the checkpoint folds (what a replication primary drains first).
"""

from repro import ShardedCuckooGraph
from repro.persist import WAL_HEADER_SIZE, PersistentStore


def test_compaction_hook_fires_before_truncation(tmp_path):
    """The event carries the pre-truncation offsets and both generations."""
    events = []
    store = PersistentStore(tmp_path / "s", store=ShardedCuckooGraph(num_shards=2),
                            own_store=True, compact_wal_bytes=None)

    def observer(event):
        # Fired *before* truncation: the segments still hold the records.
        sizes = tuple(p.stat().st_size if p.exists() else 0
                      for p in store.segment_paths)
        events.append((event, sizes))

    store.compaction_policy.subscribe(observer)
    store.insert_edges([(u, u + 1) for u in range(16)])
    offsets_before = tuple(max(p.stat().st_size, WAL_HEADER_SIZE)
                           for p in store.segment_paths)
    store.checkpoint()

    assert len(events) == 1
    event, sizes_at_fire = events[0]
    assert event.generation == 0
    assert event.new_generation == 1
    assert event.path == store.path
    assert event.wal_offsets == offsets_before
    assert sizes_at_fire == offsets_before  # records still on disk at fire time
    # After the checkpoint the segments are back to bare headers.
    assert all(p.stat().st_size == WAL_HEADER_SIZE for p in store.segment_paths)

    store.compaction_policy.unsubscribe(observer)
    store.insert_edge(100, 200)
    store.checkpoint()
    assert len(events) == 1  # unsubscribed: no second event
    store.close()


def test_compaction_hook_fires_on_threshold_compaction(tmp_path):
    events = []
    store = PersistentStore(tmp_path / "s", scheme="cuckoo",
                            compact_wal_bytes=256)
    store.compaction_policy.subscribe(lambda event: events.append(event))
    for u in range(120):
        store.insert_edge(u, u + 1)
    assert store.compactions >= 1
    assert len(events) == store.compactions
    assert [e.new_generation for e in events] == \
        list(range(1, store.compactions + 1))
    store.close()
