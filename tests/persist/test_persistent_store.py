"""PersistentStore: contract behaviour, segmentation, compaction, lifecycle."""

import json
import random

import pytest

from repro import CuckooGraph, ShardedCuckooGraph, WeightedCuckooGraph
from repro.core import CuckooGraphConfig
from repro.core.errors import PersistenceError, StoreClosedError
from repro.persist import (
    MANIFEST_NAME,
    PersistentStore,
    SNAPSHOT_NAME,
    recover,
)
from repro.persist.wal import DELETE, INSERT, read_wal_records
from repro.tiered import TieredStore

EDGES = [(1, 2), (1, 3), (2, 3), (40, 1), (5, 5), (7, 1), (7, 2)]


class TestBasics:
    def test_mutations_apply_and_read_back(self, tmp_path):
        with PersistentStore(tmp_path / "s", scheme="cuckoo") as store:
            assert store.insert_edge(1, 2) is True
            assert store.insert_edge(1, 2) is False
            assert store.has_edge(1, 2)
            assert store.successors(1) == [2]
            assert store.delete_edge(1, 2) is True
            assert store.num_edges == 0

    @pytest.mark.parametrize("sync_on_commit", [True, False], ids=["fsync", "buffered"])
    def test_batch_calls_are_single_group_commits(self, tmp_path, sync_on_commit):
        with PersistentStore(tmp_path / "s", scheme="cuckoo",
                             sync_on_commit=sync_on_commit) as store:
            assert store.insert_edges(EDGES) == len(EDGES)
            assert store.commits == 1
            assert store.delete_edges(EDGES[:2]) == 2
            assert store.commits == 2
            # Reads never commit.
            store.has_edges(EDGES)
            store.successors_many([1, 7])
            assert store.commits == 2
            # One segment: a commit is one fsync, and a buffered store issues
            # none before close.
            syncs = store.persistence_summary()["wal_syncs"]
            assert syncs == (store.commits if sync_on_commit else 0)

    def test_fsyncs_fall_as_batches_grow(self, tmp_path):
        edges = [(u, u + 1) for u in range(64)]
        fsyncs = []
        for batch in (1, 16, 64):
            with PersistentStore(tmp_path / f"batch-{batch}", scheme="sharded") as store:
                for start in range(0, len(edges), batch):
                    store.insert_edges(edges[start:start + batch])
                fsyncs.append(store.persistence_summary()["wal_syncs"])
        # One fsync per segment a commit touched: one per edge at batch 1,
        # four per commit once a batch spans all four segments.
        assert fsyncs == [64, 4 * 4, 1 * 4]

    def test_manifest_records_scheme_and_segments(self, tmp_path):
        with PersistentStore(tmp_path / "s", scheme="sharded"):
            manifest = json.loads((tmp_path / "s" / MANIFEST_NAME).read_text())
        assert manifest["scheme"] == "sharded"
        assert manifest["segments"] == 4

    def test_sharded_store_gets_one_segment_per_shard(self, tmp_path):
        inner = ShardedCuckooGraph(num_shards=3)
        with PersistentStore(tmp_path / "s", store=inner, own_store=True) as store:
            store.insert_edges(EDGES)
            # Every edge's record went to the segment of its source's shard.
            for index in range(3):
                expected = [e for e in EDGES if inner.shard_of(e[0]) == index]
                segment = tmp_path / "s" / f"wal-{index:03d}.bin"
                if expected:
                    assert segment.exists()

    def test_fresh_init_over_existing_store_is_refused(self, tmp_path):
        with PersistentStore(tmp_path / "s", scheme="cuckoo") as store:
            store.insert_edge(1, 2)
        with pytest.raises(PersistenceError):
            PersistentStore(tmp_path / "s", scheme="cuckoo")

    def test_unknown_scheme_name(self, tmp_path):
        with pytest.raises(PersistenceError):
            PersistentStore(tmp_path / "s", scheme="btree")

    def test_weighted_operations_are_logged_and_recovered(self, tmp_path):
        with PersistentStore(tmp_path / "s", scheme="weighted") as store:
            assert store.insert_weighted_edge(1, 2, 3) == 3
            assert store.edge_weight(1, 2) == 3
            store.delete_edge(1, 2)  # decrements to 2
        recovered = recover(tmp_path / "s")
        assert recovered.edge_weight(1, 2) == 2
        recovered.close()

    def test_weighted_insert_on_plain_store_is_a_type_error(self, tmp_path):
        with PersistentStore(tmp_path / "s", scheme="cuckoo") as store:
            with pytest.raises(TypeError):
                store.insert_weighted_edge(1, 2)
            # Nothing must have been logged for the refused operation.
            assert store.commits == 0


class TestRoutedOnce:
    def test_a_tiered_batch_is_routed_once(self, tmp_path):
        """The groups a commit logs are the groups the store applies: one
        ``insert_groups``/``delete_groups`` call per batch, never a second
        routing through the store's own ``insert_edges``/``delete_edges``,
        and the tiers end where a bare store fed the same batches ends."""
        rng = random.Random(3)
        inner = TieredStore(num_shards=4, hot_shards=1)
        bare = TieredStore(num_shards=4, hot_shards=1)
        applied = []  # (tag, groups) per apply call, in commit order

        def spy(tag, apply):
            def call(groups):
                applied.append((tag, groups))
                return apply(groups)
            return call

        def refuse(edges):
            raise AssertionError("the commit routed its batch a second time")

        inner.insert_groups = spy(INSERT, inner.insert_groups)
        inner.delete_groups = spy(DELETE, inner.delete_groups)
        inner.insert_edges = inner.delete_edges = refuse
        with PersistentStore(tmp_path / "s", store=inner, own_store=True,
                             compact_wal_bytes=None) as store:
            for call in range(40):
                batch = [(rng.randrange(64), rng.randrange(64))
                         for _ in range(rng.randrange(0, 50))]
                if call % 3 == 2:
                    assert store.delete_edges(batch) == bare.delete_edges(batch)
                else:
                    assert store.insert_edges(batch) == bare.insert_edges(batch)
                assert len(applied) == call + 1
            assert inner.promotions > 0  # shards migrated while being logged
            assert inner.tier_stats() == bare.tier_stats()
            assert inner.accesses == bare.accesses
            assert sorted(inner.edges()) == sorted(bare.edges())
            segments = store.segment_paths
        for index, segment in enumerate(segments):
            _, records, _ = read_wal_records(segment)
            logged = [list(ops) for ops, _ in records]
            assert logged == [[(tag, u, v) for u, v in groups[index]]
                              for tag, groups in applied if index in groups], index
        bare.close()


class TestLifecycle:
    def test_close_is_terminal_and_idempotent(self, tmp_path):
        store = PersistentStore(tmp_path / "s", scheme="cuckoo")
        store.insert_edges(EDGES)
        store.close()
        store.close()
        assert store.closed
        for mutation in (
            lambda: store.insert_edge(9, 9),
            lambda: store.delete_edge(1, 2),
            lambda: store.insert_edges([(9, 9)]),
            lambda: store.delete_edges([(1, 2)]),
            lambda: store.sync(),
            lambda: store.checkpoint(),
        ):
            with pytest.raises(StoreClosedError):
                mutation()
        # Reads still delegate after close.
        assert store.has_edge(1, 2)
        assert sorted(store.edges()) == sorted(EDGES)

    def test_close_closes_an_owned_inner_store(self, tmp_path):
        store = PersistentStore(tmp_path / "s", scheme="sharded")
        inner = store.store
        store.close()
        assert inner.closed

    def test_close_leaves_a_caller_store_open(self, tmp_path):
        inner = ShardedCuckooGraph(num_shards=2)
        store = PersistentStore(tmp_path / "s", store=inner, own_store=False)
        store.close()
        assert not inner.closed
        inner.close()

    def test_ephemeral_store_removes_its_directory(self):
        store = PersistentStore(scheme="cuckoo")
        store.insert_edges(EDGES)
        path = store.path
        assert path.exists()
        store.close()
        assert not path.exists()

    def test_spawn_empty_is_independent_and_same_scheme(self, tmp_path):
        store = PersistentStore(tmp_path / "s", scheme="sharded")
        store.insert_edges(EDGES)
        fresh = store.spawn_empty()
        assert fresh is not store
        assert fresh.num_edges == 0
        assert isinstance(fresh.store, ShardedCuckooGraph)
        assert fresh.store.num_shards == store.store.num_shards
        assert fresh.insert_edge(1, 2) is True
        assert store.num_edges == len(EDGES)
        # Spawned directories stay under the parent store's directory.
        assert str(fresh.path).startswith(str(store.path))
        fresh.close()
        store.close()

    def test_spawn_empty_keeps_the_wrapped_config(self, tmp_path):
        inner = ShardedCuckooGraph(num_shards=4, config=CuckooGraphConfig(d=4))
        with PersistentStore(tmp_path / "s", store=inner, own_store=True) as store:
            with store.spawn_empty() as fresh:
                assert fresh.store.config.d == 4
                assert [shard.config.d for shard in fresh.store.shards] == [4] * 4

    def test_spawned_store_is_itself_recoverable(self, tmp_path):
        store = PersistentStore(tmp_path / "s", scheme="cuckoo")
        fresh = store.spawn_empty()
        fresh.insert_edges(EDGES)
        spawn_path = fresh.path
        fresh.close()
        recovered = recover(spawn_path)
        assert sorted(recovered.edges()) == sorted(EDGES)
        recovered.close()
        store.close()


class TestCompaction:
    def test_threshold_compaction_snapshots_and_truncates(self, tmp_path):
        store = PersistentStore(tmp_path / "s", scheme="cuckoo",
                                compact_wal_bytes=256)
        for index in range(200):
            store.insert_edge(index, index + 1)
        assert store.compactions >= 1
        assert (tmp_path / "s" / SNAPSHOT_NAME).exists()
        # The WAL stays bounded: never much past the threshold plus one batch.
        assert store.wal_bytes() <= 256 + 64
        store.close()
        recovered = recover(tmp_path / "s")
        assert recovered.num_edges == 200
        assert recovered.last_recovery["snapshot_rows"] >= 1
        recovered.close()

    def test_explicit_checkpoint(self, tmp_path):
        store = PersistentStore(tmp_path / "s", scheme="weighted",
                                compact_wal_bytes=None)
        store.insert_weighted_edge(1, 2, 5)
        rows = store.checkpoint()
        assert rows == 1
        store.close()
        recovered = recover(tmp_path / "s")
        assert recovered.last_recovery["wal_ops"] == 0
        assert recovered.last_recovery["snapshot_rows"] == rows
        assert recovered.edge_weight(1, 2) == 5
        recovered.close()

    def test_summary_shape(self, tmp_path):
        with PersistentStore(tmp_path / "s", scheme="cuckoo") as store:
            store.insert_edges(EDGES)
            summary = store.persistence_summary()
        assert summary["segments"] == 1
        assert summary["commits"] == 1
        assert summary["wal_records"] == 1
        assert summary["wal_bytes"] > 0
        assert summary["scheme"] == "cuckoo"
        structure = store.structure_summary()
        assert "persistence" in structure and "store" in structure


class TestRecoverErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(PersistenceError):
            recover(tmp_path)

    def test_segment_mismatch(self, tmp_path):
        with PersistentStore(tmp_path / "s", scheme="sharded") as store:
            store.insert_edge(1, 2)
        with pytest.raises(PersistenceError):
            recover(tmp_path / "s", store=ShardedCuckooGraph(num_shards=2))

    def test_nonempty_target_store(self, tmp_path):
        with PersistentStore(tmp_path / "s", scheme="cuckoo") as store:
            store.insert_edge(1, 2)
        dirty = CuckooGraph()
        dirty.insert_edge(9, 9)
        with pytest.raises(PersistenceError):
            recover(tmp_path / "s", store=dirty)

    def test_anonymous_scheme_needs_explicit_store(self, tmp_path):
        inner = WeightedCuckooGraph()
        with PersistentStore(tmp_path / "s", store=inner, own_store=True) as store:
            store.insert_edge(1, 2)
        with pytest.raises(PersistenceError):
            recover(tmp_path / "s")
        recovered = recover(tmp_path / "s", store=WeightedCuckooGraph())
        assert recovered.has_edge(1, 2)
        recovered.close()


class _PoisonStore(CuckooGraph):
    """Inner store whose apply fails on a designated edge (capacity stand-in)."""

    name = "PoisonStore"

    def insert_edge(self, u: int, v: int) -> bool:
        if (u, v) == (666, 666):
            raise RuntimeError("synthetic capacity exhaustion")
        return super().insert_edge(u, v)


class TestFailedApplyCompensation:
    def test_failed_apply_is_rolled_back_out_of_the_wal(self, tmp_path):
        """A mutation the store refused must not survive in the log.

        Without compensation the poisoned record would re-raise inside every
        future recover(), leaving the directory permanently unrecoverable.
        """
        store = PersistentStore(tmp_path / "s", store=_PoisonStore(),
                                own_store=True, compact_wal_bytes=None)
        store.insert_edges([(1, 2), (3, 4)])
        commits_before = store.commits
        with pytest.raises(RuntimeError, match="synthetic"):
            store.insert_edges([(5, 6), (666, 666), (7, 8)])
        assert store.commits == commits_before  # rolled back
        with pytest.raises(RuntimeError, match="synthetic"):
            store.insert_edge(666, 666)
        store.close()
        # The log replays cleanly into an ordinary store: only the accepted
        # commits are there (the partially applied (5, 6) died with memory).
        recovered = recover(tmp_path / "s", store=CuckooGraph())
        assert sorted(recovered.edges()) == [(1, 2), (3, 4)]
        recovered.close()

    def test_rollback_only_drops_the_failed_commit(self, tmp_path):
        store = PersistentStore(tmp_path / "s", store=_PoisonStore(),
                                own_store=True, compact_wal_bytes=None)
        store.insert_edges([(1, 2)])
        with pytest.raises(RuntimeError):
            store.insert_edge(666, 666)
        store.insert_edges([(3, 4)])  # the log keeps accepting commits
        store.close()
        recovered = recover(tmp_path / "s", store=CuckooGraph())
        assert sorted(recovered.edges()) == [(1, 2), (3, 4)]
        recovered.close()


class TestManifestRobustness:
    def test_corrupt_manifest_is_a_persistence_error(self, tmp_path):
        with PersistentStore(tmp_path / "s", scheme="cuckoo") as store:
            store.insert_edge(1, 2)
        (tmp_path / "s" / MANIFEST_NAME).write_text("{ torn")
        with pytest.raises(PersistenceError, match=MANIFEST_NAME):
            recover(tmp_path / "s")

    def test_manifest_write_leaves_no_temp_file(self, tmp_path):
        from repro.persist import LOCK_NAME

        with PersistentStore(tmp_path / "s", scheme="cuckoo"):
            names = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert names == sorted([LOCK_NAME, MANIFEST_NAME])


class TestWriterExclusivity:
    def test_live_directory_refuses_a_second_writer_and_recovery(self, tmp_path):
        """The advisory lock keeps truncating readers away from live writers."""
        store = PersistentStore(tmp_path / "s", scheme="cuckoo")
        store.insert_edge(1, 2)
        with pytest.raises(PersistenceError, match="held by"):
            recover(tmp_path / "s")
        store.close()  # releases the lock
        recovered = recover(tmp_path / "s")
        assert recovered.has_edge(1, 2)
        # ...and the recovered wrapper holds it in turn.
        with pytest.raises(PersistenceError, match="held by"):
            recover(tmp_path / "s")
        recovered.close()


#: (scheme name, weighted store, plain store): a lone graph, and a sharded
#: front-end, which has ``insert_weighted_edge`` whether or not it is weighted.
WEIGHTED_AND_PLAIN = pytest.mark.parametrize("scheme, weighted, plain", [
    ("weighted", WeightedCuckooGraph, CuckooGraph),
    ("sharded-weighted", lambda: ShardedCuckooGraph(num_shards=4, weighted=True),
     lambda: ShardedCuckooGraph(num_shards=4)),
], ids=["single", "sharded"])


class TestSchemeMismatchSafety:
    @WEIGHTED_AND_PLAIN
    def test_weighted_log_into_plain_store_fails_without_data_loss(
            self, tmp_path, scheme, weighted, plain):
        """Recovering with the wrong scheme must error out, not destroy records."""
        with PersistentStore(tmp_path / "s", scheme=scheme,
                             compact_wal_bytes=None) as store:
            for u in range(1, 5):
                store.insert_edge(u, u + 1)
            store.insert_weighted_edge(1, 50, 2)
        segments = sorted((tmp_path / "s").glob("wal-*.bin"))
        sizes_before = [segment.stat().st_size for segment in segments]
        with pytest.raises(PersistenceError, match="not weighted"):
            recover(tmp_path / "s", store=plain())
        # Nothing was truncated or set aside by the failed attempt.
        assert [segment.stat().st_size for segment in segments] == sizes_before
        assert not list((tmp_path / "s").glob("*.poisoned"))
        recovered = recover(tmp_path / "s")  # the manifest's weighted scheme
        assert recovered.num_edges == 5
        assert recovered.edge_weight(1, 50) == 2
        recovered.close()

    @WEIGHTED_AND_PLAIN
    def test_weightedness_is_the_wrapped_stores(self, tmp_path, scheme, weighted, plain):
        assert weighted().weighted is True and plain().weighted is False
        with PersistentStore(tmp_path / "w", store=weighted()) as store:
            assert store.weighted is True
            assert store.insert_weighted_edge(1, 2, 3) == 3
        with PersistentStore(tmp_path / "p", store=plain()) as store:
            assert store.weighted is False
            logged = store.wal_bytes()
            with pytest.raises(TypeError, match="not weighted"):
                store.insert_weighted_edge(1, 2)
            # Refused before anything was logged.
            assert store.commits == 0
            assert store.wal_bytes() == logged

    def test_poisoned_record_bytes_are_preserved_in_a_sidecar(self, tmp_path):
        import json

        from repro.persist import MANIFEST_FORMAT, WriteAheadLog
        from repro.persist.wal import INSERT

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
        wal.append_batch([(INSERT, 1, 2)])
        wal.append_batch([(INSERT, 666, 666)])
        wal.close()
        recovered = recover(source, store=Poison())
        assert sorted(recovered.edges()) == [(1, 2)]
        sidecar = source / "wal-000.bin.poisoned"
        assert sidecar.exists() and sidecar.stat().st_size > 0
        recovered.close()
