"""Snapshots: logical-edge-set roundtrips, atomicity, corruption, compaction."""

import struct

import pytest

from repro import CuckooGraph, MultiEdgeCuckooGraph, ShardedCuckooGraph, WeightedCuckooGraph
from repro.core.errors import SnapshotCorruptError
from repro.persist import (
    CompactionPolicy,
    KIND_PLAIN,
    KIND_WEIGHTED,
    SNAPSHOT_MAGIC,
    load_snapshot,
    read_snapshot,
    snapshot_rows,
    write_snapshot,
)

EDGES = [(1, 2), (1, 3), (2, 3), (40, 1), (5, 5)]


class TestKinds:
    def test_plain_store_snapshots_pairs(self):
        store = CuckooGraph()
        store.insert_edges(EDGES)
        kind, rows = snapshot_rows(store)
        assert kind == KIND_PLAIN
        assert rows == sorted(EDGES)

    def test_weighted_store_snapshots_triples(self):
        store = WeightedCuckooGraph()
        store.insert_weighted_edge(1, 2, 3)
        store.insert_weighted_edge(7, 8, 1)
        kind, rows = snapshot_rows(store)
        assert kind == KIND_WEIGHTED
        assert rows == [(1, 2, 3), (7, 8, 1)]

    def test_multiedge_store_snapshots_multiplicities(self):
        store = MultiEdgeCuckooGraph()
        store.add_edge(1, 2, edge_id=10)
        store.add_edge(1, 2, edge_id=11)
        store.add_edge(3, 4, edge_id=12)
        kind, rows = snapshot_rows(store)
        assert kind == KIND_WEIGHTED
        assert rows == [(1, 2, 2), (3, 4, 1)]

    def test_unweighted_sharded_store_snapshots_pairs(self):
        store = ShardedCuckooGraph(num_shards=3)
        store.insert_edges(EDGES)
        kind, rows = snapshot_rows(store)
        assert kind == KIND_PLAIN
        assert rows == sorted(EDGES)
        store.close()

    def test_weighted_sharded_store_snapshots_triples(self):
        store = ShardedCuckooGraph(num_shards=3, weighted=True)
        store.insert_weighted_edge(1, 2, 4)
        kind, rows = snapshot_rows(store)
        assert kind == KIND_WEIGHTED
        assert rows == [(1, 2, 4)]
        store.close()


class TestRoundtrip:
    def test_plain_roundtrip(self, tmp_path):
        store = CuckooGraph()
        store.insert_edges(EDGES)
        path = tmp_path / "snapshot.bin"
        assert write_snapshot(path, store, generation=5) == len(EDGES)
        target = CuckooGraph()
        assert load_snapshot(path, target) == (len(EDGES), 5)
        assert sorted(target.edges()) == sorted(EDGES)

    def test_weighted_roundtrip_preserves_weights(self, tmp_path):
        store = WeightedCuckooGraph()
        store.insert_weighted_edge(1, 2, 3)
        store.insert_weighted_edge(4, 5, 9)
        path = tmp_path / "snapshot.bin"
        write_snapshot(path, store)
        target = WeightedCuckooGraph()
        load_snapshot(path, target)
        assert target.edge_weight(1, 2) == 3
        assert target.edge_weight(4, 5) == 9

    def test_multiedge_roundtrip_preserves_multiplicity(self, tmp_path):
        store = MultiEdgeCuckooGraph()
        store.add_edge(1, 2, edge_id=10)
        store.add_edge(1, 2, edge_id=11)
        path = tmp_path / "snapshot.bin"
        write_snapshot(path, store)
        target = MultiEdgeCuckooGraph()
        load_snapshot(path, target)
        assert target.edge_multiplicity(1, 2) == 2

    def test_weighted_rows_collapse_into_a_plain_target(self, tmp_path):
        store = WeightedCuckooGraph()
        store.insert_weighted_edge(1, 2, 5)
        path = tmp_path / "snapshot.bin"
        write_snapshot(path, store)
        target = CuckooGraph()
        load_snapshot(path, target)
        assert sorted(target.edges()) == [(1, 2)]
        assert target.num_edges == 1

    @pytest.mark.parametrize("weighted", [False, True])
    def test_body_is_the_rows_packed_one_by_one(self, tmp_path, weighted):
        """The body is packed (and read back) in one call; the bytes are what
        packing row by row -- the format's definition -- produces."""
        ids = [0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63), 12345]
        store = WeightedCuckooGraph() if weighted else CuckooGraph()
        for index, u in enumerate(ids):
            for v in ids[:3 + index % 4]:
                if weighted:
                    store.insert_weighted_edge(u, v, index + 1)
                else:
                    store.insert_edge(u, v)
        path = tmp_path / "snap.bin"
        write_snapshot(path, store, generation=7)
        kind, rows = snapshot_rows(store)
        row = struct.Struct("<qqq" if weighted else "<qq")
        body = b"".join(row.pack(*fields) for fields in rows)
        assert path.read_bytes()[-len(body):] == body
        assert len(path.read_bytes()) == len(SNAPSHOT_MAGIC) + 21 + len(body)
        assert read_snapshot(path) == (kind, 7, rows)

    def test_missing_snapshot_loads_nothing(self, tmp_path):
        assert load_snapshot(tmp_path / "absent.bin", CuckooGraph()) == (0, 0)

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        store = CuckooGraph()
        store.insert_edges(EDGES)
        write_snapshot(tmp_path / "snapshot.bin", store)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snapshot.bin"]

    def test_rewrite_replaces_previous_snapshot(self, tmp_path):
        store = CuckooGraph()
        store.insert_edge(1, 2)
        path = tmp_path / "snapshot.bin"
        write_snapshot(path, store)
        store.insert_edge(3, 4)
        write_snapshot(path, store)
        kind, generation, rows = read_snapshot(path)
        assert kind == KIND_PLAIN
        assert generation == 0
        assert rows == [(1, 2), (3, 4)]


class TestCorruption:
    def _valid_snapshot(self, tmp_path):
        store = CuckooGraph()
        store.insert_edges(EDGES)
        path = tmp_path / "snapshot.bin"
        write_snapshot(path, store)
        return path

    def test_foreign_magic(self, tmp_path):
        path = self._valid_snapshot(tmp_path)
        path.write_bytes(b"NOTSNAP!" + path.read_bytes()[8:])
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)

    def test_flipped_body_byte(self, tmp_path):
        path = self._valid_snapshot(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)

    def test_truncated_body(self, tmp_path):
        path = self._valid_snapshot(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)

    def test_truncated_header(self, tmp_path):
        path = self._valid_snapshot(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)


class TestCompactionPolicy:
    def test_threshold(self):
        policy = CompactionPolicy(max_wal_bytes=100)
        assert not policy.should_compact(100)
        assert policy.should_compact(101)

    def test_disabled(self):
        policy = CompactionPolicy(max_wal_bytes=None)
        assert not policy.should_compact(10**12)
