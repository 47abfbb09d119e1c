"""Snapshots: logical-edge-set roundtrips, atomicity, corruption, compaction."""

import random
import struct
import zlib

import pytest

from repro import CuckooGraph, MultiEdgeCuckooGraph, ShardedCuckooGraph, WeightedCuckooGraph
from repro.core.errors import SnapshotCorruptError
from repro.persist import (
    CompactionPolicy,
    KIND_PLAIN,
    KIND_WEIGHTED,
    SNAPSHOT_MAGIC,
    PersistentStore,
    load_snapshot,
    read_snapshot,
    recover,
    snapshot_generation,
    snapshot_rows,
    write_snapshot,
)

EDGES = [(1, 2), (1, 3), (2, 3), (40, 1), (5, 5)]

#: Magic, then kind (u8), rows, sources, generation (u64 each), body CRC and
#: header CRC (u32 each): the body starts here.
HEADER_BYTES = 8 + 1 + 3 * 8 + 4 + 4


def _plain():
    store = CuckooGraph()
    store.insert_edges(EDGES)
    return store


def _weighted():
    store = WeightedCuckooGraph()
    for u, v in EDGES:
        store.insert_weighted_edge(u, v, u + v)
    store.insert_weighted_edge(-(2**63), 2**63 - 1, 2**40)
    return store


def _multi_edge():
    store = MultiEdgeCuckooGraph()
    for edge_id, (u, v) in enumerate(EDGES + EDGES[:2]):
        store.add_edge(u, v, edge_id=edge_id)
    return store


def _sharded_weighted():
    store = ShardedCuckooGraph(num_shards=3, weighted=True)
    for u, v in EDGES:
        store.insert_weighted_edge(u, v, 7 * u + v)
    return store


def _v1_file(path, kind, rows, generation):
    """A format-v1 snapshot, packed row by row: magic, kind, rows,
    generation, body CRC, then the rows."""
    row = struct.Struct("<qqq" if kind == KIND_WEIGHTED else "<qq")
    body = b"".join(row.pack(*fields) for fields in rows)
    path.write_bytes(b"CKGRSNP1" + struct.pack("<BQQI", kind, len(rows), generation,
                                               zlib.crc32(body)) + body)


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
    def test_body_is_the_columns_packed_one_by_one(self, tmp_path, weighted):
        """The format's definition: magic, header fields, their CRC, then the
        zlib of the source-major columns -- each packed value by value here,
        where the codec packs them in one call."""
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
        sources = sorted({row[0] for row in rows})
        columns = b"".join(struct.pack("<q", u) for u in sources)
        columns += b"".join(struct.pack("<I", sum(row[0] == u for row in rows))
                            for u in sources)
        columns += b"".join(struct.pack("<q", row[1]) for row in rows)
        if weighted:
            columns += b"".join(struct.pack("<q", row[2]) for row in rows)
        data = path.read_bytes()
        fields, body = data[8:37], data[41:]
        assert data[:8] == SNAPSHOT_MAGIC == b"CKGRSNP2"
        assert struct.unpack("<BQQQI", fields) == (
            kind, len(rows), len(sources), 7, zlib.crc32(body))
        assert struct.unpack("<I", data[37:41])[0] == zlib.crc32(fields)
        assert zlib.decompress(body) == columns
        assert read_snapshot(path) == (kind, 7, rows)
        assert snapshot_generation(path) == 7

    @pytest.mark.parametrize("factory", [
        _plain, _weighted, _multi_edge, _sharded_weighted, CuckooGraph,
        WeightedCuckooGraph,
    ], ids=["plain", "weighted", "multi-edge", "sharded-weighted", "empty",
            "empty-weighted"])
    def test_columns_round_trip(self, tmp_path, factory):
        store = factory()
        path = tmp_path / "snapshot.bin"
        kind, rows = snapshot_rows(store)
        assert write_snapshot(path, store, generation=3) == len(rows)
        assert read_snapshot(path) == (kind, 3, rows)
        target = store.spawn_empty()
        assert load_snapshot(path, target) == (len(rows), 3)
        assert snapshot_rows(target) == (kind, rows)
        for graph in (store, target):
            if isinstance(graph, ShardedCuckooGraph):
                graph.close()

    @pytest.mark.parametrize("factory", [CuckooGraph, lambda: ShardedCuckooGraph(num_shards=4)],
                             ids=["plain", "sharded"])
    def test_loading_builds_what_one_insert_per_row_builds(self, tmp_path, factory):
        """A plain target gets the source-major rows in one ``insert_edges``
        call, which places each source's run without walking the L-CHT
        again; the result must be the structure one ``insert_edge`` per row
        builds, down to every count and every successor list's order."""
        rng = random.Random(25)
        store = CuckooGraph()
        store.insert_edges((int(400 * rng.random() ** 3), rng.randrange(10_000))
                           for _ in range(6000))
        path = tmp_path / "snapshot.bin"
        write_snapshot(path, store)
        _, _, rows = read_snapshot(path)
        loaded, looped = factory(), factory()
        assert load_snapshot(path, loaded) == (len(rows), 0)
        for u, v in rows:
            looped.insert_edge(u, v)
        sources = list(dict.fromkeys(u for u, _ in rows)) + [-1]
        assert loaded.successors_many(sources) == {u: looped.successors(u) for u in sources}
        assert loaded.counters.snapshot() == looped.counters.snapshot()
        assert loaded.structure_summary() == looped.structure_summary()
        assert loaded.memory_bytes() == looped.memory_bytes()
        assert list(loaded.edges()) == list(looped.edges())
        for graph in (loaded, looped):
            graph.close()

    def test_source_past_65535_destinations_round_trips(self, tmp_path):
        """The degree column is u32: one source with 70 000 destinations,
        between two ordinary ones (a stand-in store: a plain snapshot reads
        nothing but ``edges()``)."""
        rows = [(5, 1), (5, 2)] + [(2**40, v) for v in range(70_000)] + [(2**41, 3)]

        class Edges:
            def edges(self):
                return iter(rows)

        path = tmp_path / "snapshot.bin"
        write_snapshot(path, Edges())
        assert read_snapshot(path) == (KIND_PLAIN, 0, rows)

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

    def test_every_header_bit_is_checked(self, tmp_path):
        """A flipped header bit -- the generation's included -- is refused by
        the full read and by the header-only generation read alike."""
        path = self._valid_snapshot(tmp_path)
        data = path.read_bytes()
        for index in range(HEADER_BYTES):
            for bit in range(8):
                damaged = bytearray(data)
                damaged[index] ^= 1 << bit
                path.write_bytes(bytes(damaged))
                with pytest.raises(SnapshotCorruptError):
                    read_snapshot(path)
                with pytest.raises(SnapshotCorruptError):
                    snapshot_generation(path)

    @pytest.mark.parametrize("factory", [_plain, _weighted], ids=["plain", "weighted"])
    def test_every_damaged_byte_and_every_cut_is_refused(self, tmp_path, factory):
        """Flip any byte, header or body, or cut the file anywhere: the result
        is SnapshotCorruptError -- never another exception, never rows."""
        path = tmp_path / "snapshot.bin"
        write_snapshot(path, factory(), generation=1)
        data = path.read_bytes()
        damaged_files = [data[:cut] for cut in range(len(data))]
        for index in range(len(data)):
            for flip in (0x01, 0x80, 0xFF):
                damaged = bytearray(data)
                damaged[index] ^= flip
                damaged_files.append(bytes(damaged))
        for damaged in damaged_files:
            path.write_bytes(damaged)
            with pytest.raises(SnapshotCorruptError):
                read_snapshot(path)

    def test_decompressed_length_and_degree_sum_are_checked(self, tmp_path):
        """Bodies whose checksums hold but whose columns do not fit the header."""
        path = tmp_path / "snapshot.bin"

        def write(body, rows, sources):
            fields = struct.pack("<BQQQI", KIND_PLAIN, rows, sources, 0, zlib.crc32(body))
            path.write_bytes(SNAPSHOT_MAGIC + fields + struct.pack("<I", zlib.crc32(fields))
                             + body)

        columns = struct.pack("<2q2I3q", 1, 2, 2, 1, 10, 11, 12)
        write(zlib.compress(columns), 3, 2)
        assert read_snapshot(path) == (KIND_PLAIN, 0, [(1, 10), (1, 11), (2, 12)])
        for body, rows, sources in [
            (b"not zlib", 3, 2),                               # does not decompress
            (zlib.compress(columns + b"\0"), 3, 2),            # one byte too many
            (zlib.compress(columns), 4, 2),                    # rows disagree
            (zlib.compress(struct.pack("<2q2I3q", 1, 2, 2, 2, 10, 11, 12)), 3, 2),
        ]:
            write(body, rows, sources)
            with pytest.raises(SnapshotCorruptError):
                read_snapshot(path)


class TestFormatV1:
    """Directories checkpointed in format v1 still load; only v2 is written."""

    @pytest.mark.parametrize("kind, rows", [
        (KIND_PLAIN, [(1, 2), (1, 3), (4, -5)]),
        (KIND_WEIGHTED, [(1, 2, 3), (7, 8, 1)]),
    ])
    def test_v1_file_loads_with_its_generation(self, tmp_path, kind, rows):
        path = tmp_path / "snapshot.bin"
        _v1_file(path, kind, rows, generation=4)
        assert read_snapshot(path) == (kind, 4, rows)
        assert snapshot_generation(path) == 4
        damaged = bytearray(path.read_bytes())
        damaged[-1] ^= 0xFF
        path.write_bytes(bytes(damaged))
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)

    def test_v1_directory_recovers_and_its_next_checkpoint_writes_v2(self, tmp_path):
        source = tmp_path / "s"
        store = PersistentStore(source, scheme="weighted", compact_wal_bytes=None)
        store.insert_weighted_edge(1, 2, 5)
        store.checkpoint()
        kind, rows = snapshot_rows(store.store)
        store.insert_weighted_edge(1, 2, 1)  # post-snapshot commit, weight 6
        store.close()
        _v1_file(source / "snapshot.bin", kind, rows, generation=1)

        recovered = recover(source)
        assert recovered.edge_weight(1, 2) == 6
        assert recovered.last_recovery["wal_ops"] == 1
        recovered.checkpoint()
        recovered.close()
        assert (source / "snapshot.bin").read_bytes()[:8] == SNAPSHOT_MAGIC
        assert read_snapshot(source / "snapshot.bin") == (KIND_WEIGHTED, 2, [(1, 2, 6)])


class TestCompactionPolicy:
    def test_threshold(self):
        policy = CompactionPolicy(max_wal_bytes=100)
        assert not policy.should_compact(100)
        assert policy.should_compact(101)

    def test_disabled(self):
        policy = CompactionPolicy(max_wal_bytes=None)
        assert not policy.should_compact(10**12)
