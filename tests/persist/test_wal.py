"""Write-ahead log: framing, group commits, torn tails, corruption."""

import os
import random

import pytest

from repro.core.errors import PersistenceError, WalCorruptError
from repro.persist import (
    DELETE,
    INSERT,
    INSERT_WEIGHTED,
    WAL_HEADER_SIZE,
    WAL_MAGIC,
    WriteAheadLog,
    decode_ops,
    encode_edge_ops,
    encode_ops,
    read_wal_records,
)

BATCHES = [
    [(INSERT, 1, 2), (INSERT, 1, 3)],
    [(DELETE, 1, 2)],
    [(INSERT_WEIGHTED, 4, 5, 7), (INSERT, -9, 2**62)],
]


def read_batches(path):
    """``read_wal_records`` with each record's ops only, not its end offset."""
    generation, records, valid_length = read_wal_records(path)
    return generation, [ops for ops, _ in records], valid_length


def write_batches(path, batches):
    wal = WriteAheadLog(path)
    for batch in batches:
        wal.append_batch(batch)
    wal.close()
    return path


class TestFraming:
    def test_encode_decode_roundtrip(self):
        for batch in BATCHES:
            assert decode_ops(encode_ops(batch)) == batch

    def test_negative_and_large_node_ids_survive(self):
        ops = [(INSERT, -(2**63), 2**63 - 1)]
        assert decode_ops(encode_ops(ops)) == ops

    def test_unknown_tag_is_rejected_at_encode_time(self):
        with pytest.raises(PersistenceError):
            encode_ops([("upsert", 1, 2)])

    def test_unknown_opcode_is_corruption(self):
        with pytest.raises(WalCorruptError):
            decode_ops(b"\xff" + b"\x00" * 16)

    def test_truncated_op_is_corruption(self):
        payload = encode_ops([(INSERT, 1, 2)])
        with pytest.raises(WalCorruptError):
            decode_ops(payload[:-1])


class TestFlatGroupEncoder:
    """``encode_edge_ops`` packs a shard group in one call; the bytes are
    ``encode_ops``'s, so every reader (recovery, replication backfill) is
    untouched by which of the two wrote a record."""

    @pytest.mark.parametrize("tag", [INSERT, DELETE])
    @pytest.mark.parametrize("size", [0, 1, 2, 255, 256, 257, 600])
    def test_byte_identical_to_encode_ops_and_round_trips(self, tag, size):
        rng = random.Random(size)
        extremes = [0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63)]
        edges = [(rng.choice(extremes), rng.randrange(-(2**62), 2**62))
                 if rng.random() < 0.3 else
                 (rng.randrange(-(2**62), 2**62), rng.choice(extremes))
                 for _ in range(size)]
        payload = encode_edge_ops(tag, edges)
        assert payload == encode_ops((tag, u, v) for u, v in edges)
        assert decode_ops(payload) == [(tag, u, v) for u, v in edges]

    def test_accepts_any_sequence_of_pairs(self):
        assert encode_edge_ops(INSERT, ([1, 2], (3, 4))) == \
            encode_ops([(INSERT, 1, 2), (INSERT, 3, 4)])

    def test_rejects_tags_that_are_not_edge_operations(self):
        for tag in (INSERT_WEIGHTED, "upsert"):
            with pytest.raises(PersistenceError):
                encode_edge_ops(tag, [(1, 2)])

    def test_routed_groups_replay_onto_their_own_shards(self):
        """One record per ``partition_edges`` group: decoding every record
        and handing the groups back rebuilds each shard exactly."""
        from repro.core.sharded import ShardedCuckooGraph

        rng = random.Random(5)
        edges = [(rng.randrange(500), rng.randrange(500)) for _ in range(400)]
        live = ShardedCuckooGraph(num_shards=3)
        groups = live.partition_edges(edges)
        records = {index: encode_edge_ops(INSERT, group)
                   for index, group in groups.items()}
        live.insert_groups(groups)

        replica = ShardedCuckooGraph(num_shards=3)
        replica.insert_groups({index: [(u, v) for _, u, v in decode_ops(payload)]
                               for index, payload in records.items()})
        assert [sorted(shard.edges()) for shard in replica.shards] == \
            [sorted(shard.edges()) for shard in live.shards]
        assert replica.counters.snapshot() == live.counters.snapshot()


class TestAppendAndRead:
    def test_roundtrip(self, tmp_path):
        path = write_batches(tmp_path / "wal.bin", BATCHES)
        generation, batches, valid = read_batches(path)
        assert generation == 0
        assert batches == BATCHES
        assert valid == path.stat().st_size

    def test_missing_and_empty_files_read_as_nothing(self, tmp_path):
        assert read_batches(tmp_path / "absent.bin") == (None, [], 0)
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert read_batches(empty) == (None, [], 0)

    def test_header_written_once(self, tmp_path):
        path = write_batches(tmp_path / "wal.bin", BATCHES)
        assert path.read_bytes().startswith(WAL_MAGIC)
        assert path.read_bytes().count(WAL_MAGIC) == 1

    def test_append_resumes_an_existing_log(self, tmp_path):
        path = write_batches(tmp_path / "wal.bin", BATCHES[:2])
        write_batches(path, BATCHES[2:])
        assert read_batches(path)[1] == BATCHES

    def test_empty_batch_is_a_no_op(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.bin")
        assert wal.append_batch([]) == 0
        assert wal.records_appended == 0
        # Lazy open: nothing was ever written, so no file either.
        assert not (tmp_path / "wal.bin").exists()
        wal.close()

    def test_sync_accounting(self, tmp_path):
        """Appending never fsyncs; each sync() is one fsync for all of them."""
        wal = WriteAheadLog(tmp_path / "wal.bin")
        for batch in BATCHES:
            wal.append_batch(batch)
            wal.sync()
        assert wal.syncs == len(BATCHES)

        deferred = WriteAheadLog(tmp_path / "deferred.bin")
        for batch in BATCHES:
            deferred.append_batch(batch)
        assert deferred.syncs == 0
        deferred.sync()
        assert deferred.syncs == 1
        wal.close()
        deferred.close()

    def test_sync_in_two_halves(self, tmp_path):
        """begin_sync hands the records to the OS and names the descriptor;
        finish_sync is the fsync, and re-arms the segment when it fails."""
        wal = WriteAheadLog(tmp_path / "wal.bin")
        assert wal.begin_sync() is None  # nothing appended, nothing opened
        wal.append_batch(BATCHES[0])
        fd = wal.begin_sync()
        assert read_batches(tmp_path / "wal.bin")[1] == BATCHES[:1]
        assert wal.begin_sync() is None  # handed over: nobody else syncs it
        wal.finish_sync(fd)
        assert wal.syncs == 1

        wal.append_batch(BATCHES[1])
        wal.begin_sync()
        stale = os.open(tmp_path, os.O_RDONLY)
        os.close(stale)
        with pytest.raises(OSError):
            wal.finish_sync(stale)
        assert wal.begin_sync() is not None  # unsynced again after the failure
        wal.close()

    def test_closed_wal_refuses_appends(self, tmp_path):
        write_batches(tmp_path / "wal.bin", BATCHES[:1])
        wal = WriteAheadLog(tmp_path / "wal.bin")
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(PersistenceError):
            wal.append_batch(BATCHES[0])
        with pytest.raises(PersistenceError):
            wal.sync()

    def test_truncate_resets_to_header_only(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.bin")
        for batch in BATCHES:
            wal.append_batch(batch)
        wal.truncate(generation=3)
        assert wal.size_bytes == WAL_HEADER_SIZE
        wal.append_batch([(INSERT, 8, 9)])
        wal.close()
        assert read_batches(tmp_path / "wal.bin") == (3, [[(INSERT, 8, 9)]],
                                                  wal.size_bytes)


class TestTornAndCorrupt:
    def test_torn_tail_at_every_byte_offset(self, tmp_path):
        """Cutting the file anywhere keeps exactly the complete records."""
        path = write_batches(tmp_path / "wal.bin", BATCHES)
        data = path.read_bytes()
        _, _, complete = read_batches(path)
        assert complete == len(data)
        for cut in range(len(data) + 1):
            torn = tmp_path / "torn.bin"
            torn.write_bytes(data[:cut])
            generation, batches, valid = read_batches(torn)
            assert generation == (0 if cut >= WAL_HEADER_SIZE else None)
            # Number of records that fit entirely below the cut, and the
            # byte offset where the last of them ends.
            expected, offset = 0, WAL_HEADER_SIZE
            for batch in BATCHES:
                record_len = 8 + len(encode_ops(batch))
                if offset + record_len <= cut:
                    expected += 1
                    offset += record_len
                else:
                    break
            assert batches == BATCHES[:expected], f"cut={cut}"
            assert valid == (offset if cut >= WAL_HEADER_SIZE else 0), f"cut={cut}"

    def test_foreign_magic_is_corruption(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTAWAL!" + b"\x00" * 32)
        with pytest.raises(WalCorruptError):
            read_batches(bad)

    def test_mid_file_corruption_is_not_tolerated(self, tmp_path):
        path = write_batches(tmp_path / "wal.bin", BATCHES)
        data = bytearray(path.read_bytes())
        # Flip a payload byte of the *first* record: CRC fails before the tail.
        data[WAL_HEADER_SIZE + 8] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptError):
            read_batches(path)

    def test_reopen_validates_magic(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTAWAL!" + b"\x00" * 32)
        wal = WriteAheadLog(bad)
        with pytest.raises(WalCorruptError):
            wal.append_batch([(INSERT, 1, 2)])

    def test_fsync_actually_reaches_the_file(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.bin")
        wal.append_batch(BATCHES[0])
        wal.sync()
        # Without closing, the record must be visible to an independent reader.
        assert read_batches(tmp_path / "wal.bin")[1] == BATCHES[:1]
        assert os.path.getsize(tmp_path / "wal.bin") == wal.size_bytes
        wal.close()


class TestSyncSkipsCleanSegments:
    def test_sync_is_a_no_op_with_nothing_buffered(self, tmp_path):
        """Group commit must only pay fsyncs for segments the batch touched."""
        wal = WriteAheadLog(tmp_path / "wal.bin")
        wal.append_batch(BATCHES[0])
        wal.sync()
        assert wal.syncs == 1
        wal.sync()           # clean: no new fsync
        assert wal.syncs == 1
        wal.append_batch(BATCHES[1])
        wal.sync()
        assert wal.syncs == 2
        wal.close()          # clean again: close adds no fsync
        assert wal.syncs == 2
