"""Tests for the multi-cell cuckoo hash table."""

import random

import pytest

from repro.core.counters import Counters
from repro.core.cuckoo_table import CuckooHashTable
from repro.core.hashing import HashFamily


def make_table(length=8, d=4, max_kicks=50, seed=1):
    family = HashFamily("mult", seed)
    return CuckooHashTable(
        length=length,
        d=d,
        hash_pair=family.make_pair(),
        max_kicks=max_kicks,
        counters=Counters(),
        rng=random.Random(seed),
    )


class TestBasicOperations:
    def test_insert_and_get(self):
        table = make_table()
        assert table.insert(1, "a") is None
        assert table.get(1) == "a"
        assert 1 in table
        assert len(table) == 1

    def test_get_missing_returns_default(self):
        table = make_table()
        assert table.get(99) is None
        assert table.get(99, "missing") == "missing"

    def test_insert_overwrites_existing_key(self):
        table = make_table()
        table.insert(5, "old")
        table.insert(5, "new")
        assert table.get(5) == "new"
        assert len(table) == 1

    def test_delete(self):
        table = make_table()
        table.insert(3, None)
        assert table.delete(3) is True
        assert table.delete(3) is False
        assert 3 not in table
        assert len(table) == 0

    def test_update_only_touches_existing(self):
        table = make_table()
        table.insert(7, 1)
        assert table.update(7, 2) is True
        assert table.get(7) == 2
        assert table.update(8, 2) is False
        assert 8 not in table

    def test_items_and_keys(self):
        table = make_table()
        for key in range(20):
            table.insert(key, key * 10)
        assert dict(table.items()) == {key: key * 10 for key in range(20)}
        assert sorted(table.keys()) == list(range(20))

    def test_zero_length_rejected(self):
        family = HashFamily("mult", 1)
        with pytest.raises(ValueError):
            CuckooHashTable(0, 4, family.make_pair(), 10)


class TestCapacityAndKicks:
    def test_many_inserts_up_to_reasonable_load(self):
        table = make_table(length=32, d=8, max_kicks=200)
        inserted = 0
        for key in range(int(table.num_cells * 0.85)):
            if table.insert(key, key) is None:
                inserted += 1
        assert inserted >= int(table.num_cells * 0.80)
        assert len(table) == inserted

    def test_failure_returns_evicted_pair(self):
        # A tiny table with a tiny kick budget must eventually report failure.
        table = make_table(length=1, d=1, max_kicks=2)
        leftovers = [table.insert(key, key) for key in range(10)]
        failures = [pair for pair in leftovers if pair is not None]
        assert failures, "expected at least one insertion failure"
        for key, value in failures:
            assert key == value

    def test_size_consistent_after_failures(self):
        table = make_table(length=1, d=2, max_kicks=3)
        failed = 0
        for key in range(20):
            if table.insert(key, key) is not None:
                failed += 1
        assert len(table) == 20 - failed
        assert len(list(table.items())) == len(table)

    def test_counters_track_probes_and_attempts(self):
        counters = Counters()
        family = HashFamily("mult", 3)
        table = CuckooHashTable(8, 4, family.make_pair(), 50, counters=counters,
                                rng=random.Random(1))
        for key in range(30):
            table.insert(key, None)
        assert counters.bucket_probes > 0
        assert counters.insert_attempts >= 30


class TestLoadingRateAndMemory:
    def test_loading_rate(self):
        table = make_table(length=8, d=4)
        assert table.loading_rate == 0.0
        for key in range(12):
            table.insert(key, None)
        assert table.loading_rate == pytest.approx(12 / table.num_cells)

    def test_num_buckets_follows_two_to_one_ratio(self):
        table = make_table(length=8, d=4)
        assert table.num_buckets == 8 + 4
        assert table.num_cells == 12 * 4

    def test_modelled_bytes(self):
        table = make_table(length=8, d=4)
        assert table.modelled_bytes(16) == table.num_cells * 16

    def test_pop_all_empties_the_table(self):
        table = make_table()
        for key in range(15):
            table.insert(key, key)
        drained = table.pop_all()
        assert sorted(key for key, _ in drained) == list(range(15))
        assert len(table) == 0
        assert list(table.items()) == []
