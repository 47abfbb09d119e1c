"""Tests for Part 2 of an L-CHT cell (small slots -> S-CHT chain)."""

import random

from repro.core import CuckooGraphConfig
from repro.core.counters import Counters
from repro.core.hashing import HashFamily
from repro.core.slots import AdjacencyPart2, MODE_CHAIN, MODE_SLOTS


def make_part2(config=None, slot_capacity=None, drain_source=None):
    config = config if config is not None else CuckooGraphConfig(initial_scht_length=2)
    return AdjacencyPart2(
        config=config,
        hash_family=HashFamily("mult", 7),
        counters=Counters(),
        rng=random.Random(7),
        slot_capacity=slot_capacity,
        drain_source=drain_source,
    )


class TestSlotMode:
    def test_starts_in_slot_mode_with_2R_capacity(self):
        part2 = make_part2()
        assert part2.mode == MODE_SLOTS
        assert part2.slot_capacity == 6  # 2R with R=3
        assert not part2.is_transformed

    def test_insert_and_lookup_within_capacity(self):
        part2 = make_part2()
        for v in range(6):
            assert part2.insert(v, None) == []
        assert part2.mode == MODE_SLOTS
        assert len(part2) == 6
        assert 3 in part2
        assert 99 not in part2
        assert sorted(part2.neighbours()) == list(range(6))

    def test_weighted_capacity_is_R(self):
        part2 = make_part2(slot_capacity=3)
        for v in range(3):
            part2.insert(v, 1)
        assert part2.mode == MODE_SLOTS
        part2.insert(3, 1)
        assert part2.mode == MODE_CHAIN

    def test_set_updates_payload(self):
        part2 = make_part2()
        part2.insert(1, "old")
        assert part2.set(1, "new") is True
        assert part2.get(1) == "new"
        assert part2.set(9, "x") is False

    def test_delete_in_slot_mode(self):
        part2 = make_part2()
        part2.insert(1, None)
        deleted, leftovers = part2.delete(1)
        assert deleted and leftovers == []
        deleted, _ = part2.delete(1)
        assert not deleted


class TestTransformation:
    def test_exceeding_capacity_transforms_to_chain(self):
        part2 = make_part2()
        for v in range(6):
            part2.insert(v, None)
        assert part2.mode == MODE_SLOTS
        part2.insert(6, None)  # the 2R+1-th neighbour triggers TRANSFORMATION
        assert part2.mode == MODE_CHAIN
        assert part2.is_transformed
        assert part2.chain is not None
        assert sorted(part2.neighbours()) == list(range(7))

    def test_chain_keeps_growing(self):
        part2 = make_part2()
        parked = set()
        for v in range(500):
            parked.update(key for key, _ in part2.insert(v, None))
        # Unplaceable values are handed back for the S-DL; nothing vanishes.
        assert set(part2.neighbours()) | parked == set(range(500))
        assert len(part2) == 500 - len(parked)
        assert part2.chain.num_tables <= 3

    def test_payloads_survive_transformation(self):
        part2 = make_part2()
        for v in range(7):
            part2.insert(v, v * 10)
        assert part2.get(5) == 50
        assert part2.get(6) == 60

    def test_set_after_transformation(self):
        part2 = make_part2()
        for v in range(10):
            part2.insert(v, v)
        assert part2.set(8, "updated") is True
        assert part2.get(8) == "updated"

    def test_delete_after_transformation(self):
        part2 = make_part2()
        parked = set()
        for v in range(50):
            parked.update(k for k, _ in part2.insert(v, None))
        assert sorted(part2.neighbours() + list(parked)) == list(range(50))
        for v in range(40):
            deleted, leftovers = part2.delete(v)
            # A neighbour handed back earlier lives with the caller (the
            # graph's S-DL), so Part 2 reports it missing.
            assert deleted is (v not in parked)
            parked.discard(v)
            parked.update(k for k, _ in leftovers)
        assert sorted(part2.neighbours() + list(parked)) == list(range(40, 50))

    def test_collapse_back_to_slots_when_enabled(self):
        config = CuckooGraphConfig(initial_scht_length=2, collapse_chain_to_slots=True)
        part2 = make_part2(config=config)
        for v in range(20):
            part2.insert(v, None)
        assert part2.mode == MODE_CHAIN
        for v in range(18):
            part2.delete(v)
        assert part2.mode == MODE_SLOTS
        assert sorted(part2.neighbours()) == [18, 19]

    def test_no_collapse_by_default(self):
        part2 = make_part2()
        for v in range(20):
            part2.insert(v, None)
        for v in range(19):
            part2.delete(v)
        assert part2.mode == MODE_CHAIN

    def test_force_expand_from_slot_mode_transforms(self):
        part2 = make_part2()
        part2.insert(1, None)
        part2.force_expand()
        assert part2.mode == MODE_CHAIN
        assert 1 in part2

    def test_chain_modelled_bytes_zero_in_slot_mode(self):
        part2 = make_part2()
        part2.insert(1, None)
        assert part2.chain_modelled_bytes(8) == 0
        for v in range(10):
            part2.insert(v + 10, None)
        assert part2.chain_modelled_bytes(8) > 0

    def test_drain_source_used_after_chain_expansion(self):
        parked = [(900, None), (901, None)]

        def drain():
            items, parked[:] = list(parked), []
            return items

        config = CuckooGraphConfig(initial_scht_length=2, d=4)
        part2 = make_part2(config=config, drain_source=drain)
        for v in range(120):
            part2.insert(v, None)
        assert 900 in part2
        assert 901 in part2
