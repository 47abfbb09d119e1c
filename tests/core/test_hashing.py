"""Tests for the hash-function families used by every cuckoo table."""

import random

import pytest

from repro import CuckooGraph, CuckooGraphConfig
from repro.core.hashing import BobHash, HashFamily, ModularHash, MultiplyShiftHash

from .test_golden_counts import TIGHT


class TestBobHash:
    def test_deterministic_for_same_seed(self):
        first, second = BobHash(seed=7), BobHash(seed=7)
        assert [first(k) for k in range(100)] == [second(k) for k in range(100)]

    def test_different_seeds_differ(self):
        first, second = BobHash(seed=1), BobHash(seed=2)
        values_first = [first(k) for k in range(64)]
        values_second = [second(k) for k in range(64)]
        assert values_first != values_second

    def test_output_is_32_bit(self):
        hasher = BobHash(seed=3)
        for key in [0, 1, 2**31, 2**63 - 1, 2**64 - 1]:
            assert 0 <= hasher(key) < 2**32

    def test_large_keys_use_high_word(self):
        hasher = BobHash(seed=5)
        assert hasher(1) != hasher(1 + (1 << 32))

    def test_spread_over_buckets(self):
        hasher = BobHash(seed=11)
        buckets = [0] * 16
        for key in range(4000):
            buckets[hasher(key) % 16] += 1
        assert min(buckets) > 100  # no bucket starved

    def test_repr_mentions_seed(self):
        assert "seed" in repr(BobHash(seed=1))


class TestMultiplyShiftHash:
    def test_deterministic_for_same_seed(self):
        first, second = MultiplyShiftHash(seed=9), MultiplyShiftHash(seed=9)
        assert [first(k) for k in range(100)] == [second(k) for k in range(100)]

    def test_output_is_32_bit(self):
        hasher = MultiplyShiftHash(seed=9)
        for key in [0, 1, 2**40, 2**64 - 1]:
            assert 0 <= hasher(key) < 2**32

    def test_multiplier_is_odd(self):
        assert MultiplyShiftHash(seed=4).multiplier % 2 == 1

    @pytest.mark.parametrize("seed, multiplier, addend", [
        (0, 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4),
        (1, 0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67),
        (2**32 - 1, 0x73B13BA2AFF181C1, 0x612043051340D3B4),
    ])
    def test_constants_are_two_splitmix64_steps(self, seed, multiplier, addend):
        hasher = MultiplyShiftHash(seed)
        assert (hasher.multiplier, hasher.addend) == (multiplier, addend)

    def test_spread_over_buckets(self):
        hasher = MultiplyShiftHash(seed=21)
        buckets = [0] * 16
        for key in range(4000):
            buckets[hasher(key) % 16] += 1
        assert min(buckets) > 100


class TestModularHash:
    def test_same_key_same_value(self):
        hasher = ModularHash(seed=0)
        assert hasher(42) == hasher(42)

    def test_seed_perturbs_value(self):
        assert ModularHash(seed=1)(42) != ModularHash(seed=2)(42)


class TestHashFamily:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            HashFamily("sha", seed=1)

    @pytest.mark.parametrize("family", ["bob", "mult", "modular"])
    def test_make_pair_returns_two_functions(self, family):
        pair = HashFamily(family, seed=1).make_pair()
        assert len(pair) == 2
        assert all(callable(function) for function in pair)

    def test_family_is_reproducible(self):
        first = HashFamily("mult", seed=5)
        second = HashFamily("mult", seed=5)
        h1a, h1b = first.make_pair()
        h2a, h2b = second.make_pair()
        assert [h1a(k) for k in range(50)] == [h2a(k) for k in range(50)]
        assert [h1b(k) for k in range(50)] == [h2b(k) for k in range(50)]

    def test_functions_are_independent(self):
        family = HashFamily("mult", seed=5)
        first, second = family.make_pair()
        same = sum(1 for k in range(1000) if first(k) % 64 == second(k) % 64)
        assert same < 100  # far from identical mappings


def test_tables_are_born_without_seeding_a_random_generator(monkeypatch):
    """A table's hash constants are integer arithmetic on its seed: once the
    graph is built, transforming, expanding and contracting seed nothing."""
    graph = CuckooGraph(CuckooGraphConfig(**TIGHT))
    rng = random.Random(11)
    edges = list({(rng.randrange(40), rng.getrandbits(62)) for _ in range(3000)})
    seedings = []
    original_seed = random.Random.seed

    def counting_seed(self, *args, **kwargs):
        seedings.append(args)
        return original_seed(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counting_seed)
    for u, v in edges:
        graph.insert_edge(u, v)
    transformed = graph.structure_summary()["nodes_with_scht_chain"]
    for u, v in edges[:-40]:
        graph.delete_edge(u, v)
    assert transformed > 0
    assert graph.counters.expansions > 0 and graph.counters.contractions > 0
    assert seedings == []
