"""Tests for the hash-function families used by every cuckoo table."""

import pytest

from repro.core.hashing import BobHash, HashFamily, ModularHash, MultiplyShiftHash


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
