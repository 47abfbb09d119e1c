"""Hash-function families used by the cuckoo hash tables.

The paper uses 32-bit Bob Jenkins hashes ("Bob Hash") with random initial
seeds for both the large and the small cuckoo hash tables.  This module
provides:

* :class:`BobHash` -- a faithful pure-Python port of Bob Jenkins' ``lookup2``
  style mixing for 8-byte integer keys, matching the reference used by the
  paper's C++ implementation in spirit (32-bit output, seedable).
* :class:`MultiplyShiftHash` -- a fast multiply-shift (Dietzfelbinger) hash.
  Pure-Python Bob hashing is roughly an order of magnitude slower than a
  single multiply; both families are high quality for the integer keys used
  here, and which one is active does not change any structural behaviour
  (loading rates, kick statistics, memory layout).  Benchmarks default to the
  fast family; tests exercise both.
* :class:`ModularHash` -- the simple modular hash assumed by the Theorem 2
  analysis (same hash for both arrays, bucket index taken modulo the array
  length), used by the amortized-cost experiments.
* :class:`HashFamily` -- a factory that deals out independent, deterministic
  hash functions from a master seed, so that every table in a graph gets its
  own pair of functions while the whole structure stays reproducible.

Every class builds its hash as a plain closure over its constants
(``.function``) and the family deals out that closure: tables hash eight to
ten times per edge, and a closure call skips ``__call__`` and attribute loads.
"""

from __future__ import annotations

import random
from typing import Callable

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Golden-ratio constant used by Bob Jenkins' hash.
_GOLDEN = 0x9E3779B9


#: A seeded hash function mapping an integer key to a 32-bit value.
HashFunction = Callable[[int], int]


def _mix(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Bob Jenkins' 96-bit mix function (lookup2), on 32-bit lanes."""
    a = (a - b - c) & _MASK32
    a ^= c >> 13
    b = (b - c - a) & _MASK32
    b ^= (a << 8) & _MASK32
    c = (c - a - b) & _MASK32
    c ^= b >> 13
    a = (a - b - c) & _MASK32
    a ^= c >> 12
    b = (b - c - a) & _MASK32
    b ^= (a << 16) & _MASK32
    c = (c - a - b) & _MASK32
    c ^= b >> 5
    a = (a - b - c) & _MASK32
    a ^= c >> 3
    b = (b - c - a) & _MASK32
    b ^= (a << 10) & _MASK32
    c = (c - a - b) & _MASK32
    c ^= b >> 15
    return a, b, c


class BobHash:
    """32-bit Bob Jenkins hash over an 8-byte integer key.

    The key is treated as two 32-bit words (low, high), mirroring how the
    paper's C++ implementation hashes 8-byte node identifiers.
    """

    __slots__ = ("seed", "function")

    def __init__(self, seed: int = 0):
        self.seed = seed & _MASK32
        initial = (self.seed + 8) & _MASK32

        def function(key: int) -> int:
            key &= _MASK64
            a = (_GOLDEN + (key & _MASK32)) & _MASK32
            b = (_GOLDEN + (key >> 32)) & _MASK32
            return _mix(a, b, initial)[2]

        self.function = function

    def __call__(self, key: int) -> int:
        return self.function(key)

    def __repr__(self) -> str:
        return f"BobHash(seed={self.seed:#010x})"


class MultiplyShiftHash:
    """Fast multiply-shift hash (64-bit multiply, 32-bit output)."""

    __slots__ = ("multiplier", "addend", "function")

    def __init__(self, seed: int = 0):
        rng = random.Random(seed)
        # Odd multiplier per Dietzfelbinger's multiply-shift scheme.
        multiplier = self.multiplier = rng.getrandbits(64) | 1
        addend = self.addend = rng.getrandbits(64)

        def function(key: int) -> int:
            return ((key * multiplier + addend) & _MASK64) >> 32

        self.function = function

    def __call__(self, key: int) -> int:
        return self.function(key)

    def __repr__(self) -> str:
        return f"MultiplyShiftHash(multiplier={self.multiplier:#x})"


class ModularHash:
    """The "same modular hash" assumed in the Theorem 2 analysis.

    Both candidate buckets of a key are derived from the *same* value; the
    table maps it into its own bucket range.  A light xor-fold keeps distinct
    keys from colliding trivially while preserving the modular structure the
    proof relies on (a key's bucket only changes when the table length does).
    """

    __slots__ = ("seed", "function")

    def __init__(self, seed: int = 0):
        seed = self.seed = seed & _MASK32

        def function(key: int) -> int:
            return (key ^ seed) & _MASK32

        self.function = function

    def __call__(self, key: int) -> int:
        return self.function(key)

    def __repr__(self) -> str:
        return f"ModularHash(seed={self.seed:#010x})"


#: Registry of hash family names understood by :class:`HashFamily`.
_FAMILIES: dict[str, type] = {
    "bob": BobHash,
    "mult": MultiplyShiftHash,
    "modular": ModularHash,
}


class HashFamily:
    """Deals out independent deterministic hash functions from a master seed.

    Every cuckoo table in a graph asks the family for a pair of functions; the
    family hands back functions whose seeds are derived from the master seed
    and a monotonically increasing counter, so two graphs built with the same
    configuration hash identically.
    """

    def __init__(self, family: str = "mult", seed: int = 1):
        if family not in _FAMILIES:
            raise ValueError(
                f"unknown hash family {family!r}; expected one of {sorted(_FAMILIES)}"
            )
        self.family = family
        self.seed = seed
        self._rng = random.Random(seed)

    def make(self) -> HashFunction:
        """Return the next independent hash function in the family."""
        derived_seed = self._rng.getrandbits(32)
        return _FAMILIES[self.family](derived_seed).function

    def make_pair(self) -> tuple[HashFunction, HashFunction]:
        """Return two independent hash functions (H1, H2) / (h1, h2)."""
        return self.make(), self.make()

    def __repr__(self) -> str:
        return f"HashFamily(family={self.family!r}, seed={self.seed})"
