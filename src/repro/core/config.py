"""Configuration for CuckooGraph and its constituent cuckoo hash tables.

The symbols follow Table I of the paper:

===========  ==================================================================
Symbol        Meaning
===========  ==================================================================
``d``         Number of cells per bucket in L/S-CHT
``R``         Number of large slots in Part 2 of each cell
``G``         Preset loading-rate threshold for expansion
``lam``       Preset overall loading-rate threshold (Λ) for contraction
``T``         Maximum number of kick-out loops in L/S-CHT
``n``         Length (bucket count of the larger array) of the 1st S-CHT
===========  ==================================================================

The paper's tuned values (Section V-B) are ``d = 8``, ``G = 0.9``, ``T = 250``
and ``R = 3`` with a 2:1 ratio between the two bucket arrays of every table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigurationError


@dataclass(frozen=True)
class CuckooGraphConfig:
    """Immutable parameter set for a :class:`~repro.core.graph.CuckooGraph`.

    Attributes:
        d: Cells per bucket in both L-CHT and S-CHT.
        R: Number of large slots per cell (so Part 2 holds ``2 * R`` small
            slots before the first TRANSFORMATION).
        G: Loading-rate threshold triggering expansion of a table chain.
        lam: Overall loading-rate threshold (Λ) below which a chain contracts.
            The memory analysis (Section IV-B) assumes ``lam <= 2 * G / 3``; the
            default of 0.4 additionally keeps ``2 * lam < G`` so that halving a
            single table never pushes it past the expansion threshold.
        T: Maximum number of cuckoo kick-outs before an insertion is declared
            failed and routed to a denylist.
        initial_scht_length: Length ``n`` of the first S-CHT enabled for a
            node (number of buckets in its larger array).
        initial_lcht_length: Length of the first L-CHT.
        array_ratio: Ratio of bucket counts between the two arrays of every
            table; the paper uses 2:1, expressed here as the divisor for the
            second array.
        small_denylist_capacity: Maximum number of ⟨u, v⟩ pairs the global
            S-DL may hold.
        large_denylist_capacity: Maximum number of whole cells the global
            L-DL may hold.
        use_denylist: Whether the DENYLIST optimisation is active.  When it is
            off, every insertion failure immediately expands the affected
            table chain by ``failure_expand_factor`` (the ablation baseline of
            Section V-C).
        failure_expand_factor: Expansion factor applied on insertion failure
            when the denylist is disabled (the paper's ablation uses 1.5x).
        collapse_chain_to_slots: Whether a node whose S-CHT chain shrinks back
            to at most ``2 * R`` neighbours is converted back to direct small
            slots.  The paper only describes S-CHT deletion/compression, so
            the default is ``False``.
        hash_family: Name of the hash family ("mult", "bob" or "modular").
        seed: Master seed from which every hash function seed is derived.
    """

    d: int = 8
    R: int = 3
    G: float = 0.9
    lam: float = 0.4
    T: int = 250
    initial_scht_length: int = 4
    initial_lcht_length: int = 16
    array_ratio: int = 2
    small_denylist_capacity: int = 4096
    large_denylist_capacity: int = 4096
    use_denylist: bool = True
    failure_expand_factor: float = 1.5
    collapse_chain_to_slots: bool = False
    hash_family: str = "mult"
    seed: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if any parameter is out of range."""
        if self.d < 1:
            raise ConfigurationError(f"d must be >= 1, got {self.d}")
        if self.R < 1:
            raise ConfigurationError(f"R must be >= 1, got {self.R}")
        if not 0.0 < self.G <= 1.0:
            raise ConfigurationError(f"G must be in (0, 1], got {self.G}")
        if not 0.0 <= self.lam < 1.0:
            raise ConfigurationError(f"lam (Λ) must be in [0, 1), got {self.lam}")
        if self.lam > 2.0 * self.G / 3.0 + 1e-12:
            raise ConfigurationError(
                f"the stable-state analysis requires Λ <= 2G/3, "
                f"got Λ={self.lam} with G={self.G}"
            )
        if self.T < 1:
            raise ConfigurationError(f"T must be >= 1, got {self.T}")
        if self.initial_scht_length < 1:
            raise ConfigurationError(
                f"initial_scht_length must be >= 1, got {self.initial_scht_length}"
            )
        if self.initial_lcht_length < 1:
            raise ConfigurationError(
                f"initial_lcht_length must be >= 1, got {self.initial_lcht_length}"
            )
        if self.array_ratio < 1:
            raise ConfigurationError(f"array_ratio must be >= 1, got {self.array_ratio}")
        if self.small_denylist_capacity < 0 or self.large_denylist_capacity < 0:
            raise ConfigurationError("denylist capacities must be non-negative")
        if self.failure_expand_factor <= 1.0:
            raise ConfigurationError(
                f"failure_expand_factor must be > 1, got {self.failure_expand_factor}"
            )

    @property
    def small_slots_per_cell(self) -> int:
        """Number of direct small slots in Part 2 before TRANSFORMATION (2R)."""
        return 2 * self.R

    @property
    def weighted_slots_per_cell(self) -> int:
        """Number of ⟨v, w⟩ slots available in the weighted/extended version (R)."""
        return self.R

    def with_overrides(self, **changes) -> "CuckooGraphConfig":
        """Return a copy of this configuration with selected fields replaced."""
        return replace(self, **changes)


#: The configuration used throughout the paper's evaluation (Section V-A/V-B).
PAPER_CONFIG = CuckooGraphConfig()


def tuning_grid() -> dict[str, list]:
    """Parameter grids explored by the paper's tuning experiments (Figs. 2-4)."""
    return {
        "d": [4, 8, 16, 32],
        "G": [0.8, 0.85, 0.9, 0.95],
        "T": [50, 150, 250, 350],
    }
