"""Tests for CuckooGraphConfig validation and derived quantities."""

import dataclasses

import pytest

from repro.core import CuckooGraphConfig, PAPER_CONFIG, tuning_grid
from repro.core.errors import ConfigurationError


class TestDefaults:
    def test_paper_configuration_values(self):
        assert PAPER_CONFIG.d == 8
        assert PAPER_CONFIG.R == 3
        assert PAPER_CONFIG.G == pytest.approx(0.9)
        assert PAPER_CONFIG.T == 250
        assert PAPER_CONFIG.array_ratio == 2
        assert PAPER_CONFIG.use_denylist is True

    def test_field_set(self):
        """Every option is listed here with the code that reads it, so a new
        (or newly unused) one is noticed: ``track_counters`` sat in this class
        documented, defaulted and read nowhere."""
        assert {field.name for field in dataclasses.fields(CuckooGraphConfig)} == {
            "d", "R", "G", "lam", "T", "array_ratio",            # tables and chains
            "initial_scht_length", "initial_lcht_length",
            "small_denylist_capacity", "large_denylist_capacity",  # denylists
            "use_denylist", "failure_expand_factor",               # ablation
            "collapse_chain_to_slots",                             # Part 2
            "hash_family", "seed",                                 # hashing
        }

    def test_lambda_respects_stable_state_assumption(self):
        assert PAPER_CONFIG.lam <= 2 * PAPER_CONFIG.G / 3

    def test_slot_capacities(self):
        assert PAPER_CONFIG.small_slots_per_cell == 2 * PAPER_CONFIG.R
        assert PAPER_CONFIG.weighted_slots_per_cell == PAPER_CONFIG.R


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"d": 0},
            {"R": 0},
            {"G": 0.0},
            {"G": 1.5},
            {"lam": -0.1},
            {"lam": 0.95},          # violates lam <= 2G/3
            {"T": 0},
            {"initial_scht_length": 0},
            {"initial_lcht_length": 0},
            {"array_ratio": 0},
            {"small_denylist_capacity": -1},
            {"failure_expand_factor": 1.0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            CuckooGraphConfig(**overrides)

    def test_valid_custom_configuration(self):
        config = CuckooGraphConfig(d=4, R=2, G=0.8, lam=0.3, T=50)
        assert config.small_slots_per_cell == 4

    def test_with_overrides_returns_new_object(self):
        changed = PAPER_CONFIG.with_overrides(d=4)
        assert changed.d == 4
        assert PAPER_CONFIG.d == 8
        assert changed is not PAPER_CONFIG

    def test_with_overrides_still_validates(self):
        with pytest.raises(ConfigurationError):
            PAPER_CONFIG.with_overrides(G=2.0)

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            PAPER_CONFIG.d = 16  # type: ignore[misc]


class TestTuningGrid:
    def test_grid_matches_paper_sweeps(self):
        grid = tuning_grid()
        assert grid["d"] == [4, 8, 16, 32]
        assert grid["G"] == [0.8, 0.85, 0.9, 0.95]
        assert grid["T"] == [50, 150, 250, 350]

    def test_every_grid_point_is_a_valid_configuration(self):
        grid = tuning_grid()
        for parameter, values in grid.items():
            for value in values:
                config = PAPER_CONFIG.with_overrides(**{parameter: value})
                assert getattr(config, parameter) == value
