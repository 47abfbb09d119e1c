"""Workload-generator properties: determinism, Poisson arrivals, zipf skew."""

import json
import math
import random

import pytest

from repro.core.errors import ConfigurationError
from repro.tiered import TieredStore
from repro.traffic import (
    FailureSpec,
    ScenarioConfig,
    ZipfRanks,
    poisson_arrivals,
    preset,
    ranked_keys,
    tenant_keys,
    tenant_schedule,
)


# --------------------------------------------------------------------- #
# Determinism
# --------------------------------------------------------------------- #

def test_tenant_schedule_is_deterministic():
    config = ScenarioConfig(seed=99, duration_s=1.0, target_ops_s=500.0,
                            tenants=3)
    first = tenant_schedule(config, 2)
    assert first == tenant_schedule(config, 2)
    assert len(first) > 0
    # A different seed produces a different schedule.
    assert tenant_schedule(config.with_overrides(seed=100), 2) != first


def test_tenants_draw_independent_streams():
    config = ScenarioConfig(seed=7, duration_s=1.0, target_ops_s=400.0,
                            tenants=2)
    per_tenant = {t: tenant_schedule(config, t) for t in (0, 1)}
    assert per_tenant[0] and per_tenant[1]
    assert all(e.tenant == t for t, events in per_tenant.items() for e in events)
    assert [e.at_s for e in per_tenant[0]] != [e.at_s for e in per_tenant[1]]


def test_schedule_is_time_sorted_and_in_range():
    config = ScenarioConfig(seed=3, duration_s=0.8, target_ops_s=600.0,
                            tenants=2)
    for tenant in range(config.tenants):
        events = tenant_schedule(config, tenant)
        times = [e.at_s for e in events]
        assert times == sorted(times)
        assert all(0 <= t < config.duration_s for t in times)
        assert all(e.rank_u != e.rank_v for e in events)  # no self-loops


# --------------------------------------------------------------------- #
# Arrival processes
# --------------------------------------------------------------------- #

def test_poisson_arrivals_hit_mean_rate():
    rng = random.Random(42)
    times = poisson_arrivals(rng, rate=1000.0, duration_s=2.0)
    assert 1700 <= len(times) <= 2300  # ~2000 +- a few sigma
    assert all(0 <= t < 2.0 for t in times)


# --------------------------------------------------------------------- #
# Zipf skew
# --------------------------------------------------------------------- #

def head_mass(count, exponent, top):
    """Analytic probability that a zipf draw lands in the ``top`` hottest ranks."""
    masses = [1.0 / (rank + 1) ** exponent for rank in range(count)]
    return math.fsum(masses[:top]) / math.fsum(masses)


def test_zipf_top_fraction_mass_matches_sampling():
    zipf = ZipfRanks(1000, 1.1)
    analytic = head_mass(1000, 1.1, 10)  # hottest 10 of 1000 ranks
    assert analytic > 0.3  # zipf(1.1) concentrates hard on the head
    rng = random.Random(1234)
    draws = 20_000
    hits = sum(1 for _ in range(draws) if zipf.sample(rng) < 10)
    assert hits / draws == pytest.approx(analytic, abs=0.02)


def test_zipf_mass_is_monotone_in_fraction():
    zipf = ZipfRanks(512, 1.1)
    rng = random.Random(99)
    draws = [zipf.sample(rng) for _ in range(20_000)]
    assert all(0 <= rank < 512 for rank in draws)
    tops = [math.ceil(512 * fraction) for fraction in (0.01, 0.1, 0.25, 1.0)]
    sampled = [sum(1 for rank in draws if rank < top) / len(draws) for top in tops]
    analytic = [head_mass(512, 1.1, top) for top in tops]
    assert analytic == sorted(analytic)
    assert sampled == sorted(sampled)
    assert sampled[-1] == analytic[-1] == pytest.approx(1.0)
    assert sampled == pytest.approx(analytic, abs=0.02)
    with pytest.raises(ConfigurationError):
        ZipfRanks(512, 0.0)


# --------------------------------------------------------------------- #
# Key layouts
# --------------------------------------------------------------------- #

def test_hashed_layout_is_plain_ranks():
    config = ScenarioConfig(tenants=2, keys_per_tenant=64)
    assert ranked_keys(config) == list(range(128))


def test_shard_major_layout_groups_hot_ranks():
    config = ScenarioConfig(tenants=1, keys_per_tenant=128,
                            key_layout="shard_major", scheme="tiered",
                            num_shards=4, hot_shards=1)
    store = TieredStore(num_shards=4, hot_shards=1)
    try:
        ranked = ranked_keys(config, num_shards=4)
        assert len(ranked) == 128
        assert len(set(ranked)) == 128
        # The hottest quarter of the ranking lives on a single shard.
        head = ranked[:32]
        assert len({store.shard_of(u) for u in head}) == 1
        # Deterministic given the seed.
        assert ranked == ranked_keys(config, num_shards=4)
    finally:
        store.close()


def test_shard_major_requires_routing():
    config = ScenarioConfig(key_layout="shard_major")
    with pytest.raises(ConfigurationError):
        ranked_keys(config)


def test_tenant_keys_disjoint_vs_shared():
    config = ScenarioConfig(tenants=2, keys_per_tenant=16)
    ranked = ranked_keys(config)
    a = tenant_keys(config, ranked, 0)
    b = tenant_keys(config, ranked, 1)
    assert len(a) == len(b) == 16
    assert not set(a) & set(b)
    shared = config.with_overrides(tenant_layout="shared")
    ranked_shared = ranked_keys(shared)
    assert tenant_keys(shared, ranked_shared, 0) \
        == tenant_keys(shared, ranked_shared, 1)


# --------------------------------------------------------------------- #
# Config validation and round-trip
# --------------------------------------------------------------------- #

def test_config_json_round_trip(tmp_path):
    config = preset("failover")
    path = tmp_path / "scenario.json"
    text = json.dumps(config.to_dict(), indent=2, sort_keys=True)
    path.write_text(text)
    assert ScenarioConfig.from_json(path) == config
    assert ScenarioConfig.from_json(text) == config


def test_config_rejects_bad_values():
    for arrival in ("constant", "bursty", "uniform"):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(arrival=arrival)
    for kind in ("stall_fsync", "drop_channel"):
        with pytest.raises(ConfigurationError):
            FailureSpec(at_s=0.1, kind=kind)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(mix={"write": 1.0})
    with pytest.raises(ConfigurationError):
        ScenarioConfig(mix={"insert": 0.0})
    with pytest.raises(ConfigurationError):
        ScenarioConfig(failures=(FailureSpec(at_s=0.1, kind="kill_replica"),))
    with pytest.raises(ConfigurationError):
        ScenarioConfig.from_dict({"nonsense_field": 1})
    with pytest.raises(ConfigurationError):
        preset("nope")


def test_presets_are_valid_and_distinct():
    names = ("smoke", "skewed", "failover")
    configs = {name: preset(name) for name in names}
    assert configs["skewed"].scheme == "tiered"
    assert configs["failover"].replicas == 2
    assert configs["failover"].failures[0].kind == "kill_replica"
    assert len({c.name for c in configs.values()}) == 3
