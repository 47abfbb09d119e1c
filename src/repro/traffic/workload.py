"""Seeded workload generation: arrivals, zipfian keys, tenant schedules.

Everything here is a pure function of a :class:`~repro.traffic.config.ScenarioConfig`
(plus, for the shard-major key layout, the target store's shard count):
the same config always produces the same arrival times, the same request
kinds and the same key sequence, which is what makes a scenario replayable
and what the determinism property tests pin down.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.errors import ConfigurationError
from ..interfaces import shard_index
from .config import ScenarioConfig

def _tenant_rng(seed: int, tenant: int) -> random.Random:
    # Integer mixing, not a string/tuple seed: str hashing is salted per
    # process, which would silently break cross-process determinism.
    return random.Random(seed * 1_000_003 + tenant * 7919)


# --------------------------------------------------------------------- #
# Arrival processes
# --------------------------------------------------------------------- #

def poisson_arrivals(rng: random.Random, rate: float,
                     duration_s: float) -> List[float]:
    """Open-loop Poisson arrivals: exponential gaps at ``rate`` ops/s."""
    times: List[float] = []
    at = rng.expovariate(rate)
    while at < duration_s:
        times.append(at)
        at += rng.expovariate(rate)
    return times


# --------------------------------------------------------------------- #
# Zipfian key popularity
# --------------------------------------------------------------------- #

class ZipfRanks:
    """Zipf(``exponent``) sampler over ranks ``0 .. count-1`` (0 = hottest).

    Precomputes the cumulative mass once; sampling is one uniform draw plus
    a binary search, so a generator can draw tens of thousands of keys
    without re-deriving the distribution.
    """

    def __init__(self, count: int, exponent: float):
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        if exponent <= 0:
            raise ConfigurationError(f"exponent must be > 0, got {exponent}")
        self.count = count
        self.exponent = exponent
        masses = [1.0 / (rank + 1) ** exponent for rank in range(count)]
        total = math.fsum(masses)
        self._cumulative: List[float] = []
        running = 0.0
        for mass in masses:
            running += mass / total
            self._cumulative.append(running)
        self._cumulative[-1] = 1.0  # guard against float drift

    def sample(self, rng: random.Random) -> int:
        """Draw one rank (0 is the most popular)."""
        return bisect_right(self._cumulative, rng.random())


# --------------------------------------------------------------------- #
# Key layout
# --------------------------------------------------------------------- #

def ranked_keys(config: ScenarioConfig, num_shards: Optional[int] = None) -> List[int]:
    """The node-id universe ordered by popularity rank (index 0 hottest).

    ``"hashed"`` layout ranks plain integer ids, so popular keys stripe
    across shards (the routing hash decorrelates id from shard).
    ``"shard_major"`` groups the ranked sequence by owning shard -- the
    hottest ranks all live on a few shards, modeling tenant data locality --
    with the shard order itself seeded-shuffled so the hot shards are *not*
    the tiered store's initial hot set and the admission policy has to
    discover them.
    """
    total = config.total_keys
    if config.key_layout == "hashed":
        return list(range(total))
    if num_shards is None:
        raise ConfigurationError(
            'key_layout="shard_major" needs the target store\'s num_shards'
        )
    per_shard = math.ceil(total / num_shards)
    buckets: List[List[int]] = [[] for _ in range(num_shards)]
    filled = 0
    candidate = 0
    # Walk candidate ids until every shard bucket can contribute its quota.
    while filled < total:
        bucket = buckets[shard_index(candidate, num_shards)]
        if len(bucket) < per_shard:
            bucket.append(candidate)
            filled += 1
        candidate += 1
    order = list(range(num_shards))
    _tenant_rng(config.seed, tenant=num_shards).shuffle(order)
    ranked: List[int] = []
    for shard in order:
        ranked.extend(buckets[shard])
    return ranked[:total]


def tenant_keys(config: ScenarioConfig, ranked: Sequence[int],
                tenant: int) -> Sequence[int]:
    """The rank-ordered key list tenant ``tenant`` draws from."""
    if config.tenant_layout == "shared":
        return ranked
    start = tenant * config.keys_per_tenant
    return ranked[start:start + config.keys_per_tenant]


# --------------------------------------------------------------------- #
# Schedules
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class TrafficEvent:
    """One scheduled request: when, who, what kind, which key ranks.

    Ranks, not node ids: the schedule is layout-independent, and the driver
    maps ranks through the tenant's ranked key list at submit time.
    """

    at_s: float
    tenant: int
    kind: str
    rank_u: int
    rank_v: int


def tenant_schedule(config: ScenarioConfig, tenant: int) -> List[TrafficEvent]:
    """Deterministic event list for one tenant (sorted by arrival time)."""
    rng = _tenant_rng(config.seed, tenant)
    rate = config.target_ops_s / config.tenants
    times = poisson_arrivals(rng, rate, config.duration_s)
    mix = config.normalized_mix
    kinds = list(mix)
    weights = [mix[kind] for kind in kinds]
    zipf = ZipfRanks(config.keys_per_tenant
                     if config.tenant_layout == "disjoint"
                     else config.total_keys,
                     config.zipf_exponent)
    events: List[TrafficEvent] = []
    for at in times:
        kind = rng.choices(kinds, weights=weights)[0]
        rank_u = zipf.sample(rng)
        rank_v = zipf.sample(rng)
        if rank_v == rank_u:  # no self-loops; nudge to the neighbouring rank
            rank_v = (rank_u + 1) % zipf.count
        events.append(TrafficEvent(at, tenant, kind, rank_u, rank_v))
    return events
