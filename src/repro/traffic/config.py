"""Declarative scenario configuration for the production-traffic harness.

A :class:`ScenarioConfig` is the whole experiment in one JSON-serialisable
dataclass, the shape SNIPPETS' declarative ``ExperimentConfig`` exemplifies:
open-loop load (Poisson arrivals at a target rate), the request-class mix,
multi-tenant keyspaces with zipfian popularity, the deployment scheme the
driver builds (service over sharded or tiered storage, optional durability
and replicas), and the failure-injection timeline (replica kills).
Everything is seeded, so one config is one reproducible run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, Tuple, Union

from ..core.errors import ConfigurationError

#: Request classes a scenario can mix (the service-layer request kinds).
REQUEST_CLASSES = ("insert", "delete", "has", "successors", "analytics")

#: Arrival processes the generator understands.
ARRIVALS = ("poisson",)

#: Deployment schemes the driver can build.
SCHEMES = ("service", "tiered")

#: Tenant keyspace layouts: each tenant owns a disjoint key range, or all
#: tenants share one range (contended keys).
TENANT_LAYOUTS = ("disjoint", "shared")

#: Key-popularity layouts: ``"hashed"`` ranks keys by plain integer id (the
#: popular ranks then hash-stripe across shards); ``"shard_major"`` groups
#: the ranked keys by owning shard (popular ranks share few shards -- the
#: data-locality layout the tiered hit-rate experiment models).
KEY_LAYOUTS = ("hashed", "shard_major")

#: Failure kinds the injector implements.
FAILURE_KINDS = ("kill_replica",)

#: Default request mix: mutation-heavy with a read and analytics tail.
DEFAULT_MIX: Dict[str, float] = {
    "insert": 0.45,
    "delete": 0.10,
    "has": 0.25,
    "successors": 0.15,
    "analytics": 0.05,
}


@dataclass(frozen=True)
class FailureSpec:
    """One scheduled fault: what to break, when, and for how long.

    ``target`` picks the replica to kill; ``duration_s`` is how long the
    fault stands before the injector re-attaches a fresh follower.
    """

    at_s: float
    kind: str
    target: int = 0
    duration_s: float = 0.5

    def __post_init__(self):
        if self.kind not in FAILURE_KINDS:
            raise ConfigurationError(
                f"failure kind must be one of {FAILURE_KINDS}, got {self.kind!r}"
            )
        if self.at_s < 0:
            raise ConfigurationError(f"at_s must be >= 0, got {self.at_s}")
        if self.duration_s < 0:
            raise ConfigurationError(
                f"duration_s must be >= 0, got {self.duration_s}"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """One reproducible open-loop traffic scenario (see the module docstring).

    Rates are per scenario, not per tenant: ``target_ops_s`` is split evenly
    across the ``tenants`` driver threads.  ``warmup_edges`` are inserted
    through the service *before* the clock starts (and before the tier-stats
    baseline snapshot is taken), so the measured window starts from a
    populated graph.
    """

    name: str = "scenario"
    seed: int = 20240515
    duration_s: float = 2.0
    target_ops_s: float = 400.0
    arrival: str = "poisson"
    tenants: int = 2
    tenant_layout: str = "disjoint"
    keys_per_tenant: int = 256
    zipf_exponent: float = 1.1
    key_layout: str = "hashed"
    mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    analytics_task: str = "top_degree_nodes"
    analytics_arg: int = 8
    scheme: str = "service"
    num_shards: int = 8
    hot_shards: int = 2
    replicas: int = 0
    durability: str = "none"
    max_batch: int = 64
    queue_capacity: int = 4096
    policy: str = "block"
    warmup_edges: int = 0
    p99_bound_s: float = 1.0
    failures: Tuple[FailureSpec, ...] = ()

    def __post_init__(self):
        if self.arrival not in ARRIVALS:
            raise ConfigurationError(
                f"arrival must be one of {ARRIVALS}, got {self.arrival!r}"
            )
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"scheme must be one of {SCHEMES}, got {self.scheme!r}"
            )
        if self.tenant_layout not in TENANT_LAYOUTS:
            raise ConfigurationError(
                f"tenant_layout must be one of {TENANT_LAYOUTS}, "
                f"got {self.tenant_layout!r}"
            )
        if self.key_layout not in KEY_LAYOUTS:
            raise ConfigurationError(
                f"key_layout must be one of {KEY_LAYOUTS}, got {self.key_layout!r}"
            )
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be > 0, got {self.duration_s}"
            )
        if self.target_ops_s <= 0:
            raise ConfigurationError(
                f"target_ops_s must be > 0, got {self.target_ops_s}"
            )
        if self.tenants < 1:
            raise ConfigurationError(f"tenants must be >= 1, got {self.tenants}")
        if self.keys_per_tenant < 2:
            raise ConfigurationError(
                f"keys_per_tenant must be >= 2, got {self.keys_per_tenant}"
            )
        if self.zipf_exponent <= 0:
            raise ConfigurationError(
                f"zipf_exponent must be > 0, got {self.zipf_exponent}"
            )
        if not self.mix:
            raise ConfigurationError("mix must name at least one request class")
        for kind, weight in self.mix.items():
            if kind not in REQUEST_CLASSES:
                raise ConfigurationError(
                    f"mix class must be one of {REQUEST_CLASSES}, got {kind!r}"
                )
            if weight < 0:
                raise ConfigurationError(
                    f"mix weight for {kind!r} must be >= 0, got {weight}"
                )
        if sum(self.mix.values()) <= 0:
            raise ConfigurationError("mix weights must sum to > 0")
        if self.replicas < 0:
            raise ConfigurationError(f"replicas must be >= 0, got {self.replicas}")
        if self.durability not in ("none", "batch"):
            raise ConfigurationError(
                f'durability must be "none" or "batch", got {self.durability!r}'
            )
        if self.warmup_edges < 0:
            raise ConfigurationError(
                f"warmup_edges must be >= 0, got {self.warmup_edges}"
            )
        if self.failures and self.replicas < 1:
            raise ConfigurationError("failure 'kill_replica' needs replicas >= 1")

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    @property
    def total_keys(self) -> int:
        """Size of the whole ranked key universe across tenants."""
        if self.tenant_layout == "shared":
            return self.keys_per_tenant
        return self.keys_per_tenant * self.tenants

    @property
    def normalized_mix(self) -> Dict[str, float]:
        total = sum(self.mix.values())
        return {kind: weight / total for kind, weight in self.mix.items()
                if weight > 0}

    def with_overrides(self, **changes) -> "ScenarioConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # JSON round-trip
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["failures"] = [asdict(spec) for spec in self.failures]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioConfig":
        data = dict(payload)
        failures = tuple(
            spec if isinstance(spec, FailureSpec) else FailureSpec(**spec)
            for spec in data.pop("failures", ())
        )
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigurationError(
                f"unknown ScenarioConfig fields: {sorted(unknown)}"
            )
        return cls(failures=failures, **data)

    @classmethod
    def from_json(cls, source: Union[str, Path]) -> "ScenarioConfig":
        """Load a config from a JSON file path or a JSON string."""
        text = source
        if isinstance(source, Path) or (
            isinstance(source, str) and not source.lstrip().startswith("{")
        ):
            text = Path(source).read_text()
        return cls.from_dict(json.loads(text))


# --------------------------------------------------------------------- #
# Presets (the CLI's --preset values; tests and CI use them too)
# --------------------------------------------------------------------- #

def preset(name: str) -> ScenarioConfig:
    """A named ready-to-run scenario.

    * ``"smoke"`` -- tiny bounded run for CI: two tenants, a second of
      mixed traffic, no failures.
    * ``"skewed"`` -- the tiered-locality shape: shared zipf(1.1) keyspace
      laid out shard-major over a 25%-hot tiered store.
    * ``"failover"`` -- replicated durable service with a replica kill and
      re-attach mid-run.
    """
    if name == "smoke":
        return ScenarioConfig(
            name="smoke", duration_s=1.0, target_ops_s=300.0, tenants=2,
            keys_per_tenant=128, warmup_edges=200,
        )
    if name == "skewed":
        # Point-op mix: an analytics run scans every node (all shards), which
        # drowns the locality signal this scenario exists to show.
        return ScenarioConfig(
            name="skewed", duration_s=2.0, target_ops_s=600.0, tenants=4,
            tenant_layout="shared", keys_per_tenant=1024,
            zipf_exponent=1.1, key_layout="shard_major",
            scheme="tiered", num_shards=8, hot_shards=2,
            mix={"insert": 0.5, "delete": 0.1, "has": 0.25,
                 "successors": 0.15},
            warmup_edges=600,
        )
    if name == "failover":
        return ScenarioConfig(
            name="failover", duration_s=2.0, target_ops_s=400.0, tenants=2,
            keys_per_tenant=256, replicas=2, durability="batch",
            warmup_edges=300,
            failures=(FailureSpec(at_s=0.8, kind="kill_replica", target=0,
                                  duration_s=0.4),),
        )
    raise ConfigurationError(
        f'unknown preset {name!r}; expected "smoke", "skewed" or "failover"'
    )
