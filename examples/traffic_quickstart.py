"""Traffic quickstart: a skewed multi-tenant scenario with a replica kill.

The production-traffic harness (``repro.traffic``) end to end, in one
five-second scenario that exercises both new subsystems at once:

1. declare the whole experiment as one seeded :class:`ScenarioConfig` —
   four tenants sharing a zipf(1.1) keyspace laid out shard-major over a
   **tiered** store (8 shards, 2 hot), replicated to one follower with
   group-commit durability,
2. schedule a ``kill_replica`` fault mid-run: the injector severs the
   follower's channel, holds the fault, then re-attaches a fresh follower
   and lets backfill catch it up,
3. replay the seeded schedule open-loop (one driver thread per tenant,
   arrivals fire on the clock whether or not the service keeps up),
4. print the SLO report: per-class p50/p99, throughput against target, the
   hot-tier hit rate the admission policy earned, and the failure log.

Run with ``PYTHONPATH=src python examples/traffic_quickstart.py``.
"""

import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
if str(REPO_SRC) not in sys.path:
    sys.path.insert(0, str(REPO_SRC))

from repro.traffic import (                               # noqa: E402
    FailureSpec,
    ScenarioConfig,
    run_scenario,
    validate_slo_report,
)

SCENARIO = ScenarioConfig(
    name="quickstart",
    seed=20240515,
    duration_s=5.0,
    target_ops_s=400.0,
    tenants=4,
    tenant_layout="shared",         # all tenants contend for one keyspace
    keys_per_tenant=1024,
    zipf_exponent=1.1,              # heavy head: few keys take most traffic
    key_layout="shard_major",       # popular keys cluster on few shards
    scheme="tiered",                # CuckooGraph hot tier over database spill
    num_shards=8,
    hot_shards=2,                   # hot tier = 25% of shards
    replicas=1,
    durability="batch",
    mix={"insert": 0.5, "delete": 0.1, "has": 0.25, "successors": 0.15},
    warmup_edges=600,
    failures=(
        FailureSpec(at_s=2.5, kind="kill_replica", target=0, duration_s=0.5),
    ),
)


def main() -> None:
    print(f"running scenario {SCENARIO.name!r}: {SCENARIO.duration_s:.0f}s of "
          f"zipf({SCENARIO.zipf_exponent}) traffic from {SCENARIO.tenants} "
          f"tenants at {SCENARIO.target_ops_s:.0f} ops/s "
          f"(scheme={SCENARIO.scheme}, replicas={SCENARIO.replicas}, "
          f"replica kill at t={SCENARIO.failures[0].at_s}s)...")
    report = validate_slo_report(run_scenario(SCENARIO))

    totals = report["totals"]
    print(f"\ncompleted {totals['completed']}/{totals['submitted']} requests "
          f"at {totals['throughput_ops_s']:.1f} ops/s "
          f"(target {totals['target_ops_s']:.0f}; "
          f"errors {totals['errors']}, rejected {totals['rejected']})")

    print("\nper-class latency:")
    for kind, entry in sorted(report["classes"].items()):
        latency = entry["latency"]
        if not latency["count"]:
            continue
        print(f"  {kind:<11} n={latency['count']:<6} "
              f"p50={latency['p50_s'] * 1000:7.2f}ms "
              f"p99={latency['p99_s'] * 1000:7.2f}ms "
              f"errors={entry['errors']}")
    slo = report["slo"]
    print(f"slo: p99 bound {slo['p99_bound_s'] * 1000:.0f}ms -> "
          f"{'MET' if slo['met'] else 'MISSED'}")

    window = report["tiered"]["window"]
    end = report["tiered"]["end"]
    print(f"\ntiered: hot-tier hit rate {window['hit_rate']:.1%} over the "
          f"measured window (hits {window['hits']}/{window['touches']}, "
          f"promotions {window['promotions']}, "
          f"final hot set {end['hot_set']})")
    assert window["hit_rate"] > 0.5, "policy should have found the hot shards"

    for record in report["failures"]:
        print(f"failure: t={record['at_s']}s {record['kind']} "
              f"injected={record['injected']} recovered={record['recovered']}"
              f"\n         {record['detail']}")
        assert record["injected"] and record["recovered"]

    replication = report["replication"]
    if replication:
        print(f"replication: {replication}")
    print("\nscenario complete; the same config serialises with "
          "ScenarioConfig.to_dict() and replays bit-identically "
          "(same seed, same schedule).")


if __name__ == "__main__":
    main()
