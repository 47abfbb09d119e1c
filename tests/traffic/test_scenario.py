"""End-to-end scenario runs: SLO report schema, tier window, failure log."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.traffic import FailureSpec, ScenarioConfig, run_scenario
from repro.traffic import driver
from repro.traffic.driver import REPORT_KEYS, validate_slo_report

#: Small bounded scenario: sub-second, a few hundred ops, no failures.
TINY = ScenarioConfig(
    name="tiny", seed=11, duration_s=0.5, target_ops_s=300.0, tenants=2,
    keys_per_tenant=64, warmup_edges=50,
)


@pytest.fixture(scope="module")
def tiny_report():
    return run_scenario(TINY)


def test_slo_report_is_well_formed(tiny_report):
    assert validate_slo_report(tiny_report) is tiny_report
    for key in REPORT_KEYS:
        assert key in tiny_report
    totals = tiny_report["totals"]
    assert totals["completed"] > 0
    assert totals["throughput_ops_s"] > 0
    assert totals["warmup_edges"] == 50
    assert tiny_report["scenario"] == TINY.to_dict()


def test_report_has_p99_per_trafficked_class(tiny_report):
    trafficked = [kind for kind, entry in tiny_report["classes"].items()
                  if entry["submitted"]]
    assert trafficked  # the mix produced traffic
    for kind in trafficked:
        latency = tiny_report["classes"][kind]["latency"]
        assert isinstance(latency["p99_s"], (int, float))
        assert latency["p99_s"] >= 0


def test_validate_rejects_mutilated_reports(tiny_report):
    missing = dict(tiny_report)
    del missing["slo"]
    with pytest.raises(ValueError):
        validate_slo_report(missing)
    empty = dict(tiny_report)
    empty["totals"] = dict(tiny_report["totals"], completed=0)
    with pytest.raises(ValueError):
        validate_slo_report(empty)


def test_latency_is_timed_from_the_due_time(monkeypatch):
    """A tenant thread that wakes late must not hide its lateness: one
    scripted oversleep of ``oversleep_s`` shows in the reported max latency
    (and in ``behind_schedule``), not only in the send lag."""
    oversleep_s = 0.25
    overslept = threading.Event()

    def late_sleep(seconds):
        if not overslept.is_set():
            overslept.set()
            seconds += oversleep_s
        time.sleep(seconds)

    monkeypatch.setattr(driver, "time", SimpleNamespace(
        monotonic=time.monotonic, sleep=late_sleep))
    report = validate_slo_report(run_scenario(TINY))
    assert overslept.is_set()
    assert report["totals"]["behind_schedule"] > 0
    assert max(entry["latency"]["max_s"]
               for entry in report["classes"].values()) >= oversleep_s


def test_tiered_scenario_reports_tier_window():
    config = ScenarioConfig(
        name="tiny-tiered", seed=5, duration_s=0.5, target_ops_s=300.0,
        tenants=2, keys_per_tenant=64, scheme="tiered", num_shards=4,
        hot_shards=2, warmup_edges=50,
        mix={"insert": 0.5, "has": 0.3, "successors": 0.2},
    )
    report = validate_slo_report(run_scenario(config))
    tiered = report["tiered"]
    assert tiered, "tiered scheme must report tier telemetry"
    window = tiered["window"]
    assert window["touches"] > 0
    assert 0.0 <= window["hit_rate"] <= 1.0
    assert tiered["end"]["num_shards"] == 4


def test_failure_injection_is_logged_with_recovery():
    config = ScenarioConfig(
        name="tiny-failover", seed=8, duration_s=0.8, target_ops_s=250.0,
        tenants=2, keys_per_tenant=64, replicas=1, durability="batch",
        warmup_edges=50,
        failures=(FailureSpec(at_s=0.2, kind="kill_replica", target=0,
                              duration_s=0.2),),
    )
    report = validate_slo_report(run_scenario(config))
    assert len(report["failures"]) == 1
    record = report["failures"][0]
    assert record["kind"] == "kill_replica"
    assert record["injected"] is True
    assert record["recovered"] is True
    assert report["replication"], "replicated run must report replication"
