"""Open-loop multi-threaded scenario driver and SLO reporting.

:func:`run_scenario` is the harness entrypoint: build the deployment a
:class:`~repro.traffic.config.ScenarioConfig` describes (service over the
sharded or tiered store, optional durability and replicas), warm it up,
then replay the seeded schedule open-loop -- one driver thread per tenant,
each submitting at its scheduled arrival times regardless of completion
and timing every request from that due time, so a late wake-up counts in
the latency (lateness is also recorded on its own, never absorbed), with
the failure timeline running on its own injector thread.  The result is an
SLO report: per-class latency percentiles, throughput against the target,
error/backpressure/lateness rates, replication lag, tier hit rates over
the measured window, and the failure log -- written as ``BENCH_traffic_<name>.json`` via
:func:`repro.bench.write_bench_json` when asked.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from concurrent.futures import wait as wait_futures
from typing import Dict, List, Optional, Sequence

from ..core.sharded import ShardedCuckooGraph
from ..persist import PersistentStore
from ..service import GraphService
from ..service.metrics import LatencyRecorder
from ..tiered import TieredStore
from .config import ScenarioConfig
from .failures import run_failure_timeline
from .workload import TrafficEvent, ranked_keys, tenant_keys, tenant_schedule

#: How long the driver waits for in-flight futures after the last arrival.
DRAIN_TIMEOUT_S = 30.0


class _ClassRecorder:
    """Thread-safe per-request-class latency/error accounting."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latency: Dict[str, LatencyRecorder] = defaultdict(LatencyRecorder)
        self._errors: Dict[str, int] = defaultdict(int)
        self._error_samples: List[str] = []
        self.submitted: Dict[str, int] = defaultdict(int)
        self.rejected = 0
        self.behind_schedule = 0

    def record_submit(self, kind: str) -> None:
        with self._lock:
            self.submitted[kind] += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_behind(self) -> None:
        with self._lock:
            self.behind_schedule += 1

    def record_done(self, kind: str, latency_s: float,
                    error: Optional[BaseException]) -> None:
        with self._lock:
            self._latency[kind].record(latency_s)
            if error is not None:
                self._errors[kind] += 1
                if len(self._error_samples) < 5:
                    self._error_samples.append(
                        f"{kind}: {type(error).__name__}: {error}"
                    )

    def classes(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            out: Dict[str, Dict[str, object]] = {}
            for kind in sorted(set(self.submitted) | set(self._latency)):
                out[kind] = {
                    "submitted": self.submitted.get(kind, 0),
                    "errors": self._errors.get(kind, 0),
                    "latency": self._latency[kind].summary(),
                }
            return out

    @property
    def error_samples(self) -> List[str]:
        with self._lock:
            return list(self._error_samples)


def build_service(config: ScenarioConfig):
    """The deployment a scenario runs against: ``(service, routing_store)``.

    ``routing_store`` is the sharded/tiered structure itself (unwrapped from
    any durability layer) -- the object whose ``num_shards`` the key layout
    routes over and, for the tiered scheme, that holds the tier counters.
    """
    if config.scheme == "tiered":
        inner = TieredStore(num_shards=config.num_shards,
                            hot_shards=config.hot_shards)
    else:
        inner = ShardedCuckooGraph(num_shards=config.num_shards)
    needs_wal = config.replicas > 0 or config.durability == "batch"
    store = (
        PersistentStore(store=inner, sync_on_commit=False, own_store=True)
        if needs_wal else inner
    )
    service = GraphService(
        store,
        own_store=True,
        durability=config.durability,
        replicas=config.replicas,
        max_batch=config.max_batch,
        queue_capacity=config.queue_capacity,
        policy=config.policy,
    )
    return service, inner


def _submit(service: GraphService, config: ScenarioConfig,
            event: TrafficEvent, keys: Sequence[int]):
    u = keys[event.rank_u]
    v = keys[event.rank_v]
    if event.kind == "insert":
        return service.insert_edge(u, v)
    if event.kind == "delete":
        return service.delete_edge(u, v)
    if event.kind == "has":
        return service.has_edge(u, v)
    if event.kind == "successors":
        return service.successors(u)
    return service.analytics(config.analytics_task, config.analytics_arg)


def _tenant_worker(service: GraphService, config: ScenarioConfig,
                   events: Sequence[TrafficEvent], keys: Sequence[int],
                   recorder: _ClassRecorder, start_monotonic: float,
                   futures: List, futures_lock: threading.Lock) -> None:
    for event in events:
        # Latency runs from when the request was due, not from when this
        # thread got round to sending it: a late wake-up is the service's
        # delay as the tenant sees it (no coordinated omission).
        due = start_monotonic + event.at_s
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        else:
            recorder.record_behind()
        try:
            future = _submit(service, config, event, keys)
        except Exception:
            # Queue full under policy="reject", or the service fail-stopped:
            # open-loop backpressure, not a crash of the driver.
            recorder.record_rejected()
            continue
        recorder.record_submit(event.kind)

        def on_done(f, kind=event.kind, t0=due):
            recorder.record_done(kind, time.monotonic() - t0, f.exception())

        future.add_done_callback(on_done)
        with futures_lock:
            futures.append(future)


def _warmup(service: GraphService, config: ScenarioConfig,
            ranked: Sequence[int]) -> int:
    """Seed the graph before the clock starts; returns edges submitted."""
    if config.warmup_edges <= 0:
        return 0
    # A seeded round-robin over tenants with the same zipf popularity the
    # traffic uses, so the warm graph matches the workload's shape.
    from .workload import ZipfRanks, _tenant_rng

    rng = _tenant_rng(config.seed, tenant=-1)
    zipf = ZipfRanks(len(ranked), config.zipf_exponent)
    futures = []
    for _ in range(config.warmup_edges):
        u = ranked[zipf.sample(rng)]
        v = ranked[zipf.sample(rng)]
        if u == v:
            v = ranked[(ranked.index(u) + 1) % len(ranked)]
        futures.append(service.insert_edge(u, v))
    wait_futures(futures, timeout=DRAIN_TIMEOUT_S)
    return len(futures)


def run_scenario(config: ScenarioConfig) -> Dict[str, object]:
    """Execute one scenario and return its SLO report (a JSON-safe dict).

    Builds the deployment described by ``config`` (:func:`build_service`),
    runs it and closes it.
    """
    service, routing_store = build_service(config)
    service.start()
    try:
        ranked = ranked_keys(config, routing_store.num_shards)
        schedules = [tenant_schedule(config, tenant)
                     for tenant in range(config.tenants)]
        keys = [tenant_keys(config, ranked, tenant)
                for tenant in range(config.tenants)]
        warmed = _warmup(service, config, ranked)
        tiered = isinstance(routing_store, TieredStore)
        tier_before = routing_store.tier_stats() if tiered else None

        recorder = _ClassRecorder()
        futures: List = []
        futures_lock = threading.Lock()
        stop = threading.Event()
        start_monotonic = time.monotonic()
        workers = [
            threading.Thread(
                target=_tenant_worker,
                args=(service, config, schedules[tenant], keys[tenant],
                      recorder, start_monotonic, futures, futures_lock),
                name=f"tenant-{tenant}",
                daemon=True,
            )
            for tenant in range(config.tenants)
        ]
        failure_records: List = []
        injector = threading.Thread(
            target=lambda: failure_records.extend(
                run_failure_timeline(service, config.failures,
                                     start_monotonic, stop)),
            name="failure-injector",
            daemon=True,
        )
        for worker in workers:
            worker.start()
        injector.start()
        for worker in workers:
            worker.join()
        with futures_lock:
            pending = list(futures)
        wait_futures(pending, timeout=DRAIN_TIMEOUT_S)
        measured_s = time.monotonic() - start_monotonic
        stop.set()
        injector.join(timeout=DRAIN_TIMEOUT_S)

        tier_after = routing_store.tier_stats() if tiered else None
        metrics = service.metrics_summary()
        return _assemble_report(config, recorder, failure_records, metrics,
                                measured_s, warmed, tier_before, tier_after)
    finally:
        service.close()


def _tier_window(before, after) -> Dict[str, object]:
    """Tier telemetry restricted to the measured window (post-warmup)."""
    touches = after["touches"] - before["touches"]
    hits = after["hits"] - before["hits"]
    return {
        "touches": touches,
        "hits": hits,
        "misses": after["misses"] - before["misses"],
        "hit_rate": (hits / touches) if touches else 0.0,
        "promotions": after["promotions"] - before["promotions"],
        "demotions": after["demotions"] - before["demotions"],
    }


def _assemble_report(config, recorder, failure_records, metrics, measured_s,
                     warmed, tier_before, tier_after) -> Dict[str, object]:
    classes = recorder.classes()
    submitted = sum(entry["submitted"] for entry in classes.values())
    errors = sum(entry["errors"] for entry in classes.values())
    completed = sum(entry["latency"]["count"] for entry in classes.values())
    p99_by_class = {kind: entry["latency"]["p99_s"]
                    for kind, entry in classes.items()
                    if entry["latency"]["count"]}
    slo_met = bool(p99_by_class) and all(
        p99 <= config.p99_bound_s for p99 in p99_by_class.values()
    )
    report: Dict[str, object] = {
        "scenario": config.to_dict(),
        "totals": {
            "submitted": submitted,
            "completed": completed,
            "errors": errors,
            "rejected": recorder.rejected,
            "behind_schedule": recorder.behind_schedule,
            "warmup_edges": warmed,
            "measured_s": round(measured_s, 4),
            "throughput_ops_s": round(completed / measured_s, 2)
            if measured_s > 0 else 0.0,
            "target_ops_s": config.target_ops_s,
            "error_rate": round(errors / completed, 6) if completed else 0.0,
        },
        "classes": classes,
        "slo": {
            "p99_bound_s": config.p99_bound_s,
            "p99_by_class": p99_by_class,
            "met": slo_met,
        },
        "failures": [record.as_row() for record in failure_records],
        "replication": metrics.get("replication", {}),
        "tiered": {
            "end": tier_after,
            "window": _tier_window(tier_before, tier_after),
        } if tier_after is not None else {},
        "service": {
            "submitted_total": metrics.get("submitted_total", 0),
            "rejected": metrics.get("rejected", 0),
            "resolved": metrics.get("resolved", 0),
            "failed": metrics.get("failed", 0),
            "batches": metrics.get("batches", 0),
            "mean_batch_size": metrics.get("mean_batch_size", 0.0),
            "group_commits": metrics.get("group_commits", 0),
        },
        "error_samples": recorder.error_samples,
    }
    return report


# --------------------------------------------------------------------- #
# SLO report schema
# --------------------------------------------------------------------- #

#: Required top-level keys of a well-formed SLO report.
REPORT_KEYS = ("scenario", "totals", "classes", "slo", "failures",
               "replication", "tiered", "service", "error_samples")


def validate_slo_report(report: Dict[str, object]) -> Dict[str, object]:
    """Raise ``ValueError`` unless ``report`` is a well-formed SLO report.

    Schema, not thresholds: the report must carry every section, non-zero
    completed throughput, a numeric p99 for every class that saw traffic,
    and a failure log whose entries are fully stamped.  Threshold gates
    (hit rate, p99 bounds) belong to the benchmarks that assert them.
    """
    for key in REPORT_KEYS:
        if key not in report:
            raise ValueError(f"SLO report is missing section {key!r}")
    totals = report["totals"]
    for key in ("submitted", "completed", "errors", "rejected",
                "behind_schedule", "measured_s", "throughput_ops_s"):
        if not isinstance(totals.get(key), (int, float)):
            raise ValueError(f"totals.{key} must be numeric, got "
                             f"{totals.get(key)!r}")
    if totals["completed"] <= 0 or totals["throughput_ops_s"] <= 0:
        raise ValueError("SLO report has no completed traffic")
    for kind, entry in report["classes"].items():
        latency = entry.get("latency", {})
        if entry.get("submitted", 0) and not isinstance(
                latency.get("p99_s"), (int, float)):
            raise ValueError(f"class {kind!r} lacks a numeric p99_s")
    slo = report["slo"]
    if not isinstance(slo.get("met"), bool) or "p99_bound_s" not in slo:
        raise ValueError("slo section must carry met + p99_bound_s")
    for record in report["failures"]:
        for key in ("at_s", "kind", "injected", "recovered", "detail"):
            if key not in record:
                raise ValueError(f"failure record is missing {key!r}")
    return report
