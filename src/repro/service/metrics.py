"""Per-request latency and batching metrics for the service layer.

The paper's claim is throughput under interleaved traffic; a service front
door additionally has to answer "at what latency?".  Every request carries
its enqueue timestamp, the dispatcher records the resolve-time delta here,
and :meth:`ServiceMetrics.summary` reduces the samples to the percentiles a
deployment alarms on (p50/p95/p99), alongside how well the micro-batcher
coalesced (batches dispatched, mean/max batch size) and how often
backpressure rejected work.
"""

from __future__ import annotations

from threading import Lock
from typing import Dict, List, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 for an empty sequence).

    ``fraction`` is in ``[0, 1]``; nearest-rank keeps the value an actually
    observed latency, which is what tail-latency reporting wants.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


class LatencyRecorder:
    """Append-only latency sample sink with percentile summaries."""

    def __init__(self) -> None:
        self._samples: List[float] = []

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)

    def record_many(self, seconds: Sequence[float]) -> None:
        self._samples.extend(seconds)

    @property
    def count(self) -> int:
        return len(self._samples)

    def summary(self) -> Dict[str, float]:
        """``count`` plus mean/p50/p95/p99/max, all in seconds."""
        samples = self._samples
        if not samples:
            return {"count": 0, "mean_s": 0.0, "p50_s": 0.0, "p95_s": 0.0,
                    "p99_s": 0.0, "max_s": 0.0}
        return {
            "count": len(samples),
            "mean_s": sum(samples) / len(samples),
            "p50_s": percentile(samples, 0.50),
            "p95_s": percentile(samples, 0.95),
            "p99_s": percentile(samples, 0.99),
            "max_s": max(samples),
        }


class ServiceMetrics:
    """Counters a running :class:`~repro.service.service.GraphService` keeps.

    Submission-side counters (``submitted``, ``rejected``) are bumped from
    many client threads and take the lock; dispatch-side counters are only
    touched by the single dispatcher thread but share the same lock so
    :meth:`summary` reads one consistent snapshot -- one acquisition per
    dispatched run, not per request.

    The ledger (``submitted == resolved + failed + cancelled``, ``rejected``
    separate) and the latency samples count *requests*: one per client call,
    whether it carries one item or a list.  ``items_submitted`` /
    ``items_resolved`` count the edges and nodes those requests carried, so
    throughput stays readable when one request holds a whole batch; batch
    sizes (``mean_batch_size`` / ``max_batch_size``) are in items per run.
    """

    def __init__(self) -> None:
        self._lock = Lock()
        self.submitted: Dict[str, int] = {}
        self.items_submitted = 0
        self.rejected = 0
        self.resolved = 0
        self.items_resolved = 0
        self.failed = 0
        self.cancelled = 0
        self.batches = 0
        self.batched_items = 0
        self.max_batch_size = 0
        self.store_batch_calls = 0
        self.group_commits = 0
        self.replica_reads: Dict[int, int] = {}
        self.replication_lag_samples = 0
        self.replication_lag_total = 0
        self.replication_lag_max = 0
        self.replica_evictions = 0
        self.tier_stats: Dict[str, object] = {}
        self._latency = LatencyRecorder()

    # -- submission side ------------------------------------------------ #

    def record_submit(self, kind: str, items: int) -> None:
        with self._lock:
            self.submitted[kind] = self.submitted.get(kind, 0) + 1
            self.items_submitted += items

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    # -- dispatch side --------------------------------------------------- #

    def record_batch(self, size: int, store_calls: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_items += size
            self.max_batch_size = max(self.max_batch_size, size)
            self.store_batch_calls += store_calls

    def record_resolved_many(self, latencies_s: Sequence[float],
                             items: int) -> None:
        """One run's requests resolved, carrying ``items`` items in all."""
        with self._lock:
            self.resolved += len(latencies_s)
            self.items_resolved += items
            self._latency.record_many(latencies_s)

    def record_failed_many(self, latencies_s: Sequence[float]) -> None:
        with self._lock:
            self.failed += len(latencies_s)
            self._latency.record_many(latencies_s)

    def record_cancelled(self, requests: int = 1) -> None:
        with self._lock:
            self.cancelled += requests

    def record_commit(self) -> None:
        """One durability group commit (``durability="batch"`` mode)."""
        with self._lock:
            self.group_commits += 1

    def record_replica_read(self, replica: int, lag: int) -> None:
        """One read run routed to replica ``replica``, observed ``lag`` commits
        behind the primary (for read-your-writes reads: the distance the
        barrier had to close; for ``"any"`` reads: the staleness served)."""
        with self._lock:
            self.replica_reads[replica] = self.replica_reads.get(replica, 0) + 1
            self.replication_lag_samples += 1
            self.replication_lag_total += lag
            self.replication_lag_max = max(self.replication_lag_max, lag)

    def record_evictions(self, total: int) -> None:
        """Absolute count of followers the primary evicted mid-broadcast
        (dead channels); polled from ``Primary.evictions`` at summary time."""
        with self._lock:
            self.replica_evictions = total

    def record_tier_stats(self, stats: Dict[str, object]) -> None:
        """Latest hot/cold tier snapshot (hits/misses/promotions/demotions);
        polled from ``TieredStore.tier_stats()`` at summary time when the
        service fronts a tiered store."""
        with self._lock:
            self.tier_stats = dict(stats)

    # -- reporting ------------------------------------------------------- #

    def summary(self) -> Dict[str, object]:
        """One consistent snapshot of every counter plus latency percentiles."""
        with self._lock:
            mean_batch = (
                self.batched_items / self.batches if self.batches else 0.0
            )
            return {
                "submitted": dict(self.submitted),
                "submitted_total": sum(self.submitted.values()),
                "items_submitted": self.items_submitted,
                "rejected": self.rejected,
                "resolved": self.resolved,
                "items_resolved": self.items_resolved,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "batches": self.batches,
                "mean_batch_size": mean_batch,
                "max_batch_size": self.max_batch_size,
                "store_batch_calls": self.store_batch_calls,
                "group_commits": self.group_commits,
                "replication": {
                    "replica_reads": dict(self.replica_reads),
                    "lag_samples": self.replication_lag_samples,
                    "lag_mean": (
                        self.replication_lag_total / self.replication_lag_samples
                        if self.replication_lag_samples else 0.0
                    ),
                    "lag_max": self.replication_lag_max,
                    "evictions": self.replica_evictions,
                },
                "tiered": dict(self.tier_stats),
                "latency": self._latency.summary(),
            }
