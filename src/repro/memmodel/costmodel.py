"""Per-operation cost accounting used by the complexity experiments.

Table III of the paper compares amortized time complexities; Theorem 1/2
argue that CuckooGraph's insertion cost is O(1) amortized with a small
constant (measured as ≈1.017 average placements per item in the L-CHT and
≈1.006 in the S-CHTs on the NotreDame dataset).  This module turns the
counters collected by the data structures into the quantities those
statements are about, and provides a small driver that measures any
:class:`~repro.interfaces.DynamicGraphStore` with a probe-count proxy when
the store exposes counters, falling back to operation timing when it does
not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..interfaces import DynamicGraphStore


@dataclass(frozen=True)
class OperationCost:
    """Aggregate cost of a batch of operations on one store.

    Attributes:
        operations: Number of operations performed.
        seconds: Wall-clock time for the whole batch.
        bucket_probes: Buckets examined (only for stores exposing counters).
        insert_attempts: Placement attempts (only for counter-aware stores).
    """

    operations: int
    seconds: float
    bucket_probes: int = 0
    insert_attempts: int = 0

    @property
    def throughput_mops(self) -> float:
        """Million operations per second (the paper's throughput metric)."""
        if self.seconds <= 0:
            return float("inf")
        return self.operations / self.seconds / 1e6

    @property
    def probes_per_operation(self) -> float:
        """Average bucket probes per operation (cost-model view of Table III)."""
        if self.operations == 0:
            return 0.0
        return self.bucket_probes / self.operations

    @property
    def attempts_per_operation(self) -> float:
        """Average placement attempts per operation (Theorem 1 verification)."""
        if self.operations == 0:
            return 0.0
        return self.insert_attempts / self.operations


def _counter_snapshot(store: DynamicGraphStore) -> dict[str, int]:
    counters = store.counters
    return counters.snapshot() if counters is not None else {}


def _counter_delta(store: DynamicGraphStore, before: dict[str, int]) -> dict[str, int]:
    counters = store.counters
    return counters.diff(before) if counters is not None else {}


def measure_insertions(
    store: DynamicGraphStore, edges: Sequence[tuple[int, int]]
) -> OperationCost:
    """Insert ``edges`` into ``store`` and report the aggregate cost."""
    before = _counter_snapshot(store)
    start = time.perf_counter()
    for u, v in edges:
        store.insert_edge(u, v)
    elapsed = time.perf_counter() - start
    delta = _counter_delta(store, before)
    return OperationCost(
        operations=len(edges),
        seconds=elapsed,
        bucket_probes=delta.get("bucket_probes", 0),
        insert_attempts=delta.get("insert_attempts", 0),
    )


def measure_queries(
    store: DynamicGraphStore, edges: Sequence[tuple[int, int]]
) -> OperationCost:
    """Query ``edges`` against ``store`` and report the aggregate cost."""
    before = _counter_snapshot(store)
    start = time.perf_counter()
    for u, v in edges:
        store.has_edge(u, v)
    elapsed = time.perf_counter() - start
    delta = _counter_delta(store, before)
    return OperationCost(
        operations=len(edges),
        seconds=elapsed,
        bucket_probes=delta.get("bucket_probes", 0),
    )


def measure_deletions(
    store: DynamicGraphStore, edges: Sequence[tuple[int, int]]
) -> OperationCost:
    """Delete ``edges`` from ``store`` and report the aggregate cost."""
    before = _counter_snapshot(store)
    start = time.perf_counter()
    for u, v in edges:
        store.delete_edge(u, v)
    elapsed = time.perf_counter() - start
    delta = _counter_delta(store, before)
    return OperationCost(
        operations=len(edges),
        seconds=elapsed,
        bucket_probes=delta.get("bucket_probes", 0),
    )


def memory_curve(
    store: DynamicGraphStore,
    edges: Iterable[tuple[int, int]],
    sample_every: int = 1000,
) -> list[tuple[int, int]]:
    """Insert edges one by one and sample the modelled memory footprint.

    Returns ``(inserted_count, memory_bytes)`` samples, the series plotted by
    Figure 9 for each scheme.
    """
    samples: list[tuple[int, int]] = []
    inserted = 0
    for u, v in edges:
        store.insert_edge(u, v)
        inserted += 1
        if inserted % sample_every == 0:
            samples.append((inserted, store.memory_bytes()))
    samples.append((inserted, store.memory_bytes()))
    return samples
