"""Per-layer metrics of a traced run, from its spans and the run's counters.

Every workload's traced run reports every per-layer metric of
``BENCHMARK.json``; a layer that does no work on a workload reports 0, which
is itself one of the predictions the README records (``persist.log_self_us``
is 0 on ``stream_core``, ``tiered.*`` is non-zero on one workload only).
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from .common import Context
from .tracing import NameTotals, Tracer

PERSIST_MUTATORS = ("persist.insert_edges", "persist.delete_edges",
                    "persist.insert_edge", "persist.delete_edge")
TIERED_MUTATORS = ("tiered.insert_edges", "tiered.delete_edges")


def core_structure(counters, graphs: Sequence) -> Dict[str, float]:
    """Exact structural counts of the ``CuckooGraph``(s) under a store, as
    the ``core.*`` per-layer metrics they are."""
    snapshot = counters.snapshot()
    inserted = max(1, snapshot["edges_inserted"])
    return {
        "core.kicks_per_insert": snapshot["kicks"] / inserted,
        "core.insert_failures": snapshot["insert_failures"],
        "core.expansions": snapshot["expansions"],
        "core.contractions": snapshot["contractions"],
        "core.rehashed_per_insert": snapshot["rehashed_items"] / inserted,
        "core.denylist_entries": sum(len(graph.small_denylist) + len(graph.large_denylist)
                                for graph in graphs),
        "core.lcht_loading_rate": sum(graph.structure_summary()["lcht_loading_rate"]
                                 for graph in graphs) / len(graphs),
    }


def imbalance(sizes: Sequence[int]) -> float:
    """Largest shard over the mean shard, in edges."""
    return max(sizes) * len(sizes) / max(1, sum(sizes))


def derive(ctx: Context, tracer: Tracer, names: Iterable[str]) -> Dict[str, float]:
    """Every per-layer metric in ``names``: what the spans give, then the
    counters the workload recorded under the metric's own name, else 0."""
    totals = NameTotals(tracer.records)
    layer = dict(ctx.per_layer)

    for call, metric in (("insert_edge", "insert"), ("has_edge", "has"),
                         ("successors", "successors"), ("delete_edge", "delete")):
        layer[f"core.{metric}_self_us"] = totals.self_us_per_op(f"core.{call}")
    for call, metric in (("insert_edges", "insert"), ("has_edges", "has"),
                         ("successors_many", "successors")):
        layer[f"sharded.{metric}_self_us"] = totals.self_us_per_op(f"sharded.{call}")

    mutations = totals.operations(*PERSIST_MUTATORS)
    if mutations:
        layer["persist.log_self_us"] = 1e6 * totals.self_seconds(
            *PERSIST_MUTATORS, "persist.sync") / mutations
        layer["persist.compaction_stall_ms_max"] = 1e3 * max(
            totals.longest_s.get(name, 0.0) for name in PERSIST_MUTATORS)

    tiered = totals.names("tiered.")
    layer["tiered.hot_self_us"] = totals.self_us_per_op(*tiered)
    layer["tiered.migration_ms_max"] = 1e3 * max(
        (totals.longest_s.get(name, 0.0) for name in TIERED_MUTATORS), default=0.0)
    layer["integrations.miniredis_self_us"] = totals.self_us_per_op(
        *totals.names("integrations."))
    # Request time the store calls do not account for: queue hops, wake-ups,
    # futures, metrics (and, on the closed loop, the clients' own turnaround).
    layer["service.overhead_us_per_op"] = totals.self_us_per_op("service.phase.mixed")

    # Share of the kernels' time spent inside store calls they caused.
    kernels = ("analytics.bfs", "analytics.pagerank")
    spent = sum(totals.total_s.get(name, 0.0) for name in kernels)
    layer["analytics.store_share"] = 1.0 - totals.self_seconds(*kernels) / spent if spent else 0.0

    if "baselines.spruce_insert_kops" in layer:
        layer["core.insert_vs_spruce"] = (
            ctx.end_to_end["insert_kops"] / layer["baselines.spruce_insert_kops"])

    # Phases are the only spans without a parent: their durations are the
    # traced wall time every self time must add up to.
    measured = sum(record[3] - record[2] for record in tracer.records if record[4] is None)
    ctx.info["self_time_coverage"] = (
        sum(totals.self_s.values()) / measured if measured else 0.0)
    return {name: float(layer.get(name, 0.0)) for name in names}
