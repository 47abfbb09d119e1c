"""Ablations of CuckooGraph design choices the paper does not ablate.

Beyond the paper's own DENYLIST ablation (Figure 5), three implementation
choices materially affect the space/time balance: the hash family, the
initial S-CHT length ``n``, and whether a shrunken chain collapses back into
the cell's small slots.  This benchmark sweeps each choice on the CAIDA-like
stream and reports modelled accesses and memory so the trade-offs are
visible (see README, *Running the benchmarks*).
"""

from repro.bench import format_table
from repro.core import CuckooGraph, CuckooGraphConfig

from .conftest import bench_stream, benchmark_callable, write_report


def _run(config: CuckooGraphConfig, edges) -> dict[str, float]:
    graph = CuckooGraph(config)
    for u, v in edges:
        graph.insert_edge(u, v)
    inserted_accesses = graph.accesses
    graph.reset_accesses()
    for u, v in edges:
        graph.has_edge(u, v)
    return {
        "insert_accesses_per_op": inserted_accesses / len(edges),
        "query_accesses_per_op": graph.accesses / len(edges),
        "memory_bytes": graph.memory_bytes(),
        "denylist_entries": len(graph.small_denylist) + len(graph.large_denylist),
    }


def test_ablation_design_choices(benchmark):
    edges = list(bench_stream("CAIDA", 6000).deduplicated())
    variants = {
        "paper defaults": CuckooGraphConfig(),
        "bob hash": CuckooGraphConfig(hash_family="bob"),
        "initial n=1": CuckooGraphConfig(initial_scht_length=1),
        "initial n=8": CuckooGraphConfig(initial_scht_length=8),
        "collapse chains": CuckooGraphConfig(collapse_chain_to_slots=True),
        "d=4": CuckooGraphConfig(d=4),
    }
    rows = []
    results = {}
    for label, config in variants.items():
        outcome = _run(config, edges)
        results[label] = outcome
        rows.append({"variant": label, **{k: round(v, 3) for k, v in outcome.items()}})
    write_report("ablation_design_choices",
                 format_table(rows, title="CuckooGraph design-choice ablations (CAIDA stand-in)"))

    # The hash family must not change structural behaviour materially.
    defaults = results["paper defaults"]
    bob = results["bob hash"]
    assert bob["memory_bytes"] <= defaults["memory_bytes"] * 1.3
    assert bob["query_accesses_per_op"] <= defaults["query_accesses_per_op"] * 1.3
    # A larger initial S-CHT costs memory; a smaller one must not cost more.
    assert results["initial n=8"]["memory_bytes"] >= results["initial n=1"]["memory_bytes"]
    # Every variant stays query-bounded (a handful of accesses per query).
    assert all(outcome["query_accesses_per_op"] < 8 for outcome in results.values())

    benchmark_callable(benchmark, _run, CuckooGraphConfig(), edges[:2000])
