"""Table III: empirical amortized costs behind the complexity comparison.

The table itself states asymptotic complexities; the measurable counterpart
is how the per-operation cost *scales with node degree*: O(1) schemes stay
flat while O(deg)/O(log deg) schemes grow.  This benchmark measures modelled
memory accesses per edge query at two very different hub degrees for every
scheme and reports the growth factor.
"""

from repro.bench import SCHEMES, format_table, build_store

from .conftest import benchmark_callable, write_report


def _accesses_per_query(scheme: str, degree: int, probes: int = 200) -> float:
    """Accesses per ``has_edge`` probe on a fresh store with one hub of ``degree``."""
    with build_store(scheme) as store:
        for v in range(1, degree + 1):
            store.insert_edge(0, v)
        store.reset_accesses()
        for v in range(1, probes + 1):
            store.has_edge(0, v)
        return store.accesses / probes


def test_table3_query_cost_scaling(benchmark):
    """Per-query access cost at degree 32 versus degree 2048, per scheme."""
    rows = []
    growth: dict[str, float] = {}
    for scheme in SCHEMES:
        low = _accesses_per_query(scheme, degree=32)
        high = _accesses_per_query(scheme, degree=2048)
        growth[scheme] = high / low if low else float("inf")
        rows.append({
            "scheme": scheme,
            "accesses_per_query_deg32": round(low, 2),
            "accesses_per_query_deg2048": round(high, 2),
            "growth_factor": round(growth[scheme], 2),
        })
    write_report("table3_complexity",
                 format_table(rows, title="Edge-query cost vs node degree (Table III)"))

    # CuckooGraph's O(1) query: cost grows by at most a small constant factor
    # (extra S-CHT tables), far less than the degree ratio of 64x.
    assert growth["Ours"] < 4.0
    # LiveGraph's O(deg(v)) query must grow substantially with degree.
    assert growth["LiveGraph"] > 8.0

    benchmark_callable(benchmark, _accesses_per_query, "Ours", 2048)
