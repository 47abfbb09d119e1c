"""Formatting helpers for benchmark reports.

Each benchmark prints the rows/series the corresponding figure or table in
the paper reports, in a plain-text form that is easy to diff between runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render a list of row dictionaries as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered_rows = [
        {column: _render(row.get(column, "")) for column in columns} for row in rows
    ]
    widths = {
        column: max(len(column), *(len(row[column]) for row in rendered_rows))
        for column in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    separator = "-+-".join("-" * widths[column] for column in columns)
    lines.append(header)
    lines.append(separator)
    for row in rendered_rows:
        lines.append(" | ".join(row[column].ljust(widths[column]) for column in columns))
    return "\n".join(lines)


def _render(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def speedup_versus(
    results: Mapping[str, float], ours: str = "Ours", higher_is_better: bool = True
) -> dict[str, float]:
    """How many times better "Ours" is than each competitor.

    Args:
        results: Scheme name -> metric value (throughput or running time).
        ours: Key of the CuckooGraph entry.
        higher_is_better: ``True`` for throughput (Mops), ``False`` for
            running time (seconds).

    Returns:
        Scheme name -> factor by which CuckooGraph is better (values above 1
        mean CuckooGraph wins, matching how the paper quotes its factors).
    """
    if ours not in results:
        raise KeyError(f"{ours!r} missing from results {sorted(results)}")
    ours_value = results[ours]
    factors: dict[str, float] = {}
    for scheme, value in results.items():
        if scheme == ours:
            continue
        if higher_is_better:
            factors[scheme] = float("inf") if value == 0 else ours_value / value
        else:
            factors[scheme] = float("inf") if ours_value == 0 else value / ours_value
    return factors


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (0 if the sequence is empty)."""
    finite = [value for value in values if value > 0 and value != float("inf")]
    if not finite:
        return 0.0
    product = 1.0
    for value in finite:
        product *= value
    return product ** (1.0 / len(finite))


def memory_series_table(points, title: Optional[str] = None) -> str:
    """Render Figure-9-style memory points grouped by scheme."""
    rows = [point.as_row() for point in points]
    return format_table(rows, columns=["scheme", "dataset", "inserted", "memory_bytes"],
                        title=title)


def write_bench_json(name: str, payload: Mapping[str, object],
                     directory: Union[str, Path]) -> Path:
    """Write a machine-readable benchmark result next to the text report.

    The plain-text tables are for human diffing; CI and trend tooling want
    the same numbers without parsing aligned columns.  The payload lands in
    ``<directory>/BENCH_<name>.json`` -- sorted keys, trailing newline --
    so reruns on identical numbers produce byte-identical files.  Returns
    the written path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
