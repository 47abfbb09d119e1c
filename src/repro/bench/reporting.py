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
