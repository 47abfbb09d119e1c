"""``compare OLD.json NEW.json``: hold a run against an earlier one.

One row per (end-to-end metric, workload).  A pair is a **regression** when
the new median is worse than the old by more than the metric's bound in
``BENCHMARK.json``; it is **unresolved**, never "unchanged", when either
run's own run-to-run spread is wider than that bound.  Exit status is
non-zero on a regression or on more failed operations than before.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple


def worsening(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old`` (< 0: better)."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def judge(old: dict, new: dict, better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, worsening)`` for one pair of summaries."""
    worse = worsening(old["median"], new["median"], better)
    if worse > bound:
        return "regression", worse
    if max(old["spread"], new["spread"]) > bound:
        return "unresolved", worse
    if worse < -bound:
        return "improved", worse
    return "ok", worse


def compare_documents(spec: dict, old: dict, new: dict) -> Tuple[List[dict], List[str]]:
    """Rows for every pair both documents hold, and the reasons to fail."""
    rows: List[dict] = []
    failures: List[str] = []
    for workload, new_entry in new["workloads"].items():
        old_entry = old["workloads"].get(workload)
        if old_entry is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in old_entry["end_to_end"] or name not in new_entry["end_to_end"]:
                continue
            before, after = old_entry["end_to_end"][name], new_entry["end_to_end"][name]
            verdict, worse = judge(before, after, metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "old": before, "new": after, "bound": metric["bound"],
                         "worse": worse, "verdict": verdict})
            if verdict == "regression":
                failures.append(f"{name} @ {workload} is {worse:+.1%} worse "
                                f"(bound {metric['bound']:.1%})")
        old_rate = old_entry["failed"] / max(1, old_entry["attempted"])
        new_rate = new_entry["failed"] / max(1, new_entry["attempted"])
        if new_rate > old_rate:
            failures.append(f"{workload}: {new_entry['failed']} of {new_entry['attempted']} "
                            f"operations failed, up from {old_entry['failed']} of "
                            f"{old_entry['attempted']}")
    return rows, failures


def print_rows(rows: List[dict]) -> None:
    print(f"{'workload':<18}{'metric':<21}{'old median':>12}{'spread':>8}"
          f"{'new median':>12}{'spread':>8}{'worse by':>10}{'bound':>7}  verdict")
    for row in rows:
        print(f"{row['workload']:<18}{row['metric']:<21}"
              f"{row['old']['median']:>12.4f}{row['old']['spread']:>8.1%}"
              f"{row['new']['median']:>12.4f}{row['new']['spread']:>8.1%}"
              f"{row['worse']:>+10.1%}{row['bound']:>7.1%}  {row['verdict']}")


def compare_files(spec: dict, old_path: str, new_path: str) -> int:
    documents: Dict[str, dict] = {}
    for label, path in (("old", old_path), ("new", new_path)):
        with open(path) as file:
            documents[label] = json.load(file)
    rows, failures = compare_documents(spec, documents["old"], documents["new"])
    print_rows(rows)
    unresolved = sum(1 for row in rows if row["verdict"] == "unresolved")
    print(f"\n{len(rows)} pairs, {unresolved} unresolved, {len(failures)} failing")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0
