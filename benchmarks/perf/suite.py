"""``run``: the whole suite, repeated, each run in a fresh subprocess.

Workload order rotates from one repetition to the next, so no workload
always runs on a warm (or cold) machine.  Every ``once`` child gets
``PYTHONHASHSEED=0``; garbage collection stays on, as it is for users.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .common import PACKAGE_DIR, REPO_ROOT, RESULTS_DIR
from .stats import summarize

SCHEMA = 1
SMOKE_SECONDS = 0.3       # 1/50 of run_seconds: about 1/50 of every size
CHILD_TIMEOUT_S = 600


def environment(seed: int) -> Dict[str, object]:
    """Where and on what the numbers were taken."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "python_build": " ".join(platform.python_build()),
        "python_compiler": platform.python_compiler(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "pythonhashseed": "0",
        "gc": "enabled",
        "results_filesystem": filesystem_of(RESULTS_DIR),
        "loadavg_at_start": list(os.getloadavg()),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def filesystem_of(path: Path) -> str:
    """Type of the filesystem the stores' directories live on (``/proc/mounts``)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                _, mount_point, fstype = line.split()[:3]
                if target.startswith(mount_point) and len(mount_point) > len(best):
                    best, kind = mount_point, fstype
    except OSError:
        pass
    return kind


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              inject_mismatch: bool) -> Dict[str, object]:
    """One ``once`` subprocess; its result line and its details file."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    details_path = RESULTS_DIR / f"details_{workload}_{int(trace)}.json"
    command = [sys.executable, str(PACKAGE_DIR / "cli.py"), "once",
               "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--details", str(details_path)]
    if inject_mismatch:
        command.append("--inject-mismatch")
    done = subprocess.run(command, cwd=REPO_ROOT, text=True, capture_output=True,
                          timeout=CHILD_TIMEOUT_S, env={**os.environ, "PYTHONHASHSEED": "0"})
    lines = done.stdout.strip().splitlines()
    if not lines or done.returncode not in (0, 1):
        raise RuntimeError(f"{workload} (trace={int(trace)}) exited {done.returncode} "
                           f"without a result:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    with open(details_path) as file:
        result["details"] = json.load(file)
    details_path.unlink()
    return result


def run_suite(spec: dict, args) -> int:
    workloads = args.workload or [entry["name"] for entry in spec["workloads"]]
    seconds = SMOKE_SECONDS if args.smoke else (args.seconds or spec["run_seconds"])
    repeat = 1 if args.smoke else args.repeat
    document: Dict[str, object] = {
        "schema": SCHEMA,
        "claim": None,
        "env": environment(args.seed),
        "seconds": seconds,
        "repeat": repeat,
        "workloads": {name: {"end_to_end": {}, "per_layer": {}, "attempted": 0,
                             "failed": 0, "correct": True, "info": {}} for name in workloads},
    }
    collected: Dict[str, Dict[str, List[float]]] = {name: {} for name in workloads}
    for repetition in range(repeat):
        turn = repetition % len(workloads)
        for name in workloads[turn:] + workloads[:turn]:
            result = run_child(name, args.seed, seconds, False, args.inject_mismatch)
            fold(document["workloads"][name], result)
            for metric, entry in result["metrics"].items():
                collected[name].setdefault(metric, []).append(entry["value"])
            print(f"# {name} repetition {repetition + 1}/{repeat}: "
                  f"{result['details']['wall_s']:.1f} s", file=sys.stderr)
    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]}
    for name in workloads:
        document["workloads"][name]["end_to_end"] = {
            metric: {"unit": units[metric], **summarize(values)}
            for metric, values in collected[name].items()}
    if args.trace:
        for name in workloads:
            result = run_child(name, args.seed, seconds, True, False)
            entry = document["workloads"][name]
            fold(entry, result)
            entry["per_layer"] = {metric: {"unit": value["unit"], "value": value["value"]}
                                  for metric, value in result["metrics"].items()}
            entry["trace_file"] = f"benchmarks/perf/results/trace_{name}.json"
            entry["self_time_coverage"] = result["details"]["info"].get("self_time_coverage")
    print_report(spec, document)
    if args.out:
        with open(args.out, "w") as file:
            json.dump(document, file, indent=1, sort_keys=True)
            file.write("\n")
    return 0 if all(entry["correct"] for entry in document["workloads"].values()) else 1


def fold(entry: Dict[str, object], result: Dict[str, object]) -> None:
    """Add one child's failure accounting to its workload's totals."""
    entry["attempted"] += result["attempted"]
    entry["failed"] += result["failed"]
    entry["correct"] = entry["correct"] and result["correct"]
    info = result["details"]["info"]
    entry["info"].update({key: value for key, value in info.items()
                          if key != "self_time_coverage"})
    if result["details"]["failure_notes"]:
        entry["info"]["failure_notes"] = result["details"]["failure_notes"]


def print_report(spec: dict, document: Dict[str, object]) -> None:
    env = document["env"]
    print(f"benchmarks.perf  commit {env['git_commit'][:12]}  seed {env['seed']}  "
          f"{document['repeat']} x {document['seconds']} s  nproc {env['nproc']}  "
          f"python {env['python']}  fs {env['results_filesystem']}  "
          f"load {env['loadavg_at_start'][0]:.2f}")
    for name, entry in document["workloads"].items():
        status = "ok" if entry["correct"] else "FAILED"
        print(f"\n{name}: {status}, {entry['failed']} of {entry['attempted']} operations failed")
        if "fsync_policy" in entry["info"]:
            print(f"  flush policy: {entry['info']['fsync_policy']}")
        if "flag" in entry["info"]:
            print(f"  FLAG: {entry['info']['flag']}")
        for key in ("write", "read"):
            if f"{key}_samples" in entry["info"]:
                info = entry["info"]
                print(f"  {key} latency: {info[f'{key}_samples']} samples per run, in "
                      f"{info[f'{key}_windows']} windows a round, "
                      f"{info[f'{key}_samples_beyond_p95_per_window']} beyond p95 in each")
        print(f"  {'end-to-end metric':<24}{'median':>14}{'min':>14}{'max':>14}  unit")
        for metric in spec["end_to_end"]:
            stats: Optional[dict] = entry["end_to_end"].get(metric["name"])
            if stats:
                print(f"  {metric['name']:<24}{stats['median']:>14.4f}{stats['min']:>14.4f}"
                      f"{stats['max']:>14.4f}  {stats['unit']}")
        if entry["per_layer"]:
            print(f"  {'per-layer metric (traced run)':<40}{'value':>14}  unit")
            for metric, value in entry["per_layer"].items():
                if value["value"]:
                    print(f"  {metric:<40}{value['value']:>14.4f}  {value['unit']}")
            idle = [metric for metric, value in entry["per_layer"].items() if not value["value"]]
            print(f"  zero on this workload: {', '.join(idle)}")
