"""Command line of the benchmark: ``once``, ``run`` and ``compare``.

``once`` is what ``BENCHMARK.json``'s ``command`` runs: one workload, one
seed, in this process, its result as one JSON line.  ``run`` is the suite a
person runs: every workload, each repetition a fresh ``once`` subprocess,
medians printed by name and unit.  ``compare`` holds a new ``run`` output
against an old one with the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[1]

if __package__ in (None, ""):
    # Run as a script (``python3 benchmarks/perf/cli.py``): become the module
    # ``benchmarks.perf.cli`` so the relative imports below resolve.
    sys.path.insert(0, str(REPO_ROOT))
    __package__ = "benchmarks.perf"
if importlib.util.find_spec("repro") is None:
    # No PYTHONPATH=src: the program is the checkout's own source tree.
    sys.path.insert(0, str(REPO_ROOT / "src"))

DEFAULT_SEED = 20250101


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(REPO_ROOT / "BENCHMARK.json") as file:
        return json.load(file)


def workload_names(spec: dict) -> list:
    return [entry["name"] for entry in spec["workloads"]]


def cmd_once(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same interpreter state for every run: re-exec with hashing pinned.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(PACKAGE_DIR / "cli.py"), *sys.argv[1:]])
    from .runner import run_once

    spec = load_spec()
    if args.workload not in workload_names(spec):
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{workload_names(spec)}", file=sys.stderr)
        return 2
    result, details = run_once(spec, args.workload, args.seed, args.seconds,
                               bool(args.trace), inject_mismatch=args.inject_mismatch)
    if args.details:
        with open(args.details, "w") as file:
            json.dump(details, file, indent=1, sort_keys=True)
    for note in details["failure_notes"]:
        print(f"FAILED: {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def cmd_run(args: argparse.Namespace) -> int:
    from .suite import run_suite

    return run_suite(load_spec(), args)


def cmd_compare(args: argparse.Namespace) -> int:
    from .compare import compare_files

    return compare_files(load_spec(), args.old, args.new)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.perf", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    once = commands.add_parser("once", help="one workload, one run, one JSON line")
    once.add_argument("--workload", required=True)
    once.add_argument("--seed", type=int, default=DEFAULT_SEED)
    once.add_argument("--seconds", type=float, default=15.0)
    once.add_argument("--trace", type=int, choices=(0, 1), default=0)
    once.add_argument("--details", help="also write phases, counts and notes to this file")
    once.add_argument("--inject-mismatch", action="store_true",
                      help="corrupt one expected value (the smoke test's self-check)")
    once.set_defaults(handler=cmd_once)

    run = commands.add_parser("run", help="every workload, repeated, medians printed")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--repeat", type=int, default=3)
    run.add_argument("--workload", action="append",
                     help="only this workload (repeatable); default: all")
    run.add_argument("--seconds", type=float, default=None,
                     help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", action="store_true",
                     help="also make one traced run per workload: per-layer metrics + span files")
    run.add_argument("--smoke", action="store_true",
                     help="1/50 size, one repetition: checks the harness, not the program")
    run.add_argument("--out", help="write the result document here")
    run.add_argument("--inject-mismatch", action="store_true", help=argparse.SUPPRESS)
    run.set_defaults(handler=cmd_run)

    compare = commands.add_parser("compare", help="NEW against OLD with the benchmark's bounds")
    compare.add_argument("old")
    compare.add_argument("new")
    compare.set_defaults(handler=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
