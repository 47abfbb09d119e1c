"""The benchmark's own smoke test: the harness end to end at 1/50 size.

Checks the harness, not the program's speed: the result document's schema,
that every metric name is one ``BENCHMARK.json`` declares, that an injected
oracle mismatch fails the run, that ``BENCHMARK.json`` keeps the driver's
contract, and that the command refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
ENV_KEYS = {"nproc", "python", "python_build", "git_commit", "seed",
            "results_filesystem", "loadavg_at_start", "pythonhashseed"}


def suite(*arguments: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    environment = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "benchmarks.perf", *arguments],
                          cwd=cwd, env=environment, text=True, capture_output=True, timeout=120)


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json") as file:
        return json.load(file)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = suite("run", "--smoke", "--trace", "--out", str(out))
    assert done.returncode == 0, done.stderr
    with open(out) as file:
        document = json.load(file)
    document["stdout"] = done.stdout
    return document


def test_smoke_document_schema(smoke, spec):
    assert smoke["schema"] == 1
    assert smoke["claim"] is None
    assert ENV_KEYS <= set(smoke["env"])
    assert set(smoke["workloads"]) == {entry["name"] for entry in spec["workloads"]}
    end_to_end = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    for name, entry in smoke["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] > 0, name
        assert "fsync_policy" in entry["info"], name
        # Every workload reports every end-to-end metric, none of them as 0.
        assert set(entry["end_to_end"]) == set(end_to_end), name
        for metric, stats in entry["end_to_end"].items():
            assert NAME.match(metric)
            assert stats["unit"] == end_to_end[metric]
            assert stats["min"] <= stats["median"] <= stats["max"]
            assert stats["median"] > 0, (name, metric)
        assert set(entry["per_layer"]) == set(per_layer), name
        for metric, value in entry["per_layer"].items():
            assert NAME.match(metric)
            assert value["unit"] == per_layer[metric]
        assert (REPO_ROOT / entry["trace_file"]).is_file()
        # Self times add up to the traced wall time of the timed phases.
        assert abs(entry["self_time_coverage"] - 1.0) < 0.10, name


def test_smoke_prints_every_end_to_end_metric_with_its_unit(smoke, spec):
    for metric in spec["end_to_end"]:
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s.*\s{re.escape(metric['unit'])}$",
                         smoke["stdout"], re.MULTILINE), metric["name"]


def test_layers_run_where_the_readme_says_they_do(smoke):
    layers = {name: {metric: value["value"] for metric, value in entry["per_layer"].items()}
              for name, entry in smoke["workloads"].items()}
    assert layers["stream_core"]["persist.log_self_us"] == 0
    assert layers["serve_open_tiered"]["persist.log_self_us"] == 0
    assert layers["stream_durable"]["persist.log_self_us"] > 0
    for metric, home in (("tiered.hot_self_us", "serve_open_tiered"),
                         ("replicate.replica_reads", "serve_closed")):
        for name, values in layers.items():
            assert (values[metric] > 0) == (name == home), (metric, name)


def test_injected_oracle_mismatch_fails_the_run(tmp_path):
    out = tmp_path / "broken.json"
    done = suite("run", "--smoke", "--workload", "stream_core", "--inject-mismatch",
                 "--out", str(out))
    assert done.returncode == 1
    with open(out) as file:
        entry = json.load(file)["workloads"]["stream_core"]
    assert not entry["correct"] and entry["failed"] >= 1
    assert entry["end_to_end"]["ok_rate"]["median"] < 1.0


def test_benchmark_json_keeps_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == ["benchmarks/perf"]
    assert 1 <= len(spec["command"]) <= 32
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(entry for entry in spec["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in spec["end_to_end"])
    assert (REPO_ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_command_fails_without_the_program(spec, tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result, exit != 0."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PACKAGE_DIR, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    environment = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([*spec["command"], "--workload", "stream_core", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=environment,
                          text=True, capture_output=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
