"""End-to-end + per-layer performance benchmark of the whole store stack.

``BENCHMARK.json`` at the repository root names the workloads and metrics;
``README.md`` in this directory is the glossary.  Entry points::

    python3 benchmarks/perf/cli.py once --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.perf run [--repeat K] [--trace] [--out FILE]
    PYTHONPATH=src python -m benchmarks.perf compare OLD.json NEW.json
"""
