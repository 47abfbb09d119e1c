"""One run of one workload, in this process: ``cli once`` without the parsing."""

from __future__ import annotations

import math
from typing import Dict, Tuple

from .common import RESULTS_DIR, ROUNDS, Context
from .layers import derive
from .oracle import Ledger
from .serve import run_serve_closed
from .stream import run_stream_core, run_stream_durable
from .tiered import run_serve_open_tiered
from .tracing import Tracer, clock

WORKLOADS = {
    "stream_core": run_stream_core,
    "stream_durable": run_stream_durable,
    "serve_closed": run_serve_closed,
    "serve_open_tiered": run_serve_open_tiered,
}


def run_once(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
             inject_mismatch: bool = False) -> Tuple[dict, dict]:
    """Run ``workload``; return the contract's result object and the details.

    The result carries every end-to-end metric (untraced run) or every
    per-layer metric (traced run) of ``spec``, each with its unit.
    """
    tracer = Tracer() if trace else None
    ctx = Context(workload, seed, seconds, tracer, ledger=Ledger(corrupt_first=inject_mismatch))
    started = clock()
    for index in range(ROUNDS):
        ctx.start_round(index)
        WORKLOADS[workload](ctx)
    ctx.finish()
    if trace:
        wanted = spec["per_layer"]
        values = derive(ctx, tracer, [entry["name"] for entry in wanted])
        tracer.write(RESULTS_DIR / f"trace_{workload}.json",
                     {"workload": workload, "seed": seed, "seconds": seconds})
    else:
        wanted = spec["end_to_end"]
        values = {entry["name"]: ctx.end_to_end[entry["name"]] for entry in wanted}
    # An end-to-end metric is never 0 by construction; a 0 means a phase did nothing.
    sound = all(math.isfinite(value) and (trace or value > 0) for value in values.values())
    result = {
        "correct": ctx.ledger.failed == 0 and sound,
        "attempted": ctx.ledger.attempted,
        "failed": ctx.ledger.failed,
        "metrics": {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
                    for entry in wanted},
    }
    details: Dict[str, object] = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "wall_s": clock() - started,
        "rounds": [{**entry, "windows": {name: values for name, values in entry["windows"].items()
                                         if not name.endswith("_samples")}}
                   for entry in ctx.rounds],
        "end_to_end": ctx.end_to_end,
        "info": ctx.info,
        "failure_notes": ctx.ledger.notes,
    }
    return result, details
