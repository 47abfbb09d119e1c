"""Golden counts: the modelled cost of one fixed stream, pinned to literals.

The hot path of :mod:`repro.core` may be rewritten for wall-clock speed, but
the data structure it implements may not move: hash values, bucket contents,
victim choice, RNG consumption, expansion points, denylist contents and
iteration order decide every ``Counters`` field and ``memory_bytes()``.  This
test drives one seeded power-law stream through every graph variant and
compares, at six checkpoints, the counters, the structure summary, the
modelled memory and digests of ``edges()`` / ``successors(u)`` order and of
every operation's return value with literals recorded at commit d70e5f0 (the
parent of the hot-path rewrite).

The literals live in ``golden_counts.json`` beside this file.  To re-record
after a change that is *meant* to move the counts, run
``PYTHONPATH=src python tests/core/test_golden_counts.py``.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro import CuckooGraph, CuckooGraphConfig, WeightedCuckooGraph
from repro.core.multiedge import MultiEdgeCuckooGraph

GOLDEN_PATH = Path(__file__).with_name("golden_counts.json")
SEED = 20250928
NUM_NODES = 1200
NUM_DRAWS = 8000

#: A configuration small enough that kick-out failures, both denylists and
#: reverse transformations all fire on this stream.
TIGHT = dict(d=2, T=6, initial_scht_length=2, initial_lcht_length=4)

VARIANTS = {
    "basic": lambda: CuckooGraph(),
    "weighted": lambda: WeightedCuckooGraph(),
    "multiedge": lambda: MultiEdgeCuckooGraph(),
    "no_denylist": lambda: CuckooGraph(CuckooGraphConfig(use_denylist=False)),
    "bob": lambda: CuckooGraph(CuckooGraphConfig(hash_family="bob")),
    "modular": lambda: CuckooGraph(CuckooGraphConfig(hash_family="modular")),
    "tight": lambda: CuckooGraph(CuckooGraphConfig(**TIGHT)),
    "tight_weighted": lambda: WeightedCuckooGraph(CuckooGraphConfig(**TIGHT)),
    "tight_no_denylist": lambda: CuckooGraph(
        CuckooGraphConfig(use_denylist=False, **TIGHT)),
    "tight_collapse": lambda: CuckooGraph(
        CuckooGraphConfig(collapse_chain_to_slots=True, **TIGHT)),
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def powerlaw_stream(seed: int = SEED) -> list:
    """``NUM_DRAWS`` edges (duplicates included) between random 62-bit ids,
    sources and destinations both drawn with a cubic skew."""
    rng = random.Random(seed)
    ids = [rng.getrandbits(62) for _ in range(NUM_NODES)]
    return [
        (ids[int(NUM_NODES * rng.random() ** 3)], ids[int(NUM_NODES * rng.random() ** 3)])
        for _ in range(NUM_DRAWS)
    ]


def checkpoint(graph, sources, results) -> dict:
    """Everything observable about the structure, in a comparable form."""
    edges = list(graph.edges())
    successors = [graph.successors(u) for u in sources]
    degrees = [graph.out_degree(u) for u in sources]
    return {
        "edges": digest(edges),
        "successors": digest(successors),
        "degrees": digest(degrees),
        "results": digest(results),
        "summary": graph.structure_summary(),
        "memory_bytes": graph.memory_bytes(),
        "counters": graph.counters.snapshot(),
    }


def run_stream(graph, seed: int = SEED) -> dict:
    """insert -> has hits and misses -> successors -> delete half ->
    interleaved mix -> delete the rest; one checkpoint after each phase."""
    stream = powerlaw_stream(seed)
    rng = random.Random(seed ^ 0xC0DE)
    sources = list(dict.fromkeys(u for u, _ in stream))
    miss = 1 << 62
    record = {}

    results = [graph.insert_edge(u, v) for u, v in stream]
    record["insert"] = checkpoint(graph, sources, results)

    results = [graph.has_edge(u, v) for u, v in stream[::3]]
    results += [graph.has_edge(u, v | miss) for u, v in stream[::5]]
    results += [graph.has_edge(u | miss, v) for u, v in stream[::7]]
    record["has"] = checkpoint(graph, sources, results)

    results = [graph.successors(u) for u in sources + [miss, miss + 1]]
    results += [graph.has_node(u) for u in sources[::4] + [miss]]
    record["successors"] = checkpoint(graph, sources, results)

    distinct = list(dict.fromkeys(stream))
    rng.shuffle(distinct)
    half = len(distinct) // 2
    results = [graph.delete_edge(u, v) for u, v in distinct[:half]]
    record["delete_half"] = checkpoint(graph, sources, results)

    results = []
    for index, (u, v) in enumerate(distinct):
        kind = index % 4
        if kind == 0:
            results.append(graph.insert_edge(u, v))
        elif kind == 1:
            results.append(graph.delete_edge(u, v))
        elif kind == 2:
            results.append(graph.has_edge(u, v))
        else:
            results.append(graph.insert_edge(v, u))
    record["mixed"] = checkpoint(graph, sources, results)

    # Weighted edges need one delete per unit of weight: go round until empty.
    results = []
    for _ in range(NUM_DRAWS):
        remaining = list(graph.edges())
        if not remaining:
            break
        results += [graph.delete_edge(u, v) for u, v in remaining]
    record["delete_rest"] = checkpoint(graph, sources, results)
    return record


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_counts_match_parent_commit(variant, golden):
    record = run_stream(VARIANTS[variant]())
    for phase, got in record.items():
        assert got == golden[variant][phase], (
            f"{variant}: state diverged after phase {phase!r}")
    assert record["delete_rest"]["summary"]["num_edges"] == 0


def test_stream_exercises_every_mechanism(golden):
    """The pin is only worth something if the stream reaches the rare paths."""
    basic = golden["basic"]["insert"]
    assert basic["counters"]["expansions"] > 10
    assert basic["counters"]["kicks"] > 0
    assert basic["summary"]["nodes_with_scht_chain"] > 10
    assert len(basic["summary"]["lcht_tables"]) > 1
    tight = golden["tight"]
    assert tight["insert"]["counters"]["insert_failures"] > 0
    assert tight["insert"]["summary"]["small_denylist_entries"] > 0
    assert golden["tight_weighted"]["insert"]["summary"]["large_denylist_entries"] > 0
    assert tight["has"]["counters"]["denylist_hits"] > tight["insert"]["counters"]["denylist_hits"]
    assert tight["delete_rest"]["counters"]["contractions"] > 0
    assert golden["tight_no_denylist"]["insert"]["counters"]["insert_failures"] > 0


if __name__ == "__main__":
    recorded = {name: run_stream(build()) for name, build in sorted(VARIANTS.items())}
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1) + "\n")
