"""Dataset profiles matching Table IV of the paper.

Each :class:`DatasetProfile` records the published statistics of one of the
seven evaluation datasets and knows how to generate a *scaled* synthetic
stand-in whose distributional characteristics (degree skew, duplicate-edge
ratio, density) match the original.  The real traces are large (up to 261 M
edges) and not redistributable; the profiles default to per-dataset scale
factors that keep benchmark runtimes tractable in pure Python while leaving
the scale configurable for larger runs.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Optional

from .generators import (
    dense_edge_set,
    duplicate_stream,
    powerlaw_edge_set,
    regular_edge_set,
)
from .stream import EdgeStream

#: Generator kinds understood by :meth:`DatasetProfile.generate`.
KIND_POWERLAW = "powerlaw"
KIND_DENSE = "dense"
KIND_REGULAR = "regular"


@dataclass(frozen=True)
class DatasetProfile:
    """Published statistics and scaled-generation recipe for one dataset.

    Attributes:
        name: Dataset name as used throughout the paper's figures.
        weighted: Whether the original trace contains duplicate edges
            (the "Weighted?" column of Table IV).
        num_nodes / num_edges / num_edges_dedup: Published counts.
        avg_degree / max_degree / edge_density: Published statistics.
        kind: Which generator family reproduces the dataset's shape.
        default_scale: Default divisor applied to node/edge counts when
            generating the synthetic stand-in.
        out_exponent / in_exponent: Zipf exponents for the power-law
            generator (larger means more skew / higher maximum degree).
        duplication_skew: Zipf exponent for how arrivals repeat distinct
            edges in the duplicated stream.
        dense_density: Edge density for the dense generator.
        regular_degree: Constant out-degree for the regular generator.
    """

    name: str
    weighted: bool
    num_nodes: int
    num_edges: int
    num_edges_dedup: int
    avg_degree: float
    max_degree: int
    edge_density: float
    kind: str = KIND_POWERLAW
    default_scale: int = 1000
    out_exponent: float = 0.8
    in_exponent: float = 0.8
    duplication_skew: float = 1.1
    dense_density: float = 0.9
    regular_degree: int = 6

    def scaled_counts(self, scale: Optional[int] = None) -> tuple[int, int, int]:
        """Scaled (nodes, total edges, distinct edges) for the synthetic stand-in."""
        divisor = scale if scale is not None else self.default_scale
        nodes = max(16, self.num_nodes // divisor)
        dedup = max(32, self.num_edges_dedup // divisor)
        total = max(dedup, self.num_edges // divisor)
        return nodes, total, dedup

    def generate(self, scale: Optional[int] = None, seed: int = 1) -> EdgeStream:
        """Generate the scaled synthetic stand-in stream for this dataset.

        The per-dataset seed component is a CRC of the name, not ``hash()``:
        string hashing is randomized per process (PYTHONHASHSEED), which
        used to regenerate *different* stand-in streams on every run and
        made the benchmark shape checks flaky.  Streams are now bit-stable
        across processes for a given ``(name, scale, seed)``.
        """
        rng = random.Random(seed * 1_000_003 + zlib.crc32(self.name.encode()) % 1_000_000)
        nodes, total, dedup = self.scaled_counts(scale)
        if self.kind == KIND_DENSE:
            distinct = dense_edge_set(nodes, self.dense_density, rng)
        elif self.kind == KIND_REGULAR:
            degree = min(self.regular_degree, nodes - 1)
            distinct = regular_edge_set(nodes, degree, rng)
        else:
            distinct = powerlaw_edge_set(
                nodes,
                dedup,
                rng,
                out_exponent=self.out_exponent,
                in_exponent=self.in_exponent,
            )
        if self.weighted and total > len(distinct):
            edges = duplicate_stream(distinct, total, rng, skew=self.duplication_skew)
        else:
            edges = distinct
        return EdgeStream(self.name, edges)


#: The seven evaluation datasets of Table IV, with published statistics.
TABLE4_PROFILES: dict[str, DatasetProfile] = {
    "CAIDA": DatasetProfile(
        name="CAIDA",
        weighted=True,
        num_nodes=510_000,
        num_edges=27_120_000,
        num_edges_dedup=850_000,
        avg_degree=1.66,
        max_degree=17_950,
        edge_density=3.26e-6,
        kind=KIND_POWERLAW,
        default_scale=500,
        out_exponent=1.1,
        in_exponent=1.1,
        duplication_skew=1.2,
    ),
    "NotreDame": DatasetProfile(
        name="NotreDame",
        weighted=False,
        num_nodes=330_000,
        num_edges=1_500_000,
        num_edges_dedup=1_500_000,
        avg_degree=4.60,
        max_degree=10_721,
        edge_density=1.41e-5,
        kind=KIND_POWERLAW,
        default_scale=100,
        out_exponent=0.9,
        in_exponent=0.9,
    ),
    "StackOverflow": DatasetProfile(
        name="StackOverflow",
        weighted=True,
        num_nodes=2_600_000,
        num_edges=63_500_000,
        num_edges_dedup=36_230_000,
        avg_degree=13.92,
        max_degree=60_406,
        edge_density=5.35e-6,
        kind=KIND_POWERLAW,
        default_scale=2000,
        out_exponent=0.9,
        in_exponent=0.9,
        duplication_skew=1.0,
    ),
    "WikiTalk": DatasetProfile(
        name="WikiTalk",
        weighted=True,
        num_nodes=2_990_000,
        num_edges=24_980_000,
        num_edges_dedup=9_380_000,
        avg_degree=3.14,
        max_degree=146_311,
        edge_density=1.05e-6,
        kind=KIND_POWERLAW,
        default_scale=1000,
        out_exponent=1.2,
        in_exponent=1.2,
        duplication_skew=1.0,
    ),
    "Weibo": DatasetProfile(
        name="Weibo",
        weighted=False,
        num_nodes=58_660_000,
        num_edges=261_320_000,
        num_edges_dedup=261_320_000,
        avg_degree=4.46,
        max_degree=278_491,
        edge_density=7.60e-8,
        kind=KIND_POWERLAW,
        default_scale=10_000,
        out_exponent=1.0,
        in_exponent=1.0,
    ),
    "DenseGraph": DatasetProfile(
        name="DenseGraph",
        weighted=False,
        num_nodes=8_000,
        num_edges=57_590_000,
        num_edges_dedup=57_590_000,
        avg_degree=7199.16,
        max_degree=14_537,
        edge_density=0.90,
        kind=KIND_DENSE,
        default_scale=40,
        dense_density=0.90,
    ),
    "SparseGraph": DatasetProfile(
        name="SparseGraph",
        weighted=False,
        num_nodes=5_000_000,
        num_edges=30_000_000,
        num_edges_dedup=30_000_000,
        avg_degree=6.0,
        max_degree=6,
        edge_density=1.20e-6,
        kind=KIND_REGULAR,
        default_scale=1000,
        regular_degree=6,
    ),
}

#: Dataset ordering used on every figure's x-axis.
DATASET_ORDER = [
    "CAIDA",
    "NotreDame",
    "StackOverflow",
    "WikiTalk",
    "Weibo",
    "DenseGraph",
    "SparseGraph",
]
