"""Synthetic stand-ins for the paper's seven evaluation datasets (Table IV)."""

from .generators import (
    dense_edge_set,
    duplicate_stream,
    powerlaw_edge_set,
    regular_edge_set,
)
from .registry import dataset_profile, load_dataset
from .stream import EdgeStream, StreamStatistics
from .table4 import DATASET_ORDER, TABLE4_PROFILES, DatasetProfile

__all__ = [
    "DATASET_ORDER",
    "DatasetProfile",
    "EdgeStream",
    "StreamStatistics",
    "TABLE4_PROFILES",
    "dataset_profile",
    "dense_edge_set",
    "duplicate_stream",
    "load_dataset",
    "powerlaw_edge_set",
    "regular_edge_set",
]
