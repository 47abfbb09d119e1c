"""Dataset registry: name -> scaled synthetic stream, with caching.

Benchmarks request datasets by name ("CAIDA", "Weibo", ...); the registry
generates each scaled stand-in once per (name, scale, seed) combination and
caches it, so a figure that sweeps all seven datasets does not regenerate
streams repeatedly.
"""

from __future__ import annotations

from typing import Optional

from .stream import EdgeStream
from .table4 import DATASET_ORDER, TABLE4_PROFILES, DatasetProfile

_CACHE: dict[tuple[str, Optional[int], int], EdgeStream] = {}


def dataset_profile(name: str) -> DatasetProfile:
    """The Table IV profile for ``name`` (raises ``KeyError`` if unknown)."""
    try:
        return TABLE4_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; expected one of {DATASET_ORDER}"
        ) from None


def load_dataset(name: str, scale: Optional[int] = None, seed: int = 1) -> EdgeStream:
    """Scaled synthetic stand-in stream for the named dataset (cached)."""
    key = (name, scale, seed)
    if key not in _CACHE:
        _CACHE[key] = dataset_profile(name).generate(scale=scale, seed=seed)
    return _CACHE[key]
