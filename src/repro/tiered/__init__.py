"""Tiered hot/cold storage over the shard layout (see :mod:`.store`)."""

from .store import TieredStore, TouchLRUPolicy

__all__ = ["TieredStore", "TouchLRUPolicy"]
