"""Operation counters shared across the CuckooGraph data structures.

The paper's analysis (Section IV and Table III) argues about the number of
bucket probes, kick-outs and expansions rather than wall-clock time.  A
:class:`Counters` instance is threaded through every table so those quantities
can be reported directly, which is how the complexity table and the
Theorem 1/2 verification experiments are reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Counters:
    """Mutable counters for probes, kicks and structural events.

    Attributes:
        bucket_probes: Number of buckets examined (lookup or insert).
        cell_probes: Number of individual cells examined.
        kicks: Number of cuckoo evictions performed.
        insert_attempts: Number of placement attempts (initial + re-insertions
            caused by kicks); dividing by ``edges_inserted`` gives the
            "average number of insertions per item" quantity the paper reports
            (≈1.017 for L-CHT and ≈1.006 for S-CHT on NotreDame).
        insert_failures: Insertions that exhausted ``T`` kicks and fell back
            to a denylist (or forced an expansion when the denylist is off).
        expansions: Table-chain expansions (enable or merge-and-grow).
        contractions: Table-chain contractions (delete or compress).
        rehashed_items: Items moved during expansions/contractions.
        denylist_hits: Lookups answered from a denylist.
        edges_inserted / edges_deleted / edges_queried: Graph-level tallies.
    """

    bucket_probes: int = 0
    cell_probes: int = 0
    kicks: int = 0
    insert_attempts: int = 0
    insert_failures: int = 0
    expansions: int = 0
    contractions: int = 0
    rehashed_items: int = 0
    denylist_hits: int = 0
    edges_inserted: int = 0
    edges_deleted: int = 0
    edges_queried: int = 0

    #: ``bucket_probes`` at the owning graph's last ``reset_accesses()``: not
    #: a counter (unannotated, so not a field or in snapshots) but kept here
    #: so that :meth:`reset` re-bases ``accesses`` instead of turning it negative.
    access_base = 0

    def reset(self) -> None:
        """Zero every counter in place."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)
        self.access_base = 0

    def snapshot(self) -> dict[str, int]:
        """Return a plain-dict copy of the current counter values."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def __add__(self, other: "Counters") -> "Counters":
        result = Counters()
        for name in self.__dataclass_fields__:
            setattr(result, name, getattr(self, name) + getattr(other, name))
        return result
