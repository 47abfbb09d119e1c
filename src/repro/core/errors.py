"""Exception hierarchy for the CuckooGraph reproduction.

The library prefers returning status values for expected outcomes (for
example, an insertion that lands in a denylist is not an error), and raises
exceptions only for conditions that indicate misuse or genuine capacity
exhaustion.
"""

from __future__ import annotations


class CuckooGraphError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(CuckooGraphError):
    """Raised when a :class:`~repro.core.config.CuckooGraphConfig` is invalid."""


class CapacityError(CuckooGraphError):
    """Raised when an insertion cannot be accommodated anywhere.

    This only happens when both the cuckoo tables *and* the relevant denylist
    are full.  The paper assumes denylists are "never full during insertion";
    this exception is the explicit signal that the assumption was violated for
    the chosen configuration.
    """


class NotFoundError(CuckooGraphError):
    """Raised when an operation references a node or edge that does not exist."""


class StoreClosedError(CuckooGraphError):
    """Raised when a closed store is handed a call it no longer accepts.

    Which calls those are is each scheme's choice (the sharded front-end
    refuses batches, the tiered store every operation, the persistent store
    mutations, the service client every call through the service), so a
    wrapper that closed its store notices when something still feeds it.
    ``close`` itself is idempotent.
    """


class IntegrationError(CuckooGraphError):
    """Raised by the database integrations (mini-Redis / mini-Neo4j)."""


class PersistenceError(CuckooGraphError):
    """Raised on misuse of the durability subsystem (:mod:`repro.persist`).

    Examples: appending to a closed write-ahead log, initialising a fresh
    :class:`~repro.persist.PersistentStore` over a directory that already
    holds one (use :func:`~repro.persist.recover`), or recovering with a
    store whose sharding does not match the on-disk WAL segmentation.
    """


class WalCorruptError(PersistenceError):
    """Raised when a write-ahead log fails validation *before* its tail.

    The reader treats the first structurally incomplete record as the end
    of the log (the crash signature); damage it can *prove* no crashed
    append produces -- a foreign magic header, a checksum mismatch on a
    record with more data after it, an undecodable opcode inside a
    checksum-valid record -- raises this instead of being skipped.  (A
    corrupted length field claiming past end-of-file is indistinguishable
    from a torn tail and is treated as one.)
    """


class ReplicationError(CuckooGraphError):
    """Raised on misuse of the replication subsystem (:mod:`repro.replicate`).

    Examples: applying through a promoted (or closed) follower, attaching a
    follower whose store scheme cannot hold the primary's records, or a
    read-your-writes barrier that times out before the follower catches up.
    """


class SnapshotCorruptError(PersistenceError):
    """Raised when a snapshot file fails its magic/length/checksum checks.

    Snapshots are written to a temporary file and atomically renamed into
    place, so a crash never leaves a half-written snapshot under the final
    name; corruption therefore always indicates external damage.
    """
