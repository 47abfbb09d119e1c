"""Failover quickstart: kill -9 a networked primary, elect, serve, fence.

The networked half of ``repro.replicate`` with a **real process boundary**:

1. spawn the primary in a child process (this script re-execs itself with
   ``--primary``): a WAL-backed store, a ``Primary`` tailer and a
   ``ReplicationServer`` committing traffic flat out,
2. attach two ``RemoteFollower`` replicas over TCP and heartbeat the
   primary through the live replication connections,
3. ``kill -9`` the child mid-commit — no clean shutdown of any kind,
4. let the lease expire and the ``FailoverManager`` elect the lowest-id
   follower, whose promoted store is byte-identical to a point-in-time
   recovery of the murdered directory at the winner's position,
5. serve from the new primary's TCP endpoint and show the dead primary's
   WAL segments fenced out of the promoted timeline on rejoin.

Run with ``PYTHONPATH=src python examples/failover_quickstart.py``.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
if str(REPO_SRC) not in sys.path:
    sys.path.insert(0, str(REPO_SRC))

from repro import ShardedCuckooGraph                      # noqa: E402
from repro.persist import (                               # noqa: E402
    LOCK_NAME,
    PersistentStore,
    read_wal_records,
    recover,
)
from repro.replicate import (                             # noqa: E402
    FailoverManager,
    Primary,
    RemoteFollower,
    ReplicationServer,
)

NUM_SHARDS = 4

#: Group commits the parent watches land on both replicas before the kill.
WARMUP_COMMITS = 12


def run_primary(base: str, portfile: str) -> int:
    """Child mode: serve a replication endpoint and commit until killed."""
    store = PersistentStore(
        base, store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
        own_store=True, sync_on_commit=False, compact_wal_bytes=None)
    primary = Primary(store)
    server = ReplicationServer(primary)
    host, port = server.address
    # Atomic publish: the parent polls for this file.
    with open(portfile + ".tmp", "w") as handle:
        handle.write(f"{host} {port}\n")
    os.replace(portfile + ".tmp", portfile)
    source = 0
    while True:  # committing flat out until SIGKILL lands mid-commit
        store.insert_edges([(source, source + offset) for offset in (1, 2, 3)])
        source += 10
        primary.sync_and_pump()


def copy_directory(source: Path, destination: Path) -> Path:
    shutil.copytree(source, destination)
    lock = destination / LOCK_NAME
    if lock.exists():
        lock.unlink()  # the murdered process never released its lock
    return destination


def demo(workspace: Path) -> None:
    base = workspace / "primary"
    portfile = workspace / "port"

    # -- 1. the primary lives in another process -------------------------- #
    child = subprocess.Popen(
        [sys.executable, __file__, "--primary", str(base), str(portfile)])
    deadline = time.monotonic() + 30.0
    while not portfile.exists():
        assert child.poll() is None, "primary child died during startup"
        assert time.monotonic() < deadline, "primary never published its port"
        time.sleep(0.02)
    host, port = portfile.read_text().split()
    address = (host, int(port))
    print(f"primary serving at {address} (pid {child.pid})")

    # -- 2. two TCP replicas + heartbeats --------------------------------- #
    followers = {
        node_id: RemoteFollower(
            address, store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
            node_id=node_id)
        for node_id in (1, 2)
    }
    manager = FailoverManager(lease_s=0.5)
    for node_id, follower in followers.items():
        manager.register(node_id, follower)
    for follower in followers.values():
        follower.wait_for(WARMUP_COMMITS, timeout=30.0)
    print(f"replicas converged past commit {WARMUP_COMMITS}; "
          f"heartbeats {manager.heartbeat()}")

    # -- 3. kill -9, mid-commit ------------------------------------------- #
    os.kill(child.pid, signal.SIGKILL)
    child.wait(timeout=10.0)
    print(f"primary murdered with SIGKILL (lease {manager.lease_s}s)")

    # -- 4. lease expiry -> election -------------------------------------- #
    result = None
    deadline = time.monotonic() + 30.0
    while result is None and time.monotonic() < deadline:
        result = manager.maybe_failover(path=workspace / "promoted",
                                        rewire=False,
                                        listen=("127.0.0.1", 0))
        time.sleep(0.05)
    assert result is not None, "election never fired"
    print(f"node {result.node_id} won the election after the lease expired; "
          f"promoted store has {result.store.num_edges} edges at generation "
          f"{result.store.generation}")

    # The promoted state is a true point on the dead primary's timeline:
    # rewinding a copy of the murdered directory to the winner's position
    # reproduces it edge-for-edge (the torn tail lies beyond the cut).
    pitr_dir = copy_directory(base, workspace / "pitr")
    rewound = recover(pitr_dir, store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
                      upto=result.position)
    assert sorted(rewound.edges()) == sorted(result.store.edges())
    print(f"byte-identity check: recover(copy, upto=<winner position>) "
          f"== promoted store ({rewound.num_edges} edges)")
    rewound.close()

    # -- 5. the new primary serves; the old one is fenced ------------------ #
    result.store.insert_edge(500_000, 500_001)
    result.primary.sync_and_pump()
    rejoined = RemoteFollower(
        result.server.address,
        store=ShardedCuckooGraph(num_shards=NUM_SHARDS), node_id=3)
    assert rejoined.store.has_edge(500_000, 500_001)
    print(f"new primary serves at {result.server.address}; "
          f"a late rejoiner converged onto {rejoined.store.num_edges} edges")
    rejoined.close()

    result.store.checkpoint()  # fold the promoted timeline; segments empty
    promoted_state = sorted(result.store.edges())
    result.server.close()
    result.primary.close()
    result.store.close()
    smuggled = 0
    for segment in sorted(base.glob("wal-*.bin")):
        _, records, _ = read_wal_records(segment)
        if records:
            shutil.copy(segment, workspace / "promoted" / segment.name)
            smuggled += 1
    fenced = recover(workspace / "promoted",
                     store=ShardedCuckooGraph(num_shards=NUM_SHARDS))
    assert sorted(fenced.edges()) == promoted_state
    assert fenced.last_recovery["wal_ops"] == 0
    print(f"fencing: {smuggled} smuggled segments from the dead primary "
          f"replayed {fenced.last_recovery['wal_ops']} ops into the promoted "
          f"timeline")
    fenced.close()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-failover-demo-") as tmp:
        demo(Path(tmp))


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--primary":
        sys.exit(run_primary(sys.argv[2], sys.argv[3]))
    main()
