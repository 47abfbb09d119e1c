"""Multi-process chaos lane: ``kill -9`` the primary, elect, verify, fence.

The strongest claim the replication stack makes is that none of it depends
on a clean shutdown.  This lane earns that claim with a real process
boundary: the primary runs in a subprocess (``_chaos_primary``), serves
two :class:`RemoteFollower` replicas over TCP, is murdered with SIGKILL
*while committing*, and then

* every clean chunk boundary before the murder was probed byte-identical
  against the dict-of-sets oracle on both replicas;
* the lease expires, the lowest-id follower wins the election, and the
  promoted store equals ``recover(copy_of_dead_primary_dir,
  upto=winner_position)`` **exactly** -- the promoted state is a true
  point on the dead primary's timeline, torn tail and all;
* the new primary serves over TCP and a late rejoiner converges onto the
  promoted timeline;
* the dead primary's WAL segments, smuggled into the promoted directory,
  are fenced: recovery replays zero of their operations.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro import ShardedCuckooGraph
from repro.persist import read_wal_records, recover
from repro.replicate import FailoverManager, RemoteFollower

from ..core.test_fuzz_differential import Oracle, assert_final_state
from ._chaos_primary import plan_chunks
from .test_fuzz_replication import copy_dir

REPO_ROOT = Path(__file__).resolve().parents[2]
NUM_SHARDS = 3

#: Clean chunk boundaries probed against the oracle before the murder.
DRIVEN_CHUNKS = 6


def spawn_primary(tmp_path, seed):
    """Start the driver subprocess; return ``(proc, server_address)``."""
    portfile = tmp_path / "port"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tests.replicate._chaos_primary",
         str(tmp_path / "primary"), str(portfile), str(seed),
         str(NUM_SHARDS)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        cwd=REPO_ROOT, env=env)
    deadline = time.monotonic() + 30.0
    while not portfile.exists():
        assert proc.poll() is None, "primary subprocess died during startup"
        assert time.monotonic() < deadline, "primary never published its port"
        time.sleep(0.02)
    host, port = portfile.read_text().split()
    return proc, (host, int(port))


def test_chaos_kill9_failover_serves_byte_identical_state(fuzz_seed, tmp_path):
    chunks = plan_chunks(fuzz_seed)
    context = f"seed={fuzz_seed} chaos"
    proc, address = spawn_primary(tmp_path, fuzz_seed)
    followers = {
        node_id: RemoteFollower(
            address, store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
            node_id=node_id)
        for node_id in (1, 2)
    }
    manager = FailoverManager(lease_s=0.5)
    for node_id, follower in followers.items():
        manager.register(node_id, follower)
    oracle = Oracle()
    result = None
    try:
        # ---- clean boundaries: both replicas == oracle ---------------- #
        for index in range(min(DRIVEN_CHUNKS, len(chunks))):
            proc.stdin.write("CHUNK\n")
            proc.stdin.flush()
            reply = proc.stdout.readline().split()
            assert reply and reply[0] == "DONE" and int(reply[1]) == index, \
                f"{context}: unexpected driver reply {reply}"
            commit_index = int(reply[2])
            # Mirror the driver's apply order: inserts, then deletes.
            for action, u, v in chunks[index]:
                if action == "insert":
                    oracle.insert(u, v)
            for action, u, v in chunks[index]:
                if action == "delete":
                    oracle.delete(u, v)
            for node_id, follower in followers.items():
                follower.wait_for(commit_index, timeout=30.0)
                assert follower.commit_index == commit_index, context
                assert_final_state(
                    follower.store, oracle,
                    f"{context} chunk={index} node={node_id}")
        assert all(manager.heartbeat().values()), context

        # ---- kill -9 mid-commit --------------------------------------- #
        proc.stdin.write("SPIN\n")
        proc.stdin.flush()
        assert proc.stdout.readline().strip() == "SPINNING", context
        time.sleep(0.25)  # let it pile up commits; the kill lands mid-stream
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10.0)

        # ---- lease expiry -> election --------------------------------- #
        deadline = time.monotonic() + 30.0
        while result is None and time.monotonic() < deadline:
            result = manager.maybe_failover(
                path=tmp_path / "promoted", rewire=False,
                listen=("127.0.0.1", 0))
            time.sleep(0.05)
        assert result is not None, f"{context}: election never fired"
        assert result.node_id == 1, context  # lowest live id wins
        assert manager.failovers == 1

        # ---- byte identity vs the dead primary's own timeline --------- #
        # The winner's position is an exact per-segment cut; rewinding a
        # copy of the murdered directory to it must reproduce the promoted
        # store edge-for-edge (the SIGKILL's torn tail lies beyond the cut).
        workdir = copy_dir(tmp_path / "primary", tmp_path / "pitr")
        rewound = recover(workdir,
                          store=ShardedCuckooGraph(num_shards=NUM_SHARDS),
                          upto=result.position)
        assert sorted(rewound.edges()) == sorted(result.store.edges()), \
            f"{context} upto={result.position}"
        rewound.close()

        # ---- the new primary serves; a rejoiner converges ------------- #
        result.store.insert_edge(500_000, 500_001)
        result.primary.sync_and_pump()
        rejoined = RemoteFollower(
            result.server.address,
            store=ShardedCuckooGraph(num_shards=NUM_SHARDS), node_id=3)
        assert sorted(rejoined.store.edges()) == \
            sorted(result.store.edges()), context
        rejoined.close()

        # ---- the dead primary is fenced on rejoin --------------------- #
        result.store.checkpoint()  # promoted timeline folded; segments empty
        promoted_state = sorted(result.store.edges())
        result.server.close()
        result.primary.close()
        result.store.close()
        smuggled = 0
        for segment in sorted((tmp_path / "primary").glob("wal-*.bin")):
            _, records, _ = read_wal_records(segment)
            if records:
                shutil.copy(segment, tmp_path / "promoted" / segment.name)
                smuggled += 1
        assert smuggled > 0, f"{context}: nothing to fence"
        fenced = recover(tmp_path / "promoted",
                         store=ShardedCuckooGraph(num_shards=NUM_SHARDS))
        assert sorted(fenced.edges()) == promoted_state, f"{context} fencing"
        assert fenced.last_recovery["wal_ops"] == 0, f"{context} fencing"
        fenced.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
        proc.stdin.close()  # the killed child never closes its end of the pipes
        proc.stdout.close()
        for follower in followers.values():
            if not follower.closed and not follower.promoted:
                follower.close()
        if result is not None and result.server is not None \
                and not result.server.closed:
            result.server.close()
