"""Failure injection against a live service: a replica kill, scripted.

The one failure kind, ``kill_replica``, breaks the seam the replication
stack already treats as a first-class failure mode and returns a recovery
callable that performs the matching repair.  It closes a follower's
replication channel (the moral equivalent of ``kill -9`` on the replica
process).  The primary evicts the dead channel mid-broadcast
(``Primary._broadcast`` never raises), and reads routed to the orphaned
follower fail fast with :class:`~repro.core.errors.ReplicationError` --
the error rate the SLO report measures.  Recovery detaches the corpse,
closes it and attaches a *fresh* follower in the same rotation slot
(attach = backfill + subscribe), which is exactly the documented
crash-recovery path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List

from ..core.errors import ReplicationError
from ..replicate import Follower
from .config import FailureSpec


@dataclass
class InjectedFailure:
    """What the injector actually did, as the SLO report records it."""

    at_s: float
    kind: str
    target: int
    injected: bool = False
    recovered: bool = False
    detail: str = ""

    def as_row(self) -> dict:
        return {
            "at_s": round(self.at_s, 3),
            "kind": self.kind,
            "target": self.target,
            "injected": self.injected,
            "recovered": self.recovered,
            "detail": self.detail,
        }


@dataclass
class _Injection:
    record: InjectedFailure
    recover: Callable[[], str] = field(default=lambda: "")


def _replica_slot(service, target: int):
    group = service.replication
    if group is None or not group.followers:
        raise ReplicationError("scenario has no replicas to break")
    index = target % len(group.followers)
    return group, index


def _kill_replica(service, spec: FailureSpec) -> _Injection:
    group, index = _replica_slot(service, spec.target)
    victim = group.followers[index]
    # The transport cut: the channel dies underneath the follower, exactly
    # like a crashed process.  The primary notices on its next broadcast.
    victim._channel.close()
    record = InjectedFailure(
        at_s=spec.at_s, kind=spec.kind, target=index, injected=True,
        detail=f"closed replication channel of follower {index}",
    )

    def recover() -> str:
        primary = group.primary
        primary.detach(victim)  # idempotent; broadcast may have evicted it
        victim.close()
        fresh = Follower(store=primary.store.store.spawn_empty(),
                         own_store=True)
        primary.attach(fresh)  # backfill + subscribe: converged on arrival
        group.followers[index] = fresh
        return (f"re-attached fresh follower in slot {index} at commit "
                f"{fresh.commit_index}")

    return _Injection(record=record, recover=recover)


def inject(service, spec: FailureSpec) -> _Injection:
    """Apply ``spec`` to the running service; never raises.

    On an injection error the returned record has ``injected=False`` and the
    exception text in ``detail`` -- a scenario keeps serving traffic even
    when a fault cannot be placed.
    """
    try:
        return _kill_replica(service, spec)
    except Exception as exc:
        record = InjectedFailure(
            at_s=spec.at_s, kind=spec.kind, target=spec.target,
            injected=False, detail=f"injection failed: {exc}",
        )
        return _Injection(record=record, recover=lambda: "nothing to recover")


def run_failure_timeline(service, specs, start_monotonic: float,
                         stop) -> List[InjectedFailure]:
    """Drive the failure schedule against the running service.

    Blocking helper meant for the injector thread: sleeps to each spec's
    ``at_s``, injects, holds the fault for ``duration_s``, then runs the
    recovery and stamps ``recovered``.  ``stop`` is an ``Event``; a set stop
    flag short-circuits remaining waits (recoveries still run, so a scenario
    never leaks a dead replica slot past its end).
    """
    records: List[InjectedFailure] = []
    for spec in sorted(specs, key=lambda item: item.at_s):
        delay = start_monotonic + spec.at_s - time.monotonic()
        if delay > 0 and not stop.wait(delay):
            pass  # reached injection time with the scenario still running
        injection = inject(service, spec)
        records.append(injection.record)
        if injection.record.injected:
            stop.wait(spec.duration_s)
            try:
                outcome = injection.recover()
                injection.record.recovered = True
                if outcome:
                    injection.record.detail += f"; recovered: {outcome}"
            except Exception as exc:
                injection.record.detail += f"; recovery failed: {exc}"
    return records
