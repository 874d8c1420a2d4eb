"""Distributed checkpoint coordination (§3.1 and §4.1).

Each worker checkpoints its own model partition (pipeline stage or
FSDP shard) to its own device, so a recovery point is a training step
for which **every** worker holds a durable checkpoint.  The paper's
protocol: after its CAS a worker reports its step to rank 0; once rank
0 heard from all peers it releases them, ``peer_check`` advances, and
only then is the superseded slot recycled — so at any crash instant the
newest step *all* workers completed is still intact on every device.
A rank here is an ordinary stack plus two engine hooks, with threads
standing in for nodes:

* :class:`DistributedCoordinator` — the group's rounds, one per step,
  under one lock.  Its :meth:`~DistributedCoordinator.binding` gives a
  rank's engine a ``post_cas_hook`` (arrival) and a ``slot_custodian``
  (the step's round holds the superseded slot until it settles), so
  the committing thread never blocks on stragglers.
* :class:`DistributedRank` — the one handle that runs a rank: the stack
  :func:`repro.service.pool.build_stack` assembled with ``rank=`` that
  binding (so a rank is file-backed, striped, tiered and leak-reported
  like every other stack) plus the two verbs
  :class:`repro.Checkpointer` has.

The read side — :func:`~repro.core.recovery.recover_consistent`, the
newest step every rank holds — lives with the rest of the restore code
in :mod:`repro.core.recovery`.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.engine import CheckpointEngine
from repro.core.meta import CheckMeta
from repro.errors import (
    DegradedGroupError,
    DistributedError,
    DistributedTimeoutError,
)
from repro.obs.metrics import M, MetricsRegistry
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:  # the builder lives a layer up, in repro.service
    from repro.service.pool import EngineStack

#: Poll period of the coordinator's timeout watcher thread.
WATCHER_POLL_SECONDS = 0.02

#: Settled rounds remembered (tombstones) to reject duplicate and
#: straggler arrivals; memory is the open rounds plus this window.
ROUND_HISTORY = 64

#: ``RoundOutcome.status`` values.
ROUND_COMPLETED = "completed"
ROUND_FAILED = "failed"

#: A superseded slot held across a round: ``(engine, slot)``.
_Hold = Tuple[CheckpointEngine, int]


@dataclass(frozen=True)
class RoundOutcome:
    """The settled result of one coordination round."""

    step: int
    status: str  #: ``completed`` or ``failed``
    arrived: Tuple[int, ...]  #: ranks that reported, in arrival order
    missing: Tuple[int, ...]  #: ranks that never reported (failed rounds)
    duration: float  #: first arrival → settle, in seconds
    reason: str = ""  #: human-readable failure reason


@dataclass
class _Round:
    """One open round: who arrived, its deadline, the slots it holds."""

    step: int
    deadline: float  #: ``math.inf`` when the coordinator has no timeout
    span: object
    started: float = field(default_factory=time.monotonic)
    arrived: List[int] = field(default_factory=list)
    holds: List[_Hold] = field(default_factory=list)


class _RankBinding:
    """One rank's two engine hooks — :meth:`on_commit` is the engine's
    ``post_cas_hook``, the object itself its ``slot_custodian`` — which
    :func:`repro.service.pool.build_stack` installs on the engine it
    builds and binds to it."""

    def __init__(self, coordinator: "DistributedCoordinator", rank: int) -> None:
        self._coordinator = coordinator
        self._rank = rank
        self._engine: Optional[CheckpointEngine] = None

    def bind(self, engine: CheckpointEngine) -> None:
        self._engine = engine

    def on_commit(self, meta: CheckMeta) -> None:
        self._coordinator._on_commit(self._rank, meta)

    def take_superseded(self, meta: CheckMeta, slot: int) -> bool:
        assert self._engine is not None, "binding used before bind()"
        return self._coordinator._take_superseded(self._engine, meta, slot)


def _release(holds: List[_Hold]) -> None:
    """Recycle settled rounds' held slots — with the coordinator lock
    dropped, as ``release_held_slot`` takes the engine's own lock."""
    for engine, slot in holds:
        engine.release_held_slot(slot)


class DistributedCoordinator:
    """The group's §4.1 rounds, one per step, under one lock.

    A step's round completes once all ``world_size`` ranks reported it
    (:meth:`arrive`) and fails when its deadline — ``timeout`` seconds
    from the first arrival, kept by a watcher thread — passes first.  A
    completed round advances ``peer_check`` and recycles the superseded
    slots it held; a failed one *reclaims* them and degrades the group:
    new checkpoints raise :class:`~repro.errors.DegradedGroupError`
    until :meth:`reform`.
    """

    def __init__(
        self,
        world_size: int,
        timeout: Optional[float] = 30.0,
        *,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        if world_size < 1:
            raise DistributedError(f"world size must be >= 1, got {world_size}")
        self._world_size = world_size
        self._timeout = timeout
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # The one lock: guards every field below, wakes wait_round().
        self._cond = threading.Condition()
        self._rounds: Dict[int, _Round] = {}
        #: step -> settled outcome, oldest first, at most ROUND_HISTORY.
        self._settled: "OrderedDict[int, RoundOutcome]" = OrderedDict()
        self._peer_check = -1
        self._degraded_reason = ""
        self._failed_ranks: Set[int] = set()
        #: Ranks a shrinking reform() evicted, and how it re-formed.
        self._evicted_ranks: Set[int] = set()
        self._reform_note = ""
        self._closed = False
        self._watcher: Optional[threading.Thread] = None

    @property
    def world_size(self) -> int:
        """Number of participating workers."""
        with self._cond:
            return self._world_size

    @property
    def peer_check(self) -> int:
        """Latest globally consistent step (§4.1)."""
        with self._cond:
            return self._peer_check

    @property
    def degraded(self) -> bool:
        """True after a round failed; checkpointing is suspended."""
        with self._cond:
            return bool(self._degraded_reason)

    @property
    def failed_ranks(self) -> Tuple[int, ...]:
        """Ranks that missed a failed round since the last reform."""
        with self._cond:
            return tuple(sorted(self._failed_ranks))

    def check_active(self) -> None:
        """Raise :class:`~repro.errors.DegradedGroupError` if degraded."""
        with self._cond:
            if self._degraded_reason:
                raise DegradedGroupError(
                    "checkpointing suspended: " + self._degraded_reason
                    + "; call reform() once the group re-forms"
                )

    def round_outcome(self, step: int) -> Optional[RoundOutcome]:
        """The settled outcome for ``step`` if still remembered; ``None``
        while its round is open, before it opened, or once it left the
        :data:`ROUND_HISTORY` window."""
        with self._cond:
            return self._settled.get(step)

    def arrive(self, rank: int, step: int) -> Optional[RoundOutcome]:
        """Report ``step`` from ``rank`` without blocking; the first
        arrival opens the step's round.  Returns the outcome once the
        round is settled — completed by this arrival, or failed before a
        straggler got here — else ``None``.  Duplicate arrivals, ranks
        outside the world and arrivals after :meth:`close` raise
        :class:`~repro.errors.DistributedError`."""
        with self._cond:
            if self._closed:
                raise DistributedError(f"step {step} arrived after close()")
            holds = self._arrive_locked(rank, step)
            outcome = self._settled.get(step)
        _release(holds)
        return outcome

    def wait_round(
        self, step: int, timeout: Optional[float] = None, rank: int = -1
    ) -> RoundOutcome:
        """Block until the round for ``step`` settles; raise if it failed.

        A waiter may line up before any rank committed: it blocks until
        the first arrival opens the round (bounded by ``timeout``, else
        the round deadline).  Only the round's own deadline fails it: a
        shorter ``timeout`` raises
        :class:`~repro.errors.DistributedTimeoutError` to this caller
        alone (``rank`` labels it) and leaves the round open.
        """
        started = time.monotonic()
        with self._cond:
            while step not in self._settled:
                round_ = self._rounds.get(step)
                limit = timeout
                if limit is None and round_ is None:
                    limit = self._timeout
                remaining = None
                if limit is not None:
                    remaining = limit - (time.monotonic() - started)
                    if remaining <= 0:
                        raise DistributedTimeoutError(
                            f"no rank committed step {step} within "
                            f"{limit:g}s — no coordination round opened"
                            if round_ is None else
                            f"{f'rank {rank}' if rank >= 0 else 'a waiter'} "
                            f"stopped waiting for step {step} "
                            f"after {limit:g}s; the round is still open "
                            f"({len(round_.arrived)} of {self._world_size} "
                            f"arrived) until its own deadline"
                        )
                self._cond.wait(remaining)
            outcome = self._settled[step]
        if outcome.status == ROUND_COMPLETED:
            return outcome
        raise DistributedTimeoutError(
            f"barrier round failed at step {outcome.step}: only "
            f"{len(outcome.arrived)} of "
            f"{len(outcome.arrived) + len(outcome.missing)} workers arrived "
            f"(missing ranks {list(outcome.missing)})"
            + (f" — {outcome.reason}" if outcome.reason else "")
        )

    def reform(self, world_size: Optional[int] = None) -> None:
        """Re-form the group after a failure: fail every open round,
        resize the world if asked (elastic recovery then re-partitions
        via :func:`~repro.core.recovery.recover_consistent`) and clear
        the degraded flag, in one critical section.  A shrink records
        the evicted ranks, whose later arrivals raise an error naming
        the re-form; a grow re-admits them."""
        if world_size is not None and world_size < 1:
            raise DistributedError(f"world size must be >= 1, got {world_size}")
        with self._cond:
            reason = "group re-formed"
            if self._failed_ranks:
                reason += f" (failed ranks {sorted(self._failed_ranks)} evicted)"
            holds = self._fail_open_locked(reason)
            old = self._world_size
            if world_size is not None and world_size != old:
                self._world_size = world_size
                self._reform_note = (
                    f"the group re-formed from world size {old} to "
                    f"{world_size}"
                )
                self._evicted_ranks.update(range(world_size, old))
                self._evicted_ranks -= set(range(world_size))
            self._degraded_reason = ""
            self._failed_ranks.clear()
        _release(holds)

    def close(self) -> None:
        """Fail every open round (reason ``coordinator closed``), recycle
        the slots they held and stop the timeout watcher."""
        with self._cond:
            self._closed = True
            holds = self._fail_open_locked("coordinator closed")
            self._cond.notify_all()  # the watcher exits
        if self._watcher is not None:
            self._watcher.join(timeout=2.0)
        _release(holds)

    def __enter__(self) -> "DistributedCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def binding(self, rank: int) -> _RankBinding:
        """The hooks that make a stack rank ``rank`` of this group — pass
        them to :func:`repro.service.pool.build_stack` as ``rank=``."""
        return _RankBinding(self, rank)

    def _on_commit(self, rank: int, meta: CheckMeta) -> None:
        """Post-CAS hook.  A degraded or closed group drops the arrival
        (the round could never complete) and ``take_superseded`` then
        declines custody, so the slot recycles at once."""
        with self._cond:
            if self._degraded_reason or self._closed:
                return
            holds = self._arrive_locked(rank, meta.step)
        _release(holds)

    def _take_superseded(self, engine, meta: CheckMeta, slot: int) -> bool:
        """Slot-custodian hook: the step's open round holds the slot
        until it settles.  Under the one lock the round is either still
        open (it takes the hold, and its settle hands the hold back) or
        already settled (custody is declined; the engine recycles)."""
        with self._cond:
            round_ = self._rounds.get(meta.step)
            if round_ is None or self._degraded_reason or self._closed:
                return False
            round_.holds.append((engine, slot))
            return True

    def _arrive_locked(self, rank: int, step: int) -> List[_Hold]:
        if not 0 <= rank < self._world_size:
            evicted = ""
            if rank in self._evicted_ranks:
                evicted = (
                    f"; rank {rank} was evicted when {self._reform_note} "
                    f"(evicted ranks {sorted(self._evicted_ranks)})"
                )
            raise DistributedError(
                f"rank {rank} outside world of size {self._world_size}"
                f"{evicted} — arrival for step {step} rejected"
            )
        settled = self._settled.get(step)
        if settled is not None:
            if settled.status == ROUND_FAILED:
                return []  # a straggler: its peers declared the round dead
            raise DistributedError(
                f"rank {rank} reported step {step} twice (round completed)"
            )
        round_ = self._rounds.get(step) or self._open_locked(step)
        if rank in round_.arrived:
            raise DistributedError(f"rank {rank} reported step {step} twice")
        round_.arrived.append(rank)
        if len(round_.arrived) < self._world_size:
            return []
        return self._settle_locked(round_, ROUND_COMPLETED)

    def _open_locked(self, step: int) -> _Round:
        deadline = math.inf
        if self._timeout is not None:
            deadline = time.monotonic() + self._timeout
            if self._watcher is None:
                self._watcher = threading.Thread(
                    target=self._watch, name="pccheck-coordinator",
                    daemon=True,
                )
                self._watcher.start()
        round_ = _Round(step, deadline, self._tracer.begin(
            "barrier_round", step=step, world_size=self._world_size
        ))
        self._rounds[step] = round_
        self._metrics.set_gauge(M.BARRIER_ROUNDS_INFLIGHT, len(self._rounds))
        self._cond.notify_all()  # wake waiters lined up before the round
        return round_

    def _settle_locked(
        self, round_: _Round, status: str, reason: str = ""
    ) -> List[_Hold]:
        """Settle an open round: advance ``peer_check`` or degrade the
        group, record the tombstone, wake every waiter.  Returns the
        round's holds, to release once the lock is dropped."""
        arrived = tuple(round_.arrived)
        missing = tuple(r for r in range(self._world_size) if r not in arrived)
        duration = time.monotonic() - round_.started
        if status == ROUND_COMPLETED:
            self._peer_check = max(self._peer_check, round_.step)
            self._metrics.inc(M.BARRIER_ROUNDS_COMPLETED)
        else:
            self._degraded_reason = (
                f"coordination round for step {round_.step} failed "
                f"({reason or 'peer lost'}; missing ranks {list(missing)})"
            )
            self._failed_ranks.update(missing)
            self._metrics.inc(M.BARRIER_ROUNDS_FAILED)
        self._metrics.observe(M.BARRIER_ROUND_SECONDS, duration)
        del self._rounds[round_.step]
        self._metrics.set_gauge(M.BARRIER_ROUNDS_INFLIGHT, len(self._rounds))
        self._settled[round_.step] = RoundOutcome(
            round_.step, status, arrived, missing, duration, reason
        )
        while len(self._settled) > ROUND_HISTORY:
            self._settled.popitem(last=False)
        self._tracer.end(
            round_.span, status=status, arrived=len(arrived),
            missing=list(missing), reason=reason or None,
        )
        self._cond.notify_all()
        return round_.holds

    def _fail_open_locked(self, reason: str, due: float = math.inf
                          ) -> List[_Hold]:
        """Fail every open round whose deadline is at or before ``due``
        (all of them by default); returns their holds."""
        holds: List[_Hold] = []
        for round_ in [r for r in self._rounds.values() if r.deadline <= due]:
            holds += self._settle_locked(round_, ROUND_FAILED, reason)
        return holds

    def _watch(self) -> None:
        """The deadline watcher: fails every overdue round."""
        poll = min(WATCHER_POLL_SECONDS, self._timeout / 4)
        while True:
            with self._cond:
                if self._cond.wait_for(lambda: self._closed, poll):
                    return
                holds = self._fail_open_locked(
                    f"timed out after {self._timeout:g}s",
                    due=time.monotonic(),
                )
            _release(holds)


@dataclass
class DistributedRank:
    """One rank of the group: the stack ``build_stack(spec, device=…,
    rank=coordinator.binding(rank))`` assembled, driven with the two
    verbs :class:`repro.Checkpointer` has; neither verb's local work
    ever waits on a peer."""

    rank: int
    stack: "EngineStack"
    coordinator: DistributedCoordinator

    def checkpoint_async(self, source, step: int):
        """Start a concurrent checkpoint through the rank's pipeline and
        return its handle; never waits on a peer — follow up with
        :meth:`wait_consistent` for the global outcome.  Raises
        :class:`~repro.errors.DegradedGroupError` when the group is
        degraded."""
        self.coordinator.check_active()
        return self.stack.orchestrator.checkpoint_async(source, step)

    def checkpoint(self, payload, step: int):
        """Commit this rank's partition for ``step``, then wait for the
        group: on return either all peers committed ``step`` too, or the
        round failed (:class:`~repro.errors.DistributedTimeoutError`) and
        the superseded slot was *reclaimed*, not leaked.  A superseded
        checkpoint (no CAS win, no arrival) returns without waiting."""
        self.coordinator.check_active()
        result = self.stack.engine.checkpoint(payload, step=step)
        if result.committed:
            self.wait_consistent(step)
        return result

    def wait_consistent(
        self, step: int, timeout: Optional[float] = None
    ) -> RoundOutcome:
        """Block until ``step`` is globally consistent; raise if its
        round failed.  The time spent here is the rank's
        ``pccheck_barrier_wait_seconds``."""
        started = time.monotonic()
        try:
            return self.coordinator.wait_round(step, timeout, rank=self.rank)
        finally:
            self.stack.engine.metrics.observe(
                M.BARRIER_WAIT_SECONDS,
                time.monotonic() - started,
                rank=str(self.rank),
            )

    def wait_for_snapshots(self) -> float:
        """The T→U consistency stall of the rank's pipeline."""
        return self.stack.orchestrator.wait_for_snapshots()

    def drain(self, timeout: Optional[float] = None,
              return_exceptions: bool = False):
        """Wait for every outstanding local checkpoint to finish."""
        return self.stack.orchestrator.drain(
            timeout=timeout, return_exceptions=return_exceptions
        )

    def close(self) -> Dict[str, int]:
        """``stack.close()``: drain, stop the rank's threads, release
        its device; returns the stack's leak report."""
        return self.stack.close()

    def __enter__(self) -> "DistributedRank":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
