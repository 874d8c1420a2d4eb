"""Distributed checkpoint coordination (§3.1 and §4.1).

In multi-node training each worker checkpoints its own model partition
(pipeline stage or FSDP shard) to its own persistent device, so PCcheck
must guarantee the *globally consistent* property: a recovery point is a
training step for which **every** worker holds a durable checkpoint.

The paper's protocol: after a worker's successful CAS, it sends its
checkpoint id to rank 0 and waits; once rank 0 hears from all peers it
releases them, each updates its local ``peer_check``, and only then is the
superseded slot recycled.  Holding the old slot across the barrier is the
load-bearing detail — it guarantees that at any crash instant the most
recent step *all* workers completed is still intact on every device.

This module implements the protocol with threads standing in for nodes,
in two layers:

* :class:`CheckpointBarrier` — the rank-0 gather/release primitive, one
  round per checkpoint step.  Arrival (:meth:`CheckpointBarrier.arrive`)
  is non-blocking; waiting is a separate, optional step.  Rounds are
  garbage-collected when they complete or fail (memory is bounded by
  in-flight rounds plus a fixed tombstone window), and a timed-out round
  is marked *failed* under the lock so every participant — including a
  straggler arriving late — observes the same outcome and arrival count.
* :class:`DistributedCoordinator` — the pipelined round lifecycle.  It
  plugs into each worker's engine through the ``post_cas_hook`` (arrival
  registration) and the ``slot_custodian`` (deferred recycling of the
  superseded slot), so the committing thread never blocks on stragglers;
  a watcher thread declares overdue rounds failed, reclaims the held
  slots on every engine, and transitions the group to *degraded* mode
  until :meth:`DistributedCoordinator.reform` re-forms the world.

On top of those, :class:`DistributedWorker` wraps one engine (blocking or
pipelined per call site) and :class:`DistributedOrchestrator` wires the
coordination into the capture/persist pipeline of
:class:`~repro.core.orchestrator.PCcheckOrchestrator`.  The read side —
:func:`~repro.core.recovery.recover_consistent`, the newest step every
rank holds — lives with the rest of the restore code in
:mod:`repro.core.recovery`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout
from repro.core.meta import CheckMeta
from repro.core.orchestrator import PCcheckOrchestrator
from repro.errors import (
    DegradedGroupError,
    DistributedError,
    DistributedTimeoutError,
)
from repro.obs.metrics import M, MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.storage.dram import DRAMBufferPool

#: Round outcome states (``RoundOutcome.status`` / tombstone records).
ROUND_PENDING = "pending"
ROUND_COMPLETED = "completed"
ROUND_FAILED = "failed"

#: How many settled (completed or failed) rounds the barrier remembers.
#: Bounds tombstone memory while still rejecting duplicate / straggler
#: arrivals for any recently settled step.
DEFAULT_ROUND_HISTORY = 64

#: Poll period of the coordinator's timeout watcher thread.
WATCHER_POLL_SECONDS = 0.02


@dataclass(frozen=True)
class RoundOutcome:
    """The settled result of one coordination round."""

    step: int
    status: str  #: ``completed`` or ``failed``
    arrived: Tuple[int, ...]  #: ranks that reported, in arrival order
    missing: Tuple[int, ...]  #: ranks that never reported (failed rounds)
    duration: float  #: first arrival → settle, in seconds
    reason: str = ""  #: human-readable failure reason


class _Round:
    """Mutable in-flight round state; settles exactly once."""

    __slots__ = (
        "step", "arrived", "status", "started", "deadline",
        "event", "outcome", "span",
    )

    def __init__(self, step: int, started: float,
                 deadline: Optional[float]) -> None:
        self.step = step
        self.arrived: List[int] = []
        self.status = ROUND_PENDING
        self.started = started
        self.deadline = deadline
        self.event = threading.Event()
        self.outcome: Optional[RoundOutcome] = None
        self.span = None


class BarrierRound:
    """A participant's handle on one coordination round.

    Returned by :meth:`CheckpointBarrier.arrive`; survives the barrier's
    round garbage collection, so late waiters still observe the settled
    outcome.
    """

    def __init__(self, barrier: "CheckpointBarrier", round_: _Round,
                 rank: int) -> None:
        self._barrier = barrier
        self._round = round_
        self.rank = rank

    @property
    def step(self) -> int:
        """The training step this round coordinates."""
        return self._round.step

    @property
    def settled(self) -> bool:
        """True once the round completed or failed."""
        return self._round.event.is_set()

    @property
    def outcome(self) -> Optional[RoundOutcome]:
        """The settled outcome, or ``None`` while pending."""
        return self._round.outcome

    def wait(self, timeout: Optional[float] = None) -> RoundOutcome:
        """Block until the round settles; raise if it failed.

        Without an explicit ``timeout`` the round's own deadline governs:
        when it passes, this waiter marks the round failed *under the
        barrier lock* so every participant observes one consistent
        arrival count, then raises
        :class:`~repro.errors.DistributedTimeoutError`.
        """
        return self._barrier._wait(self._round, self.rank, timeout)


class CheckpointBarrier:
    """Rank-0 style coordination: one release round per checkpoint step.

    Every worker reports ``step`` after its CAS via :meth:`arrive` (or
    the blocking :meth:`synchronize`); a round completes once all
    ``world_size`` workers reported the same step.  Workers may be
    several rounds apart when checkpoints are issued concurrently, so
    rounds are keyed by step and settle independently.

    Settled rounds are garbage-collected immediately: memory is bounded
    by in-flight rounds plus a fixed window of tombstones
    (``history``, default :data:`DEFAULT_ROUND_HISTORY`) kept to reject
    duplicate arrivals for completed steps and straggler arrivals for
    failed ones.
    """

    def __init__(
        self,
        world_size: int,
        timeout: Optional[float] = 30.0,
        *,
        history: int = DEFAULT_ROUND_HISTORY,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        if world_size < 1:
            raise DistributedError(f"world size must be >= 1, got {world_size}")
        if history < 1:
            raise DistributedError(f"round history must be >= 1, got {history}")
        self._world_size = world_size
        self._timeout = timeout
        self._history = history
        # A Condition (not a bare Lock) so wait_open() can block until a
        # round for a step exists — waiters may line up before any rank
        # has committed (the pipelined checkpoint_async → wait_consistent
        # flow).  Used as a plain mutex everywhere else.
        self._lock = threading.Condition()
        self._rounds: Dict[int, _Round] = {}
        #: step -> settled RoundOutcome, oldest first, bounded by history.
        self._settled: "OrderedDict[int, RoundOutcome]" = OrderedDict()
        #: Ranks a shrink evicted from the world (see :meth:`resize`);
        #: arrivals from them get a re-form-aware error message.
        self._evicted_ranks: Set[int] = set()
        #: Human-readable note about the last :meth:`resize`, woven into
        #: out-of-range arrival errors so a shrunk world explains itself.
        self._resize_note = ""
        self._listeners: List[Tuple[Callable, Callable]] = []
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        #: Latest step for which a full round completed (the paper's
        #: globally consistent ``peer_check`` value).
        self.peer_check: int = -1

    @property
    def world_size(self) -> int:
        """Number of participating workers."""
        return self._world_size

    @property
    def timeout(self) -> Optional[float]:
        """Round deadline in seconds from first arrival (None: no bound)."""
        return self._timeout

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry barrier telemetry reports into."""
        return self._metrics

    @property
    def in_flight_rounds(self) -> int:
        """Rounds currently pending — the barrier's only unbounded state."""
        with self._lock:
            return len(self._rounds)

    @property
    def settled_rounds(self) -> int:
        """Tombstones currently remembered (bounded by ``history``)."""
        with self._lock:
            return len(self._settled)

    def add_listener(
        self,
        on_complete: Callable[[RoundOutcome], None],
        on_fail: Callable[[RoundOutcome], None],
    ) -> None:
        """Register settle callbacks (invoked outside the barrier lock)."""
        with self._lock:
            self._listeners.append((on_complete, on_fail))

    # ------------------------------------------------------------------
    # arrival / waiting

    def arrive(self, rank: int, step: int) -> BarrierRound:
        """Report ``step`` from ``rank`` without blocking.

        Returns a :class:`BarrierRound` handle; the returned round may
        already be settled — a straggler arriving for a round its peers
        abandoned gets the *failed* outcome (and does not advance
        ``peer_check``) instead of resurrecting the round.  Duplicate
        arrivals for an in-flight or completed round raise
        :class:`~repro.errors.DistributedError`.
        """
        to_settle: Optional[_Round] = None
        with self._lock:
            # Bounds-checked under the lock so an arrival can never read
            # a half-updated world size while resize() runs.
            if not 0 <= rank < self._world_size:
                if rank in self._evicted_ranks:
                    raise DistributedError(
                        f"rank {rank} was evicted when {self._resize_note}; "
                        f"evicted ranks {sorted(self._evicted_ranks)} are no "
                        f"longer part of the world of size {self._world_size} "
                        f"— arrival for step {step} rejected"
                    )
                raise DistributedError(
                    f"rank {rank} outside world of size {self._world_size}"
                    + (f" (note: {self._resize_note})"
                       if self._resize_note else "")
                )
            settled = self._settled.get(step)
            if settled is not None:
                if settled.status == ROUND_FAILED:
                    # Straggler: peers already declared this round dead.
                    tomb = _Round(step, time.monotonic(), None)
                    tomb.status = ROUND_FAILED
                    tomb.outcome = settled
                    tomb.event.set()
                    return BarrierRound(self, tomb, rank)
                raise DistributedError(
                    f"rank {rank} reported step {step} twice "
                    f"(round already completed)"
                )
            round_ = self._rounds.get(step)
            if round_ is None:
                now = time.monotonic()
                deadline = (
                    now + self._timeout if self._timeout is not None else None
                )
                round_ = _Round(step, now, deadline)
                round_.span = self._tracer.begin(
                    "barrier_round", step=step, world_size=self._world_size
                )
                self._rounds[step] = round_
                self._metrics.set_gauge(
                    M.BARRIER_ROUNDS_INFLIGHT, len(self._rounds)
                )
                self._lock.notify_all()  # wake wait_open() waiters
            if rank in round_.arrived:
                raise DistributedError(
                    f"rank {rank} reported step {step} twice"
                )
            round_.arrived.append(rank)
            if len(round_.arrived) == self._world_size:
                to_settle = round_
                self._settle_locked(round_, ROUND_COMPLETED)
        if to_settle is not None:
            self._notify(to_settle.outcome)
        return BarrierRound(self, round_, rank)

    def synchronize(self, rank: int, step: int) -> None:
        """Report ``step`` from ``rank``; block until all peers reported it.

        The legacy blocking entry point: equivalent to
        ``arrive(rank, step).wait()``.
        """
        started = time.monotonic()
        handle = self.arrive(rank, step)
        try:
            handle.wait()
        finally:
            self._metrics.observe(
                M.BARRIER_WAIT_SECONDS,
                time.monotonic() - started,
                rank=str(rank),
            )

    def fail_round(self, step: int, reason: str) -> Optional[RoundOutcome]:
        """Declare the round for ``step`` failed (if still pending).

        Returns the settled outcome, or ``None`` when no such round is
        in flight.  Used by the coordinator's watcher and by
        :meth:`DistributedCoordinator.reform`.
        """
        with self._lock:
            round_ = self._rounds.get(step)
            if round_ is None or round_.status != ROUND_PENDING:
                return None
            self._settle_locked(round_, ROUND_FAILED, reason=reason)
        self._notify(round_.outcome)
        return round_.outcome

    def fail_all_pending(self, reason: str) -> List[RoundOutcome]:
        """Declare every in-flight round failed, atomically.

        All pending rounds settle under one lock acquisition, so no
        concurrent :meth:`arrive` or waiter can observe some rounds
        failed and others still pending across a group re-form.
        Returns the settled outcomes (listeners are notified outside
        the lock, as always).
        """
        settled: List[_Round] = []
        with self._lock:
            for round_ in list(self._rounds.values()):
                if round_.status == ROUND_PENDING:
                    self._settle_locked(round_, ROUND_FAILED, reason=reason)
                    settled.append(round_)
        outcomes = [round_.outcome for round_ in settled]
        for outcome in outcomes:
            self._notify(outcome)
        return outcomes

    def resize(self, world_size: int, reason: str = "the world was resized"
               ) -> List[RoundOutcome]:
        """Change the world size; fails every in-flight round first.

        The settle-and-resize happens under one lock acquisition: a
        concurrent :meth:`arrive` either runs before (old world, old
        rounds) or after (new world, no rounds) — never against a
        half-updated world.  A round opened for the old world cannot
        complete against the new count, so pending rounds are failed
        with ``reason`` rather than left to mis-count.

        Shrinking records the evicted ranks (``world_size <= rank <
        old``): their later arrivals raise a
        :class:`~repro.errors.DistributedError` that names the re-form
        instead of a bare bounds error.  Growing re-admits previously
        evicted ranks that are back inside the world.
        """
        if world_size < 1:
            raise DistributedError(
                f"world size must be >= 1, got {world_size}"
            )
        settled: List[_Round] = []
        with self._lock:
            for round_ in list(self._rounds.values()):
                if round_.status == ROUND_PENDING:
                    self._settle_locked(round_, ROUND_FAILED, reason=reason)
                    settled.append(round_)
            old = self._world_size
            self._world_size = world_size
            if world_size != old:
                self._resize_note = (
                    f"the group re-formed from world size {old} to "
                    f"{world_size}"
                )
            if world_size < old:
                self._evicted_ranks.update(range(world_size, old))
            self._evicted_ranks -= set(range(world_size))
        outcomes = [round_.outcome for round_ in settled]
        for outcome in outcomes:
            self._notify(outcome)
        return outcomes

    @property
    def evicted_ranks(self) -> Tuple[int, ...]:
        """Ranks removed from the world by a shrinking :meth:`resize`."""
        with self._lock:
            return tuple(sorted(self._evicted_ranks))

    def is_pending(self, step: int) -> bool:
        """True while a round for ``step`` is open and unsettled."""
        with self._lock:
            return step in self._rounds

    def participant(self, step: int, rank: int = -1
                    ) -> Optional[BarrierRound]:
        """A waitable handle on the in-flight round for ``step``.

        Returns ``None`` when no round for ``step`` is currently open
        (check :meth:`round_outcome` for a settled one).  ``rank`` only
        labels the failure reason if this participant's deadline is the
        one that fails the round.
        """
        with self._lock:
            round_ = self._rounds.get(step)
        if round_ is None:
            return None
        return BarrierRound(self, round_, rank)

    def expire_overdue(self) -> List[RoundOutcome]:
        """Fail every pending round whose deadline has passed."""
        now = time.monotonic()
        expired: List[_Round] = []
        with self._lock:
            for round_ in list(self._rounds.values()):
                if round_.deadline is not None and now >= round_.deadline:
                    self._settle_locked(
                        round_, ROUND_FAILED,
                        reason=f"timed out after {self._timeout:g}s",
                    )
                    expired.append(round_)
        outcomes = []
        for round_ in expired:
            self._notify(round_.outcome)
            outcomes.append(round_.outcome)
        return outcomes

    def round_outcome(self, step: int) -> Optional[RoundOutcome]:
        """The settled outcome for ``step`` if still remembered."""
        with self._lock:
            round_ = self._rounds.get(step)
            if round_ is not None:
                return round_.outcome
            return self._settled.get(step)

    def wait_open(self, step: int, timeout: Optional[float] = None) -> bool:
        """Block until a round for ``step`` is known (open or settled).

        The pipelined flow issues ``checkpoint_async(step)`` and then
        waits on the step before any rank's commit has opened the round;
        this lets that waiter line up instead of racing the first
        arrival.  Returns ``False`` if no round appeared in time.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._lock:
            while step not in self._rounds and step not in self._settled:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                # Condition.wait releases the lock while blocked.
                self._lock.wait(remaining)
            return True

    # ------------------------------------------------------------------
    # internals

    def _settle_locked(
        self, round_: _Round, status: str, reason: str = ""
    ) -> None:
        """Transition a pending round to its final state.  Caller holds
        the lock; listener notification happens outside it."""
        assert round_.status == ROUND_PENDING
        round_.status = status
        arrived = tuple(round_.arrived)
        missing = tuple(
            rank for rank in range(self._world_size) if rank not in arrived
        )
        duration = time.monotonic() - round_.started
        round_.outcome = RoundOutcome(
            step=round_.step,
            status=status,
            arrived=arrived,
            missing=missing,
            duration=duration,
            reason=reason,
        )
        if status == ROUND_COMPLETED:
            self.peer_check = max(self.peer_check, round_.step)
            self._metrics.inc(M.BARRIER_ROUNDS_COMPLETED)
        else:
            self._metrics.inc(M.BARRIER_ROUNDS_FAILED)
        self._metrics.observe(M.BARRIER_ROUND_SECONDS, duration)
        # GC: drop the round, remember a bounded tombstone.
        del self._rounds[round_.step]
        self._metrics.set_gauge(M.BARRIER_ROUNDS_INFLIGHT, len(self._rounds))
        self._settled[round_.step] = round_.outcome
        while len(self._settled) > self._history:
            self._settled.popitem(last=False)
        if round_.span is not None:
            self._tracer.end(
                round_.span, status=status, arrived=len(arrived),
                missing=list(missing), reason=reason or None,
            )
            round_.span = None
        round_.event.set()

    def _notify(self, outcome: RoundOutcome) -> None:
        with self._lock:
            listeners = list(self._listeners)
        for on_complete, on_fail in listeners:
            callback = (
                on_complete if outcome.status == ROUND_COMPLETED else on_fail
            )
            callback(outcome)

    def _wait(
        self, round_: _Round, rank: int, timeout: Optional[float]
    ) -> RoundOutcome:
        """Block on a round until it settles; raise on failure."""
        deadline = round_.deadline
        if timeout is not None:
            deadline = time.monotonic() + timeout
        while True:
            if deadline is None:
                round_.event.wait()
            else:
                remaining = deadline - time.monotonic()
                if not round_.event.wait(max(remaining, 0.0)):
                    # Our deadline passed.  Settle the round as failed
                    # under the lock — unless it settled concurrently.
                    with self._lock:
                        if round_.status == ROUND_PENDING:
                            self._settle_locked(
                                round_, ROUND_FAILED,
                                reason=(
                                    f"rank {rank} timed out waiting for "
                                    f"peers" if rank >= 0 else
                                    "deadline passed before all peers "
                                    "arrived"
                                ),
                            )
                            settled_here = True
                        else:
                            settled_here = False
                    if settled_here:
                        self._notify(round_.outcome)
            outcome = round_.outcome
            if outcome is None:
                continue
            if outcome.status == ROUND_COMPLETED:
                return outcome
            raise DistributedTimeoutError(
                f"barrier round failed at step {outcome.step}: only "
                f"{len(outcome.arrived)} of {self._world_size} workers "
                f"arrived (missing ranks {list(outcome.missing)})"
                + (f" — {outcome.reason}" if outcome.reason else "")
            )


# ----------------------------------------------------------------------
# the pipelined coordinator


class _RankCustodian:
    """Per-engine adapter for the engine's ``slot_custodian`` protocol."""

    def __init__(self, coordinator: "DistributedCoordinator", rank: int) -> None:
        self._coordinator = coordinator
        self._rank = rank
        self._engine: Optional[CheckpointEngine] = None

    def bind(self, engine: CheckpointEngine) -> None:
        self._engine = engine

    def take_superseded(self, meta: CheckMeta, slot: int) -> bool:
        assert self._engine is not None, "custodian used before bind()"
        return self._coordinator._take_superseded(
            self._rank, self._engine, meta, slot
        )


class DistributedCoordinator:
    """Group-wide coordination state: rounds, held slots, failure mode.

    One coordinator is shared by all workers of a group.  It moves the
    §4.1 round off the committing thread:

    * ``post_cas_hook`` → :meth:`_on_commit` registers the rank's arrival
      (non-blocking);
    * ``slot_custodian`` → :meth:`_take_superseded` defers recycling of
      the superseded slot until the round settles;
    * a watcher thread declares overdue rounds failed; round completion
      releases every held slot, round failure *reclaims* them (the group
      has agreed the step can never become globally consistent) and
      flips the group to degraded mode — new checkpoints raise
      :class:`~repro.errors.DegradedGroupError` until :meth:`reform`.
    """

    def __init__(
        self,
        world_size: Optional[int] = None,
        timeout: Optional[float] = 30.0,
        *,
        barrier: Optional[CheckpointBarrier] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        if barrier is None:
            if world_size is None:
                raise DistributedError(
                    "need a world size or an existing barrier"
                )
            barrier = CheckpointBarrier(
                world_size, timeout=timeout, metrics=metrics, tracer=tracer
            )
        self._barrier = barrier
        self._metrics = barrier.metrics if metrics is None else metrics
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._lock = threading.RLock()
        #: step -> [(rank, engine, slot)] held across that step's round.
        self._holds: Dict[int, List[Tuple[int, CheckpointEngine, int]]] = {}
        self._degraded = False
        self._degraded_reason = ""
        self._failed_ranks: Set[int] = set()
        self._watcher: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closed = False
        barrier.add_listener(self._on_round_complete, self._on_round_failed)

    # ------------------------------------------------------------------
    # group state

    @property
    def barrier(self) -> CheckpointBarrier:
        """The underlying gather/release primitive."""
        return self._barrier

    @property
    def world_size(self) -> int:
        """Number of participating workers."""
        return self._barrier.world_size

    @property
    def peer_check(self) -> int:
        """Latest globally consistent step (§4.1)."""
        return self._barrier.peer_check

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry coordination telemetry reports into."""
        return self._metrics

    @property
    def degraded(self) -> bool:
        """True after a round failed; checkpointing is suspended."""
        with self._lock:
            return self._degraded

    @property
    def degraded_reason(self) -> str:
        """Why the group degraded (empty while healthy)."""
        with self._lock:
            return self._degraded_reason

    @property
    def failed_ranks(self) -> Tuple[int, ...]:
        """Ranks that missed a failed round since the last reform."""
        with self._lock:
            return tuple(sorted(self._failed_ranks))

    def check_active(self) -> None:
        """Raise :class:`~repro.errors.DegradedGroupError` if degraded."""
        with self._lock:
            if self._degraded:
                raise DegradedGroupError(
                    "checkpointing suspended: " + self._degraded_reason
                    + "; call reform() once the group re-forms"
                )

    def reform(self, world_size: Optional[int] = None) -> None:
        """Re-form the group after a failure: fail any in-flight rounds,
        reclaim their held slots, clear the degraded flag, and optionally
        resize the world (e.g. a replacement node joined, spot preemption
        shrank the fleet, or scale-up grew it — elastic recovery then
        re-partitions the checkpoint via
        :func:`~repro.core.recovery.recover_consistent` with ``world_size``).

        Uses only the barrier's public, internally locked APIs
        (:meth:`CheckpointBarrier.fail_all_pending`,
        :meth:`CheckpointBarrier.resize`), so the re-form can never race
        a concurrent arrival or waiter reading a half-updated world.
        """
        with self._lock:
            failed = tuple(sorted(self._failed_ranks))
        reason = "group re-formed"
        if failed:
            reason += f" (failed ranks {list(failed)} evicted)"
        if world_size is not None:
            # resize() fails every pending round under the same lock
            # acquisition that installs the new world size.
            self._barrier.resize(world_size, reason=reason)
        else:
            self._barrier.fail_all_pending(reason)
        with self._lock:
            self._degraded = False
            self._degraded_reason = ""
            self._failed_ranks.clear()

    def wait_round(
        self, step: int, timeout: Optional[float] = None, rank: int = -1
    ) -> RoundOutcome:
        """Block until the round for ``step`` settles; raise on failure.

        The round need not exist yet — a waiter lining up right after
        ``checkpoint_async(step)``, before any rank committed, blocks
        until the first arrival opens it (bounded by ``timeout``, else
        the barrier's round deadline).  For steps whose round already
        settled and was garbage-collected, the tombstoned outcome is
        consulted instead.  ``rank`` only labels the failure reason when
        this waiter's deadline is the one that fails the round.
        """
        outcome = self._barrier.round_outcome(step)
        if outcome is None:
            started = time.monotonic()
            open_timeout = (
                timeout if timeout is not None else self._barrier.timeout
            )
            if not self._barrier.wait_open(step, open_timeout):
                raise DistributedTimeoutError(
                    f"no rank committed step {step} within "
                    f"{open_timeout:g}s — no coordination round opened"
                )
            remaining = timeout
            if remaining is not None:
                remaining = max(0.0, remaining - (time.monotonic() - started))
            outcome = self._barrier.round_outcome(step)
            if outcome is None:
                handle = self._barrier.participant(step, rank=rank)
                if handle is None:
                    raise DistributedError(
                        f"no coordination round is known for step {step}"
                    )
                return handle.wait(remaining)
        if outcome.status == ROUND_COMPLETED:
            return outcome
        raise DistributedTimeoutError(
            f"barrier round failed at step {outcome.step}: only "
            f"{len(outcome.arrived)} of {self.world_size} workers arrived "
            f"(missing ranks {list(outcome.missing)})"
            + (f" — {outcome.reason}" if outcome.reason else "")
        )

    def close(self) -> None:
        """Stop the timeout watcher (held slots stay reclaimable)."""
        self._closed = True
        self._stop.set()
        watcher = self._watcher
        if watcher is not None:
            watcher.join(timeout=2.0)

    def __enter__(self) -> "DistributedCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # engine wiring

    def bind_engine(
        self,
        rank: int,
        layout: DeviceLayout,
        writer_threads: int = 3,
        recovered: Optional[CheckMeta] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> CheckpointEngine:
        """Build a rank's engine wired into this coordinator."""
        custodian = _RankCustodian(self, rank)
        engine = CheckpointEngine(
            layout,
            writer_threads=writer_threads,
            recovered=recovered,
            post_cas_hook=lambda meta, _rank=rank: self._on_commit(_rank, meta),
            slot_custodian=custodian,
            metrics=metrics,
            tracer=tracer,
        )
        custodian.bind(engine)
        return engine

    def _on_commit(self, rank: int, meta: CheckMeta) -> None:
        """Post-CAS hook: register arrival without blocking.

        In degraded mode the arrival is dropped — the round could never
        complete — and the subsequent ``take_superseded`` declines
        custody so the slot recycles immediately.
        """
        with self._lock:
            if self._degraded or self._closed:
                return
        self._ensure_watcher()
        self._barrier.arrive(rank, meta.step)

    def _take_superseded(
        self, rank: int, engine: CheckpointEngine, meta: CheckMeta, slot: int
    ) -> bool:
        """Slot-custodian hook: defer recycling until the round settles.

        Serialized against round settlement through the coordinator
        lock: either the hold is registered before the settle handler
        runs (which then releases it), or the round is observed settled
        and custody is declined (the engine recycles immediately).
        """
        step = meta.step
        with self._lock:
            if self._degraded or self._closed:
                return False
            outcome = self._barrier.round_outcome(step)
            if outcome is not None:
                # Round already settled (completed just now, or a failed
                # tombstone): nothing to hold across.
                return False
            # Nested acquisition is deliberate and safe: the lock order
            # is always coordinator -> barrier (settle handlers run
            # outside the barrier lock), and checking pending-ness while
            # still holding our lock is what guarantees the settle
            # handler cannot pop the holds list before we append.
            if not self._barrier.is_pending(step):
                return False
            self._holds.setdefault(step, []).append((rank, engine, slot))
            return True

    # ------------------------------------------------------------------
    # round settlement

    def _on_round_complete(self, outcome: RoundOutcome) -> None:
        with self._lock:
            holds = self._holds.pop(outcome.step, [])
        for _rank, engine, slot in holds:
            engine.release_held_slot(slot)

    def _on_round_failed(self, outcome: RoundOutcome) -> None:
        with self._lock:
            holds = self._holds.pop(outcome.step, [])
            self._degraded = True
            self._degraded_reason = (
                f"coordination round for step {outcome.step} failed "
                f"({outcome.reason or 'peer lost'}; missing ranks "
                f"{list(outcome.missing)})"
            )
            self._failed_ranks.update(outcome.missing)
        # The group has agreed step `outcome.step` can never become
        # globally consistent: reclaim, don't leak.  The payloads stay
        # durable until a post-reform checkpoint overwrites the slots.
        for _rank, engine, slot in holds:
            engine.release_held_slot(slot)

    # ------------------------------------------------------------------
    # timeout watcher

    def _ensure_watcher(self) -> None:
        if self._barrier.timeout is None:
            return  # no deadline: blocking waiters are the only clock
        with self._lock:
            if self._watcher is not None or self._closed:
                return
            self._watcher = threading.Thread(
                target=self._watch, name="pccheck-coordinator", daemon=True
            )
            self._watcher.start()

    def _watch(self) -> None:
        timeout = self._barrier.timeout
        poll = min(WATCHER_POLL_SECONDS, timeout / 4 if timeout else 1.0)
        while not self._stop.wait(poll):
            self._barrier.expire_overdue()


@dataclass
class DistributedWorker:
    """One worker's engine bound to the group coordinator."""

    rank: int
    engine: CheckpointEngine
    coordinator: DistributedCoordinator
    #: When True, :meth:`checkpoint` returns as soon as the local commit
    #: is durable; the coordination round settles in the background and
    #: slot recycling is deferred until it does (§4.1, pipelined).
    pipelined: bool = False

    @classmethod
    def create(
        cls,
        rank: int,
        layout: DeviceLayout,
        coordinator: DistributedCoordinator,
        writer_threads: int = 3,
        recovered: Optional[CheckMeta] = None,
        pipelined: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> "DistributedWorker":
        """Build a worker whose engine coordinates after every CAS."""
        engine = coordinator.bind_engine(
            rank,
            layout,
            writer_threads=writer_threads,
            recovered=recovered,
            metrics=metrics,
            tracer=tracer,
        )
        return cls(
            rank=rank,
            engine=engine,
            coordinator=coordinator,
            pipelined=pipelined,
        )

    def checkpoint(self, payload, step: int):
        """Checkpoint this worker's partition for ``step``.

        Blocking mode (default): on return either all peers committed
        ``step`` too, or the round failed
        (:class:`~repro.errors.DistributedTimeoutError`) — and in the
        failure case the superseded slot was *reclaimed*, not leaked,
        because the group agreed the step is dead.

        Pipelined mode: returns as soon as the local commit is durable;
        use :meth:`wait_consistent` (or watch
        ``coordinator.peer_check``) for the global outcome.
        """
        self.coordinator.check_active()
        started = time.monotonic()
        result = self.engine.checkpoint(payload, step=step)
        if self.pipelined or not result.committed:
            # Superseded checkpoints never coordinated (no CAS win, no
            # arrival), and pipelined callers don't wait here.
            return result
        try:
            self.coordinator.wait_round(step, rank=self.rank)
        finally:
            self.engine.metrics.observe(
                M.BARRIER_WAIT_SECONDS,
                time.monotonic() - started,
                rank=str(self.rank),
            )
        return result

    def wait_consistent(
        self, step: int, timeout: Optional[float] = None
    ) -> RoundOutcome:
        """Block until ``step``'s round settles; raise if it failed."""
        return self.coordinator.wait_round(step, timeout, rank=self.rank)


class DistributedOrchestrator:
    """A rank's capture/persist pipeline participating in the group round.

    Wraps a :class:`~repro.core.orchestrator.PCcheckOrchestrator` whose
    engine is wired into the group's :class:`DistributedCoordinator`:
    the persist stage's commit registers the arrival and hands the
    superseded slot to the coordinator without blocking, so neither the
    training thread (``checkpoint_async`` returns immediately) nor the
    persist worker ever waits on a straggling peer.
    """

    def __init__(self, rank: int, orchestrator, coordinator) -> None:
        if not isinstance(orchestrator, PCcheckOrchestrator):
            raise DistributedError(
                "DistributedOrchestrator wraps a PCcheckOrchestrator"
            )
        self.rank = rank
        self._orchestrator = orchestrator
        self.coordinator = coordinator

    @classmethod
    def create(
        cls,
        rank: int,
        layout: DeviceLayout,
        coordinator: DistributedCoordinator,
        *,
        num_chunks: int = 4,
        chunk_size: int = 1 << 20,
        writer_threads: int = 3,
        recovered: Optional[CheckMeta] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> "DistributedOrchestrator":
        """Build a rank's orchestrator wired into the group coordinator."""
        engine = coordinator.bind_engine(
            rank,
            layout,
            writer_threads=writer_threads,
            recovered=recovered,
            metrics=metrics,
            tracer=tracer,
        )
        pool = DRAMBufferPool(num_chunks=num_chunks, chunk_size=chunk_size)
        return cls(rank, PCcheckOrchestrator(engine, pool), coordinator)

    @property
    def orchestrator(self):
        """The wrapped rank-local pipeline."""
        return self._orchestrator

    @property
    def engine(self) -> CheckpointEngine:
        """The rank's coordinated engine."""
        return self._orchestrator.engine

    def checkpoint_async(self, source, step: int):
        """Start a concurrent checkpoint; never blocks on the barrier.

        Raises :class:`~repro.errors.DegradedGroupError` when the group
        is degraded (checkpointing suspended).
        """
        self.coordinator.check_active()
        return self._orchestrator.checkpoint_async(source, step)

    def wait_consistent(
        self, step: int, timeout: Optional[float] = None
    ) -> RoundOutcome:
        """Block until ``step`` is globally consistent; raise on failure."""
        return self.coordinator.wait_round(step, timeout, rank=self.rank)

    def wait_for_snapshots(self) -> float:
        """Delegate the T→U consistency stall to the wrapped pipeline."""
        return self._orchestrator.wait_for_snapshots()

    def drain(self, timeout: Optional[float] = None,
              return_exceptions: bool = False):
        """Wait for every outstanding local checkpoint to finish."""
        return self._orchestrator.drain(
            timeout=timeout, return_exceptions=return_exceptions
        )

    def close(self) -> None:
        """Drain and shut the rank-local pipeline down."""
        self._orchestrator.close()

    def __enter__(self) -> "DistributedOrchestrator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
