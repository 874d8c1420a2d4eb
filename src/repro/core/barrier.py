"""The rank-0 gather/release primitive of §4.1, one round per step.

:class:`CheckpointBarrier` knows nothing of engines or devices: ranks
report a step with :meth:`CheckpointBarrier.arrive` (non-blocking;
waiting is a separate, optional step on the returned
:class:`BarrierRound`), a round completes once every rank of the world
reported it, and a round whose deadline passes is marked *failed* under
the lock so every participant — including a straggler arriving late —
observes the same outcome and arrival count.  Rounds are
garbage-collected when they settle: memory is bounded by in-flight
rounds plus a fixed tombstone window.
:class:`~repro.core.distributed.DistributedCoordinator` builds the
pipelined round lifecycle (held slots, degraded mode) on top.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import DistributedError, DistributedTimeoutError
from repro.obs.metrics import M, MetricsRegistry
from repro.obs.trace import NULL_TRACER

#: Round outcome states (``RoundOutcome.status`` / tombstone records).
ROUND_PENDING = "pending"
ROUND_COMPLETED = "completed"
ROUND_FAILED = "failed"

#: How many settled (completed or failed) rounds the barrier remembers.
#: Bounds tombstone memory while still rejecting duplicate / straggler
#: arrivals for any recently settled step.
DEFAULT_ROUND_HISTORY = 64


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

