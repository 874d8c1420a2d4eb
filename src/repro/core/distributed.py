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

That is the ordinary single-node commit plus one round after the CAS, so
a rank here is an ordinary stack plus two engine hooks, with threads
standing in for nodes:

* :class:`DistributedCoordinator` — the pipelined round lifecycle over
  the rank-0 gather/release primitive
  (:class:`~repro.core.barrier.CheckpointBarrier`).  It hands each rank
  a binding (:meth:`DistributedCoordinator.binding`) —
  the engine's ``post_cas_hook`` (arrival registration) and
  ``slot_custodian`` (deferred recycling of the superseded slot) — so
  the committing thread never blocks on stragglers; a watcher thread
  declares overdue rounds failed, reclaims the held slots on every
  engine, and transitions the group to *degraded* mode until
  :meth:`DistributedCoordinator.reform` re-forms the world.
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

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.barrier import (
    ROUND_COMPLETED,
    CheckpointBarrier,
    RoundOutcome,
)
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


class _RankBinding:
    """One rank's two engine hooks: :meth:`on_commit` is the engine's
    ``post_cas_hook``, the object itself its ``slot_custodian``.
    :func:`repro.service.pool.build_stack` installs both on the engine
    it builds and tells the binding which engine that is."""

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

    def binding(self, rank: int) -> _RankBinding:
        """The hooks that make a stack rank ``rank`` of this group — pass
        them to :func:`repro.service.pool.build_stack` as ``rank=``."""
        return _RankBinding(self, rank)

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
class DistributedRank:
    """One rank of the group: the stack ``build_stack(spec, device=…,
    rank=coordinator.binding(rank))`` assembled, driven with the two
    verbs :class:`repro.Checkpointer` has.  The commit registers the
    arrival and hands the superseded slot to the coordinator without
    blocking, so neither verb's local work ever waits on a peer."""

    rank: int
    stack: "EngineStack"
    coordinator: DistributedCoordinator

    def checkpoint_async(self, source, step: int):
        """Start a concurrent checkpoint through the rank's pipeline and
        return its handle; never waits on a peer — follow up with
        :meth:`wait_consistent` (or watch ``coordinator.peer_check``)
        for the global outcome.

        Raises :class:`~repro.errors.DegradedGroupError` when the group
        is degraded (checkpointing suspended).
        """
        self.coordinator.check_active()
        return self.stack.orchestrator.checkpoint_async(source, step)

    def checkpoint(self, payload, step: int):
        """Commit this rank's partition for ``step``, then wait for the
        group: on return either all peers committed ``step`` too, or the
        round failed (:class:`~repro.errors.DistributedTimeoutError`) —
        and in the failure case the superseded slot was *reclaimed*, not
        leaked, because the group agreed the step is dead.  A superseded
        checkpoint never coordinated (no CAS win, no arrival) and
        returns without waiting."""
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
