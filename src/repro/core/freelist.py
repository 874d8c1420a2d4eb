"""Bounded FIFO queue of free checkpoint slots.

The paper stores the addresses of reusable checkpoint slots in a lock-free
FIFO queue based on Morrison and Afek's fast concurrent queue (PPoPP'13).
That design is a circular ring indexed by two fetch-and-add "tickets" (head
and tail); each cell carries the ticket round so that slow enqueuers and
dequeuers from previous rounds cannot collide with current ones.

This module reproduces the ticket-ring structure faithfully: ``enqueue``
claims a tail ticket with fetch-and-add and publishes into cell
``ticket % capacity``; ``dequeue`` claims a head ticket and consumes the
matching cell.  Cell hand-off uses a per-cell turn counter, exactly as in
array-based lock-free ring buffers.  The atomic ticket counters come from
:mod:`repro.core.atomics`, which emulates fetch-and-add under the GIL, so
the queue's *semantics* (FIFO order, no lost or duplicated elements, no
blocking between producers and consumers that have both claimed valid
tickets) match the paper's queue.

Capacity equals the number of checkpoint slots (N+1 in the paper), so the
queue can never actually overflow: at most N+1 slot indices exist and the
slot pointed to by ``CHECK_ADDR`` is, by invariant, never enqueued.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from repro.core.atomics import AtomicCounter
from repro.errors import EngineError

#: Sentinel returned by :meth:`SlotQueue.dequeue` when the queue is empty,
#: mirroring the ``EMPTY`` constant in Listing 1.
EMPTY: int = -1

#: First pause between empty-queue probes in :meth:`SlotQueue.dequeue_blocking`.
#: Small enough that an uncontended engine sees negligible extra latency.
SPIN_BACKOFF_INITIAL_SECONDS: float = 1e-4

#: Ceiling for the exponential backoff: a fully occupied queue is polled at
#: least this often, bounding the worst-case wake-up delay after a slot frees.
SPIN_BACKOFF_MAX_SECONDS: float = 2e-3

#: Growth factor applied to the pause after each empty probe.
SPIN_BACKOFF_MULTIPLIER: float = 2.0


class _Cell:
    """One ring cell: a turn counter, the stored slot index, and how many
    enqueuers wait for it to empty (nobody waits for one to fill)."""

    __slots__ = ("turn", "value", "lock", "nonfull", "waiting")

    def __init__(self, turn: int) -> None:
        self.turn = turn
        self.value: Optional[int] = None
        self.lock = threading.Lock()
        self.nonfull = threading.Condition(self.lock)
        self.waiting = 0


class SlotQueue:
    """Bounded multi-producer / multi-consumer FIFO of slot indices.

    The queue follows the ticket-ring construction used by Morrison–Afek
    style queues: tickets are issued by atomic fetch-and-add, and cell
    ``t % capacity`` is used on round ``t // capacity``.  A cell's ``turn``
    field is ``2 * round`` when the cell is empty and awaiting the round's
    enqueuer, and ``2 * round + 1`` when it is full and awaiting the round's
    dequeuer.

    ``dequeue`` is non-blocking and returns :data:`EMPTY` when no element
    is ready, matching Listing 1's busy-wait loop::

        while True:
            slot = queue.dequeue()
            if slot != EMPTY:
                break
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise EngineError(f"queue capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._cells: List[_Cell] = [_Cell(turn=2 * 0) for _ in range(capacity)]
        for index, cell in enumerate(self._cells):
            # Cell i is first used by ticket i (round 0): empty state.
            del index, cell
        self._head = AtomicCounter(0)
        self._tail = AtomicCounter(0)

    @property
    def capacity(self) -> int:
        """Maximum number of elements the ring can hold."""
        return self._capacity

    def __len__(self) -> int:
        """Approximate number of stored elements (racy under concurrency)."""
        return max(0, self._tail.load() - self._head.load())

    def enqueue(self, value: int) -> None:
        """Append ``value``; blocks only if a same-cell dequeue from a
        previous round has not finished (impossible when capacity bounds
        the number of live elements, as it does for checkpoint slots)."""
        if value < 0:
            raise EngineError(f"slot indices must be non-negative, got {value}")
        ticket = self._tail.fetch_add(1)
        cell = self._cells[ticket % self._capacity]
        rounds = ticket // self._capacity
        want_turn = 2 * rounds
        with cell.lock:
            while cell.turn != want_turn:
                cell.waiting += 1
                cell.nonfull.wait()
                cell.waiting -= 1
            cell.value = value
            cell.turn = want_turn + 1

    def dequeue(self) -> int:
        """Remove and return the oldest element, or :data:`EMPTY`.

        Non-blocking: if the cell the next ticket maps to is not yet
        published, no ticket is consumed and :data:`EMPTY` is returned.
        """
        while True:
            # Racy reads either way: the turn and the claim re-check.
            head = self._head._value  # noqa: SLF001
            tail = self._tail._value  # noqa: SLF001
            if head >= tail:
                return EMPTY
            cell = self._cells[head % self._capacity]
            rounds = head // self._capacity
            full_turn = 2 * rounds + 1
            with cell.lock:
                if cell.turn != full_turn:
                    # Enqueuer claimed the ticket but has not published yet.
                    return EMPTY
                # Claim the head ticket; if another dequeuer beat us, retry.
                if not self._claim_head(head):
                    continue
                value = cell.value
                cell.value = None
                cell.turn = full_turn + 1  # == 2 * (rounds + 1) for next round
                if cell.waiting:
                    cell.nonfull.notify_all()
            assert value is not None
            return value

    def dequeue_blocking(
        self,
        timeout: Optional[float] = None,
        *,
        initial_backoff: float = SPIN_BACKOFF_INITIAL_SECONDS,
        max_backoff: float = SPIN_BACKOFF_MAX_SECONDS,
    ) -> int:
        """Spin with capped exponential backoff until an element arrives.

        Mirrors the busy-wait in Listing 1 lines 8–11 but sleeps between
        probes so the emulation does not burn a CPU.  The pause starts at
        ``initial_backoff`` and doubles (by
        :data:`SPIN_BACKOFF_MULTIPLIER`) up to ``max_backoff``, so a
        briefly-empty queue is re-probed almost immediately while a
        saturated one is polled gently.  Returns :data:`EMPTY` on timeout.
        """
        if initial_backoff <= 0 or max_backoff < initial_backoff:
            raise EngineError(
                f"invalid backoff window [{initial_backoff}, {max_backoff}]"
            )
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = initial_backoff
        while True:
            value = self.dequeue()
            if value != EMPTY:
                return value
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return EMPTY
                time.sleep(min(delay, remaining))
            else:
                time.sleep(delay)
            delay = min(delay * SPIN_BACKOFF_MULTIPLIER, max_backoff)

    def _claim_head(self, expected: int) -> bool:
        """CAS-like head advance: succeed only if head is still ``expected``."""
        with self._head._lock:  # noqa: SLF001 - deliberate fused CAS on the counter
            if self._head._value != expected:
                return False
            self._head._value = expected + 1
            return True

    def drain(self) -> List[int]:
        """Remove and return all currently available elements (test helper)."""
        out: List[int] = []
        while True:
            value = self.dequeue()
            if value == EMPTY:
                return out
            out.append(value)
