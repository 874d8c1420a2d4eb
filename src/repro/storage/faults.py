"""Crash-point and transient-fault injection for durability testing.

The recovery guarantee of §4.1 — *at least one valid checkpoint exists at
every instant, and it is the newest whose commit completed* — must hold no
matter where a crash lands.  :class:`CrashPointDevice` wraps an in-memory
device (SSD or PMEM model) and crashes it according to a
:class:`CrashSchedule`, so a property-based test (or the
``pccheck-repro crashsweep`` harness) can sweep the crash point across an
entire checkpointing run and assert recovery succeeds at every single one.

Three kinds of injection are supported:

* **Op-count crashes** (:class:`OpCountSchedule`, or the ``budget``
  shorthand): power loss after the k-th mutating operation.
* **Offset-targeted crashes** (:class:`OffsetCrashSchedule`): power loss
  on the n-th mutating operation touching a byte range — e.g. "crash
  during the commit-record persist".
* **Transient faults** (:class:`TransientFaultDevice`): an operation that
  fails K times with :class:`~repro.errors.TransientIOError` and then
  succeeds when retried — a flaky controller rather than power loss.

``torn_writes=True`` makes the crashing ``write`` additionally land a
durable *prefix* of its data (cut at an arbitrary byte, not a cache-line
boundary) before power is lost — the classic torn-write hazard that CRC
validation must catch.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Protocol, Union

import numpy as np

from repro.errors import CrashedDeviceError, EngineError, TransientIOError
from repro.obs.metrics import M
from repro.storage.device import Buffer, DeviceWrapper, PersistentDevice, as_view
from repro.storage.pmem import SimulatedPMEM
from repro.storage.ssd import InMemorySSD


class CrashBudgetExhausted(CrashedDeviceError):
    """Raised on the operation that triggers the injected crash."""


@dataclass(frozen=True)
class DeviceOp:
    """One mutating device operation, as seen by a crash schedule."""

    index: int  #: 0-based position among mutating ops so far
    kind: str  #: ``"write"`` or ``"persist"``
    offset: int
    length: int

    def touches(self, lo: int, hi: int) -> bool:
        """True when this op overlaps the byte range ``[lo, hi)``."""
        return self.offset < hi and self.offset + self.length > lo


class CrashSchedule(Protocol):
    """Decides which mutating operation triggers the injected crash.

    Schedules are stateful (occurrence counting) — use one instance per
    :class:`CrashPointDevice`.
    """

    def should_crash(self, op: DeviceOp) -> bool: ...


class OpCountSchedule:
    """Crash on the op that would exceed a total-operation budget."""

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise EngineError(f"crash budget must be >= 0, got {budget}")
        self._budget = budget

    def should_crash(self, op: DeviceOp) -> bool:
        return op.index >= self._budget


class OffsetCrashSchedule:
    """Crash on the ``occurrence``-th mutating op touching ``[lo, hi)``.

    ``kind`` restricts matching to ``"write"`` or ``"persist"`` ops
    (``None`` matches both) — so ``OffsetCrashSchedule(commit_offset,
    commit_offset + RECORD_SIZE, occurrence=2, kind="persist")`` means
    "crash during the third commit-record fence".
    """

    def __init__(
        self,
        lo: int,
        hi: int,
        occurrence: int = 0,
        kind: Optional[str] = None,
    ) -> None:
        if hi <= lo:
            raise EngineError(f"empty target range [{lo}, {hi})")
        if occurrence < 0:
            raise EngineError(f"occurrence must be >= 0, got {occurrence}")
        self._lo = lo
        self._hi = hi
        self._occurrence = occurrence
        self._kind = kind
        self._seen = 0

    def should_crash(self, op: DeviceOp) -> bool:
        if self._kind is not None and op.kind != self._kind:
            return False
        if not op.touches(self._lo, self._hi):
            return False
        seen = self._seen
        self._seen += 1
        return seen == self._occurrence


class CrashPointDevice(DeviceWrapper):
    """Delegate to an inner crashable device, crashing per a schedule.

    Each ``write`` and ``persist`` consults the schedule *before*
    executing.  The operation that triggers the crash downs the inner
    device first (so the operation's effect is lost along with all other
    unpersisted state) and raises :class:`CrashBudgetExhausted` — the
    checkpointing threads die exactly as they would on power loss.

    ``budget=k`` is shorthand for ``schedule=OpCountSchedule(k)``.
    ``budget=None`` with no schedule disables injection;
    :meth:`operations_performed` after such a run tells the test how many
    crash points exist to sweep, and ``record_ops=True`` additionally
    keeps the full op trace in :attr:`op_log` so offset-targeted sweeps
    can enumerate their occurrences.

    With ``torn_writes=True`` (requires ``rng``) a crash triggered on a
    ``write`` first lands a durable prefix of the op's data, cut at an
    rng-chosen byte — a torn write that survives power loss.
    """

    def __init__(
        self,
        inner: Union[InMemorySSD, SimulatedPMEM],
        budget: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        schedule: Optional[CrashSchedule] = None,
        torn_writes: bool = False,
        record_ops: bool = False,
    ) -> None:
        super().__init__(inner, f"crashpoint({inner.name})")
        if budget is not None and schedule is not None:
            raise EngineError("pass either budget or schedule, not both")
        if torn_writes and rng is None:
            raise EngineError("torn_writes requires an rng")
        if schedule is None and budget is not None:
            schedule = OpCountSchedule(budget)
        self._schedule = schedule
        self._rng = rng
        self._torn_writes = torn_writes
        self._ops = 0
        self._lock = threading.Lock()
        self.op_log: Optional[List[DeviceOp]] = [] if record_ops else None

    @property
    def operations_performed(self) -> int:
        """Mutating operations executed so far (crash-point count)."""
        with self._lock:
            return self._ops

    def _spend(self, kind: str, offset: int, length: int,
               data: Optional[memoryview] = None) -> None:
        with self._lock:
            op = DeviceOp(index=self._ops, kind=kind, offset=offset,
                          length=length)
            if self._schedule is not None and self._schedule.should_crash(op):
                if not self._inner.crashed:
                    if self._torn_writes and data is not None and len(data) > 1:
                        # The dying write lands a durable prefix, cut at
                        # an arbitrary byte (torn mid-cache-line).
                        cut = int(self._rng.integers(1, len(data)))
                        self._inner.write(offset, data[:cut])
                        # The torn prefix must land atomically with the
                        # crash decision: a concurrent op slipping in
                        # between would see a half-down device.  The
                        # inner device is an in-memory model, so this
                        # "blocking" persist cannot actually block.
                        self._inner.persist(offset, cut)  # pclint: disable=PC001
                    self._inner.crash(self._rng)
                    # One crash, one count: later ops refused by the
                    # already-dead device (pipelined shares in flight on
                    # other threads) are consequences, not new injections.
                    if self._obs_metrics is not None:
                        self._obs_metrics.inc(M.CRASHES_INJECTED)
                raise CrashBudgetExhausted(
                    f"injected crash at op {op.index} "
                    f"({op.kind} {op.offset}+{op.length}) on {self.name}"
                )
            self._ops += 1
            if self.op_log is not None:
                self.op_log.append(op)

    def write(self, offset: int, data: Buffer) -> None:
        # Normalize once so the torn-write prefix is a zero-copy slice
        # and the inner device's own as_view call is a no-op.
        view = as_view(data)
        self._spend("write", offset, len(view), view)
        super().write(offset, view)

    def persist(self, offset: int, length: int) -> None:
        self._spend("persist", offset, length)
        super().persist(offset, length)

    def crash(self, rng: Optional[np.random.Generator] = None) -> None:
        """Crash the inner device immediately (manual trigger)."""
        self._inner.crash(rng)

    def recover(self) -> None:
        """Recover the inner device and reset nothing else — the schedule
        stays consumed so further injected runs need a new wrapper."""
        self._inner.recover()


class TransientFaultDevice(DeviceWrapper):
    """Inject retryable faults: an op fails ``times`` times, then succeeds.

    The ``occurrence``-th successful-so-far operation of ``kind`` raises
    :class:`~repro.errors.TransientIOError` on its first ``times``
    attempts; the occurrence counter does not advance on a failed
    attempt, so a caller that retries the same logical operation gets
    through on attempt ``times + 1``.  Models a flaky controller or a
    recoverable media error, as opposed to the power loss of
    :class:`CrashPointDevice`.
    """

    def __init__(
        self,
        inner: PersistentDevice,
        kind: str = "write",
        occurrence: int = 0,
        times: int = 1,
    ) -> None:
        super().__init__(inner, f"transient({inner.name})")
        if kind not in ("write", "persist", "read"):
            raise EngineError(f"unknown op kind {kind!r}")
        if times < 1:
            raise EngineError(f"times must be >= 1, got {times}")
        self._kind = kind
        self._occurrence = occurrence
        self._failures_left = times
        self._seen = 0
        self._lock = threading.Lock()
        self.faults_injected = 0

    def _gate(self, kind: str, offset: int, length: int) -> None:
        if kind != self._kind:
            return
        with self._lock:
            if self._seen == self._occurrence and self._failures_left > 0:
                self._failures_left -= 1
                self.faults_injected += 1
                if self._obs_metrics is not None:
                    self._obs_metrics.inc(M.TRANSIENT_FAULTS)
                raise TransientIOError(
                    f"injected transient fault on {kind} {offset}+{length} "
                    f"({self._failures_left} failures remaining) on {self.name}"
                )
            self._seen += 1

    def write(self, offset: int, data: Buffer) -> None:
        self._gate("write", offset, len(as_view(data)))
        super().write(offset, data)

    def read(self, offset: int, length: int) -> bytes:
        self._gate("read", offset, length)
        return super().read(offset, length)

    def readinto(self, offset: int, dest: Buffer) -> None:
        self._gate("read", offset, len(as_view(dest)))
        super().readinto(offset, dest)

    def persist(self, offset: int, length: int) -> None:
        self._gate("persist", offset, length)
        super().persist(offset, length)
