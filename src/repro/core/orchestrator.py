"""The PCcheck orchestrator: concurrent checkpoint sessions (§3.1).

The orchestrator coordinates the life of a checkpoint (Figure 5):

1. the trainer reaches a checkpoint boundary and calls
   :meth:`PCcheckOrchestrator.checkpoint_async`;
2. the state is copied chunk by chunk into pinned DRAM buffers from the
   pool (step ③, GPU copy engines);
3. each captured chunk goes to the engine's writer threads at the next
   consecutive slot offset (step ④), and its buffer goes back as soon as
   its writes returned — no per-chunk fence;
4. the engine's commit runs the protocol that publishes the checkpoint;
   on SSD its ONE fence, after the CAS, covers the commit record, the
   slot header and the whole payload (§4.1; docs/ALGORITHM.md).

Checkpoints commit in the order they were started: a checkpoint calls
``ticket.commit()`` only once every checkpoint this orchestrator started
before it has settled — committed, superseded, aborted or failed.  The
CAS still decides which checkpoint wins; the order only keeps a newer
checkpoint that caught up from superseding an older one that is still
fencing (a whole-file ``fsync`` flushes both, so the race is close).
Starting is serialised, so the start order is the counter order even
when several threads start checkpoints at once.

Every checkpoint, whatever its plan, runs as ONE straight-line function
(:meth:`~PCcheckOrchestrator._checkpoint`) on ONE thread — the caller's
for the blocking :meth:`~PCcheckOrchestrator.checkpoint_sync`, one
executor task for :meth:`~PCcheckOrchestrator.checkpoint_async`.  Steps
2–3 overlap on that thread, as Figure 7's double buffering does: chunk
k is captured while the writer pool still writes chunk k−1, then queued
whole, and its CRC is folded while the pool writes it.  A blocking one
builds no future or event — one lock stands in for both.  A checkpoint
that fits one staging chunk is written by that thread itself up to
:data:`INLINE_WRITE_MAX_BYTES`, so the writer pool is not woken at all;
a larger one streams to the pool's ``p`` threads in pieces of that size
from its one buffer, each queued as soon as it is copied.

Up to N checkpoints run concurrently — the engine's free slot queue
naturally enforces the bound, and a request arriving while all N are
busy blocks, which is the training stall PCcheck's configuration tool
sizes N and f to avoid.

Consistency contract: the trainer calls :meth:`wait_for_snapshots` before
every weight update, so captures always read a stable state version.  The
orchestrator tracks the cumulative time spent in that wait (the stall the
paper's Figure 6 shows between T and U) plus slot-wait and buffer-wait
stalls for the sensitivity benchmarks.

Failure contract (see docs/ALGORITHM.md, "Failure paths and what
survives them"): whatever fails, the checkpoint's queued writes are
reaped and its buffers go back before the error is raised; a local
error aborts the ticket, recycling its slot, and a crashed device while
persisting leaves the ticket dangling and marks the orchestrator fatal
(power-loss semantics).  ``wait_for_snapshots``, ``drain`` and ``close``
always terminate, whatever failed.
"""

from __future__ import annotations

import threading
import time
import traceback
from concurrent import futures
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import List, Optional

from repro.core.chunking import aligned_chunk_size, plan_chunks
from repro.core.engine import (
    CheckpointEngine,
    CheckpointResult,
    CheckpointTicket,
)
from repro.core.snapshot import SnapshotSource
from repro.errors import (
    CrashedDeviceError,
    EngineClosedError,
    SlotWaitTimeout,
)
from repro.obs.metrics import M, MetricsRegistry
from repro.obs.trace import (
    STATUS_ABORTED,
    STATUS_COMMITTED,
    STATUS_DANGLING,
    STATUS_SUPERSEDED,
)
from repro.storage.dram import DRAMBufferPool, PinnedBuffer


@dataclass
class CheckpointHandle:
    """Tracks one asynchronous checkpoint request."""

    step: int
    counter: Optional[int] = None
    snapshot_done: threading.Event = field(default_factory=threading.Event)
    #: Root lifecycle span (``checkpoint``), when tracing is on.
    span: Optional[object] = None
    _future: "Future[CheckpointResult]" = field(default_factory=Future)

    def wait(self, timeout: Optional[float] = None) -> CheckpointResult:
        """Block until the checkpoint committed (or was superseded)."""
        return self._future.result(timeout)

    def done(self) -> bool:
        """True once the commit protocol finished."""
        return self._future.done()

    def add_done_callback(self, fn) -> None:
        """Run ``fn(handle)`` once this checkpoint settles — committed,
        superseded, or failed.  Fires immediately when already settled.
        Callbacks run on the thread that settled the handle — the
        checkpoint's executor task, or the caller's when already done —
        so keep them short and never block in them; exceptions they
        raise are swallowed by the underlying future machinery, as with
        :meth:`concurrent.futures.Future.add_done_callback`.
        """
        self._future.add_done_callback(lambda _future: fn(self))


def _drop_staged_views(exc: BaseException) -> None:
    """Clear the locals of the finished frames ``exc`` passed through.

    On a failure path the staging buffer is back in the pool before the
    error reaches its caller, yet those frames still hold views of it:
    kept, each would pin the buffer's mapping for as long as the caller
    keeps the error (so the pool's close could not unmap it) and alias
    whatever the next checkpoint stages there.  The traceback keeps its
    files and lines; a frame still running keeps its locals, so its
    caller drops its own views.
    """
    traceback.clear_frames(exc.__traceback__)


class _BlockingCheckpoint:
    """A blocking checkpoint as ``drain``, ``close``,
    ``wait_for_snapshots`` and later starters see it: one lock, taken at
    admission and released when it settles, serves as a handle's
    ``_future`` and ``snapshot_done`` both (waiting for its capture waits
    for all of it), so the caller's thread builds no ``Condition``."""

    __slots__ = ("_settled", "_outcome")

    def __init__(self) -> None:
        self._settled = threading.Lock()
        self._settled.acquire()

    _future = snapshot_done = property(lambda self: self)

    def settle(self, outcome) -> None:
        """Record the result, or the error raised, and release waiters."""
        self._outcome = outcome
        self._settled.release()

    def done(self) -> bool:
        return not self._settled.locked()

    def wait(self, timeout: Optional[float] = None) -> bool:
        if not self._settled.acquire(timeout=-1 if timeout is None else timeout):
            return False
        self._settled.release()
        return True

    def exception(self) -> Optional[BaseException]:
        self.wait()
        return self._outcome if isinstance(self._outcome, BaseException) else None

    def result(self, timeout: Optional[float] = None) -> CheckpointResult:
        if not self.wait(timeout):
            raise futures.TimeoutError()
        if isinstance(self._outcome, BaseException):
            raise self._outcome
        return self._outcome


#: Largest one-chunk payload the checkpoint's own thread writes, with
#: :meth:`~repro.core.engine.CheckpointTicket.write_inline` — one device
#: write on a file region, the ``p`` fenced shares on PMEM — instead of
#: the writer pool.  Below it the pool's wake-ups and wake-back cost more
#: than the ``p``-way split saves; above it the split wins
#: (docs/PERFORMANCE.md, "A blocking one-chunk checkpoint", keeps the
#: crossover tables this bound is read from: SSD at ``p`` = 2 and 3,
#: buffered and unbuffered, and PMEM at ``p`` = 2 and 3).  It is also the
#: piece size (rounded up to the device's ``preferred_align``) a larger
#: one-chunk payload streams to the pool in: each piece is queued as soon
#: as it is staged, so its writes overlap the copy of the next
#: (docs/PERFORMANCE.md, "The service path").  A multi-chunk plan's
#: chunks always go to the pool, each whole.
INLINE_WRITE_MAX_BYTES = 2 << 20

#: Chunks a multi-chunk checkpoint keeps queued but unreaped: once it
#: queued chunk k it reaps chunk k−1, so it holds at most two staging
#: buffers — the one the writers still write and the one it captures
#: into next (Figure 7's double buffering).
_IN_FLIGHT = 2

#: Poll period of the slot wait that admits a checkpoint: after a device
#: crash every slot may be held by a dangling ticket that nobody will
#: ever release, so the wait must notice the orchestrator went fatal.
#: Small enough that the detection latency is negligible next to a
#: persist.
_STAGE_POLL_SECONDS: float = 0.05


class PCcheckOrchestrator:
    """Drives concurrent checkpoints over one engine."""

    def __init__(self, engine: CheckpointEngine, pool: DRAMBufferPool) -> None:
        self._engine = engine
        self._pool = pool
        self._chunk_size = pool.chunk_size
        #: The pieces a one-chunk payload above the inline bound streams
        #: to the writer pool in, on the device's write grid.
        self._piece_size = aligned_chunk_size(
            INLINE_WRITE_MAX_BYTES, engine.layout.device.preferred_align
        )
        # The whole stack reports into one place: the engine's, through
        # handles bound here once.
        metrics = engine.metrics
        self._m = SimpleNamespace(
            requested=metrics.counter(M.CHECKPOINTS_REQUESTED),
            dangling=metrics.counter(M.DANGLING),
            update_stall=metrics.counter(M.UPDATE_STALL_SECONDS),
            buffer_wait=metrics.counter(M.BUFFER_WAIT_SECONDS),
            bytes_copied=metrics.counter(M.BYTES_COPIED),
            capture_seconds=metrics.histogram(M.STAGE_SECONDS, stage="capture"),
            persist_seconds=metrics.histogram(M.STAGE_SECONDS, stage="persist"),
            checkpoint_seconds=metrics.histogram(M.CHECKPOINT_SECONDS),
        )
        pool.attach_metrics(metrics)
        self._tracer = engine.tracer
        # One task per in-flight asynchronous checkpoint.
        self._executor = ThreadPoolExecutor(
            max_workers=engine.max_concurrent, thread_name_prefix="pccheck-orch"
        )
        self._pending: List[CheckpointHandle] = []
        self._pending_lock = threading.Lock()
        #: The checkpoint admitted last (a handle's future, or a blocking
        #: one's record): the next one admitted commits after it settled.
        #: ``_start_lock`` guards it from the counter draw on, so
        #: concurrent starters keep the two in step.
        self._last_admitted: Optional[object] = None
        self._start_lock = threading.Lock()
        self._closed = False
        #: First unrecoverable checkpoint failure (a crashed device).
        #: Once set, new checkpoints are refused instead of blocking
        #: forever on slots held by dangling post-crash tickets.
        self._fatal: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # trainer-facing API

    @property
    def engine(self) -> CheckpointEngine:
        """The checkpoint engine this orchestrator drives."""
        return self._engine

    @property
    def fatal_error(self) -> Optional[BaseException]:
        """The unrecoverable checkpoint failure, if one happened.

        Non-``None`` means a checkpoint died persisting to a crashed
        device; the orchestrator refuses new checkpoints and the engine
        pool must not hand this stack to another tenant.
        """
        return self._fatal

    def checkpoint_async(self, source: SnapshotSource, step: int) -> CheckpointHandle:
        """Start a concurrent checkpoint of ``source``.

        Returns immediately after scheduling; blocks only if the engine
        has no free slot (all N concurrent checkpoints busy), which is the
        paper's stall condition ``Tw > N · f · t``.  The checkpoint runs
        on one executor task (:meth:`_checkpoint`).
        """
        started = time.monotonic()
        total = source.snapshot_size()
        handle = CheckpointHandle(step=step)
        handle.span, ticket, after = self._admit(
            step, handle._future  # noqa: SLF001
        )
        handle.counter = ticket.counter
        self._executor.submit(
            self._checkpoint, source, total, ticket, handle.span, after,
            started, handle,
        )
        self._track(handle)
        return handle

    def checkpoint_sync(self, source: SnapshotSource, step: int) -> CheckpointResult:
        """Checkpoint ``source`` and block until its commit.

        The checkpoint runs end to end on the calling thread
        (:meth:`_checkpoint`), whatever its plan, and builds no future,
        event or condition: one lock, released when it settles, is what
        :meth:`drain`, :meth:`close`, :meth:`wait_for_snapshots` and
        later starters wait on — so its capture counts as done only once
        it settled.
        """
        started = time.monotonic()
        total = source.snapshot_size()
        blocking = _BlockingCheckpoint()
        root, ticket, after = self._admit(step, blocking)
        self._track(blocking)
        try:
            result = self._checkpoint(source, total, ticket, root, after, started)
        except BaseException as exc:
            blocking.settle(exc)
            raise
        blocking.settle(result)
        return result

    def wait_for_snapshots(self) -> float:
        """Block until every in-flight capture finished; returns the time
        spent waiting.  The trainer calls this before each weight update
        (the T→U consistency stall of Figure 6)."""
        start = time.monotonic()
        with self._pending_lock:
            pending = list(self._pending)
        for handle in pending:
            handle.snapshot_done.wait()
        waited = time.monotonic() - start
        self._m.update_stall.inc(waited)
        return waited

    def drain(
        self,
        timeout: Optional[float] = None,
        return_exceptions: bool = False,
    ) -> List[CheckpointResult]:
        """Wait for every outstanding checkpoint to finish.

        Every pending handle is awaited even when some failed — a crashed
        checkpoint must not leave later handles un-joined.  With
        ``return_exceptions=False`` (default) the first failure re-raises
        *after* all handles settled; with ``return_exceptions=True`` the
        failures appear in the result list instead.
        """
        with self._pending_lock:
            pending = list(self._pending)
        results: List[CheckpointResult] = []
        first_error: Optional[BaseException] = None
        for handle in pending:
            try:
                results.append(handle._future.result(timeout))  # noqa: SLF001
            except BaseException as exc:  # noqa: BLE001 - collected below
                if first_error is None:
                    first_error = exc
                if return_exceptions:
                    results.append(exc)
        if first_error is not None and not return_exceptions:
            raise first_error
        return results

    def close(self) -> None:
        """Drain and shut down the executor, then unmap the staging.

        Always terminates, even when handles failed: failures were
        deliverable through :meth:`CheckpointHandle.wait`, so close
        swallows them rather than leaving the executor running.  Once
        the executor and the engine's writer pool are joined, no thread
        can read a staging buffer, so the DRAM pool this orchestrator
        was handed is closed with the engine it was handed: its pages
        leave the resident set now, not when the garbage collector next
        runs (:meth:`~repro.storage.dram.DRAMBufferPool.close`).
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.drain(return_exceptions=True)
        finally:
            self._executor.shutdown(wait=True)
            self._engine.close()
            self._pool.close()

    def _check_fatal(self) -> None:
        fatal = self._fatal
        if fatal is not None:
            raise EngineClosedError(
                "a checkpoint died on a crashed device; "
                "recover the device and build a fresh orchestrator"
            ) from fatal

    def __enter__(self) -> "PCcheckOrchestrator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # one checkpoint

    def _admit(self, step: int, admitted):
        """Admit the checkpoint ``admitted`` stands for, in the caller's
        thread: open its root span, reserve its counter and slot, and
        chain it behind the one admitted before it, which settles before
        it may commit.  Returns ``(root, ticket, after)``.

        Counter and chain move under one lock, so the start order is the
        counter order even when several threads start at once.  The slot
        wait is the "wait for a previous checkpoint" stall concurrency
        bounds; it polls, because after a device crash every slot may be
        held by a dangling ticket, and earns a ``slot_wait`` span only
        when it happens."""
        if self._closed:
            raise EngineClosedError("orchestrator is closed")
        if self._fatal is not None:
            self._check_fatal()
        self._m.requested.inc()
        tracer = self._tracer
        root = tracer.begin("checkpoint", step=step)
        slot_span = None
        try:
            with self._start_lock:
                while True:
                    try:
                        ticket = self._engine.begin(
                            step=step, timeout=_STAGE_POLL_SECONDS
                        )
                        break
                    except SlotWaitTimeout:
                        if slot_span is None:
                            slot_span = tracer.begin("slot_wait", parent=root)
                        self._check_fatal()
                after, self._last_admitted = self._last_admitted, admitted
        except BaseException:
            tracer.end(root, status=STATUS_ABORTED)
            raise
        finally:
            if slot_span is not None:
                tracer.end(slot_span)
        ticket.trace_parent = root
        root.set(counter=ticket.counter, slot=ticket.slot)
        return root, ticket, after

    def _track(self, handle) -> None:
        """Register ``handle`` with :meth:`wait_for_snapshots`,
        :meth:`drain` and :meth:`close`."""
        with self._pending_lock:
            self._pending = [h for h in self._pending if not h.done()]
            self._pending.append(handle)

    def _checkpoint(
        self, source: SnapshotSource, total: int, ticket: CheckpointTicket,
        root, after, started: float,
        handle: Optional[CheckpointHandle] = None,
    ) -> Optional[CheckpointResult]:
        """An admitted checkpoint, straight through on this thread:
        capture, CRC and write its payload, give its buffers back, wait
        for ``after``, commit.  Returns the result or raises — or, given
        the ``handle`` of an asynchronous one, sets ``snapshot_done``
        once the capture ended and settles the handle instead.

        A one-chunk plan stages into one buffer.  Up to
        :data:`INLINE_WRITE_MAX_BYTES` this thread writes it itself; a
        larger one streams to the writer pool in pieces of that size
        (rounded up to the device's alignment), each captured into its
        window of the buffer and queued — the pool writes it while this
        thread folds its CRC and copies the next.  A multi-chunk plan
        captures each chunk into a buffer of its own and queues it
        whole; once chunk k is queued chunk k−1 is reaped and its buffer
        goes back, so capturing chunk k+1 overlaps chunk k's writes.  A
        plan that queues anything before its capture ended is checked
        to fit the slot first, so an oversize one writes nothing.

        A local error aborts the ticket, recycling the slot; a crashed
        device while writing or committing leaves it dangling and the
        orchestrator fatal.  Either way the queued writes are settled
        and every buffer is back before the error is raised."""
        tracer, m, pool = self._tracer, self._m, self._pool
        one_chunk = total <= self._chunk_size
        plan = None if one_chunk else plan_chunks(total, self._chunk_size)
        chunks = 1 if one_chunk else plan.num_chunks
        stage = tracer.begin("capture", parent=root, step=ticket.step,
                             total_bytes=total, chunks=chunks)
        # The buffer this thread holds that no entry of ``held`` returns.
        buffer = None
        # ``(submission, buffer)`` queued but unreaped, oldest first; a
        # buffer goes back once its entry was reaped (``None``: an
        # earlier piece of a one-chunk buffer, which its last piece's
        # entry returns).  Entries are popped BEFORE settling, so no
        # failure path can release the same buffer twice.
        held: list = []
        persisting = False
        try:
            stage_start = time.monotonic()
            if not one_chunk or total > self._piece_size:
                # The whole payload must fit before anything is queued,
                # so an oversize one writes nothing.
                self._engine._payload_at(ticket, total)  # noqa: SLF001
                persisting = True
            if one_chunk:
                buffer = pool.try_acquire() or self._acquire_buffer(
                    stage, 0, ticket, held
                )
                if total <= self._piece_size:
                    source.capture_chunk(0, total, buffer)
                    staged = buffer.view()
                else:
                    staged = None
                    for lo, length in plan_chunks(total, self._piece_size):
                        if staged is not None:
                            held.append((
                                ticket.submit([staged]),  # pclint: disable=PC011
                                None,
                            ))
                        window = buffer.window(lo, length)
                        source.capture_chunk(lo, length, window)
                        staged = window.view()
            else:
                staged = None
                for index, (offset, length) in enumerate(plan):
                    if staged is not None:
                        held.append((
                            ticket.submit([staged]),  # pclint: disable=PC011
                            buffer,
                        ))
                        buffer = None
                        while len(held) >= _IN_FLIGHT:
                            self._settle_inflight(ticket, held.pop(0))
                    buffer = pool.try_acquire() or self._acquire_buffer(
                        stage, index, ticket, held
                    )
                    with tracer.span("capture_chunk", parent=stage,
                                     chunk=index, offset=offset,
                                     length=length):
                        source.capture_chunk(offset, length, buffer)
                    staged = buffer.view()
            # The staging copy into the pinned buffers is the ONE
            # intentional copy of the checkpoint path; everything
            # downstream moves memoryview slices.
            m.bytes_copied.inc(total)
            if handle is not None:
                handle.snapshot_done.set()
            persist_start = time.monotonic()
            m.capture_seconds.observe(persist_start - stage_start)
            tracer.end(stage)
            persisting = True
            stage = tracer.begin("persist", parent=root, step=ticket.step,
                                 slot=ticket.slot)
            if one_chunk and total <= INLINE_WRITE_MAX_BYTES:
                ticket.write_inline(staged)
            else:
                held.append((
                    ticket.submit([staged]),  # pclint: disable=PC011
                    buffer,
                ))
                buffer = None
            while held:
                self._settle_inflight(ticket, held.pop(0))
            # Written: every buffer goes back before any commit wait, or
            # checkpoints waiting their turn could hold every buffer an
            # earlier one still needs for its capture.
            if buffer is not None:
                staged, buffer = buffer, None
                pool.release(staged)
            m.persist_seconds.observe(time.monotonic() - persist_start)
            tracer.end(stage, chunks=chunks)
            result = self._commit_in_turn(ticket, root, after)
        except BaseException as exc:
            tracer.end(stage, error=type(exc).__name__)
            # No writer may still read a buffer when it goes back.
            while held:
                self._settle_inflight(ticket, held.pop(0), swallow=True)
            if buffer is not None:
                pool.release(buffer)
            staged = window = buffer = None
            _drop_staged_views(exc)
            crashed = persisting and isinstance(exc, CrashedDeviceError)
            self._finish_root(root, started, self._fail(ticket, exc, crashed))
            if handle is None:
                raise
            handle.snapshot_done.set()
            handle._future.set_exception(exc)  # noqa: SLF001
            return None
        # Root span and latency first: whoever wakes on the handle sees
        # the checkpoint fully accounted.
        self._finish_root(root, started, STATUS_COMMITTED if result.committed
                          else STATUS_SUPERSEDED)
        if handle is not None:
            handle._future.set_result(result)  # noqa: SLF001
        return result

    def _acquire_buffer(
        self, stage, index: int, ticket: CheckpointTicket, held: list,
    ) -> PinnedBuffer:
        """A staging buffer for chunk ``index`` when none is free: a
        counted stall under a ``buffer_wait`` span.  Before each retry
        this thread reaps its own oldest queued chunk and gives its
        buffer back; it blocks only once it holds none in flight.  Every
        buffer another checkpoint holds comes back after writes that
        wait on nothing else, so the wait ends."""
        pool = self._pool
        wait_start = time.monotonic()
        wait_span = self._tracer.begin("buffer_wait", parent=stage,
                                       chunk=index)
        try:
            buffer = None
            while buffer is None and held:
                self._settle_inflight(ticket, held.pop(0))
                buffer = pool.try_acquire()
            return buffer or pool.acquire()
        finally:
            self._m.buffer_wait.inc(time.monotonic() - wait_start)
            self._tracer.end(wait_span)

    def _commit_in_turn(self, ticket, root, after) -> CheckpointResult:
        """Commit once ``after``, admitted just before, has settled."""
        if after is not None and not after.done():
            waited = self._tracer.begin("commit_wait", parent=root)
            after.exception()  # settled, whatever the outcome
            self._tracer.end(waited)
        return ticket.commit()

    def _fail(self, ticket, exc: BaseException, crashed: bool) -> str:
        """The failure contract; returns the root span's status.

        Power loss (``crashed``): the ticket dangles — recovery reclaims
        its slot after restart — and the engine is doomed, so new
        checkpoints are refused instead of blocking on slots no dangling
        ticket will ever release.  A local failure (e.g. the payload
        outgrew the slot): the device is fine, so the slot is recycled;
        data already in it can never validate without a header."""
        if crashed:
            self._fatal = exc
            self._m.dangling.inc()
            return STATUS_DANGLING
        ticket.abort()
        return STATUS_ABORTED

    def _settle_inflight(self, ticket, inflight, swallow: bool = False) -> None:
        """Reap a queued submission and release its buffer (``None``: an
        earlier piece of a one-chunk buffer, released with its last).

        The reap waits only for the writes to return (the fence is the
        commit's), so capture gets the buffer back at write speed.

        ``swallow=True`` is the failure path: the checkpoint is already
        dead, so reap errors are moot — what matters is that no pool
        worker still references the staging buffer when it returns to
        the DRAM pool.  Callers must drop their own reference *before*
        calling, so a reap failure cannot lead to a double release.
        """
        submission, buffer = inflight
        try:
            ticket.reap(submission)
        except Exception:
            if not swallow:
                raise
        finally:
            if buffer is not None:
                self._pool.release(buffer)

    def _finish_root(self, root, started: float, status: str) -> None:
        """Close a root ``checkpoint`` span with its outcome and, for a
        checkpoint that acked (committed or superseded), record the
        request→ack latency — aborted and dangling ones never acked, as in
        ``CheckpointEngine.checkpoint``."""
        self._tracer.end(root, status=status)
        if status in (STATUS_COMMITTED, STATUS_SUPERSEDED):
            self._m.checkpoint_seconds.observe(time.monotonic() - started)
