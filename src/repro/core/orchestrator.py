"""The PCcheck orchestrator: concurrent checkpoint sessions (§3.1).

The orchestrator coordinates the life of a checkpoint (Figure 5):

1. the trainer reaches a checkpoint boundary and calls
   :meth:`PCcheckOrchestrator.checkpoint_async`;
2. a *capture* task copies the state chunk-by-chunk into pinned DRAM
   buffers from the pool (step ③, GPU copy engines);
3. a *persist* task drains the captured chunks in order through the
   engine's writer threads to consecutive slot offsets (step ④), releasing
   each buffer as soon as its chunk's write returned — no per-chunk fence;
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

Steps 2–3 pipeline only when there is something to overlap.  A
checkpoint that fits one staging chunk runs as ONE straight-line
function on ONE thread — the caller's for the blocking
:meth:`~PCcheckOrchestrator.checkpoint_sync`, one executor task for
:meth:`~PCcheckOrchestrator.checkpoint_async`: draw the counter and slot,
capture into a staging buffer, CRC, write, commit (header, CAS, record
and the covering fence), recycle and settle.  Same stages, spans,
metrics, device ops and failure handling as the pipeline, without its
hand-off queue; a blocking one also builds no future or event — one lock
stands in for both.  Up to :data:`INLINE_WRITE_MAX_BYTES` that thread
also writes the payload, so the writer pool is not woken at all; a
larger chunk streams to the pool's ``p`` threads in pieces of that size,
each queued as soon as it is copied, so the device starts on the first
piece while the rest are still being captured.

Up to N checkpoints run these pipelines concurrently — the engine's free
slot queue naturally enforces the bound, and a request arriving while all
N are busy blocks, which is the training stall PCcheck's configuration
tool sizes N and f to avoid.

Consistency contract: the trainer calls :meth:`wait_for_snapshots` before
every weight update, so captures always read a stable state version.  The
orchestrator tracks the cumulative time spent in that wait (the stall the
paper's Figure 6 shows between T and U) plus slot-wait and buffer-wait
stalls for the sensitivity benchmarks.

Failure contract (see docs/ALGORITHM.md, "Failure paths and what
survives them"): a capture failure aborts the ticket cleanly; a persist
failure poisons its capture stage, drains the hand-off queue back into
the buffer pool, and either recycles the slot (local errors) or leaves
the ticket dangling and marks the orchestrator fatal (a crashed device —
power-loss semantics).  ``wait_for_snapshots``, ``drain`` and ``close``
always terminate, whatever failed.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from concurrent import futures
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import List, Optional

from repro.core.chunking import ChunkPlan, aligned_chunk_size, plan_chunks
from repro.core.engine import (
    CheckpointEngine,
    CheckpointResult,
    CheckpointTicket,
)
from repro.core.snapshot import SnapshotSource
from repro.core.writer import PersistSubmission
from repro.errors import (
    CrashedDeviceError,
    EngineClosedError,
    EngineError,
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
    #: The previously started checkpoint's future: it settles before this
    #: one commits.  Dropped once the persist stage has taken it.
    _after: Optional[object] = None
    _started: float = 0.0

    def wait(self, timeout: Optional[float] = None) -> CheckpointResult:
        """Block until the checkpoint committed (or was superseded)."""
        return self._future.result(timeout)

    def done(self) -> bool:
        """True once the commit protocol finished."""
        return self._future.done()

    def add_done_callback(self, fn) -> None:
        """Run ``fn(handle)`` once this checkpoint settles — committed,
        superseded, or failed.  Fires immediately when already settled.
        Callbacks run on the thread that settled the handle — a pipeline
        thread, or the caller's when already done — so keep them short
        and never block in them; exceptions they raise are swallowed by
        the underlying future machinery, as with
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
    """A blocking one-chunk checkpoint as ``drain``, ``close``,
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
#: (docs/PERFORMANCE.md, "The service path").
INLINE_WRITE_MAX_BYTES = 2 << 20

#: Sentinel the capture stage sends when it failed mid-checkpoint, so the
#: persist stage aborts the ticket instead of committing a truncated payload.
_CAPTURE_FAILED = object()

#: Poll period for waits that must notice a dead pipeline peer: the
#: capture stage's buffer acquisition (its consumer may have died and
#: stopped releasing buffers) and the slot wait that admits a checkpoint
#: (every slot may be held by a dangling post-crash ticket).  Small enough
#: that failure detection latency is negligible next to a persist.
_STAGE_POLL_SECONDS: float = 0.05


class _PersistStageDied(EngineError):
    """Internal control-flow signal: the capture stage stopped because its
    persist consumer failed; the consumer's error is what reaches the
    handle."""


class PCcheckOrchestrator:
    """Drives concurrent checkpoint pipelines over one engine."""

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
        # Two threads per in-flight checkpoint: capture + persist stages.
        workers = 2 * engine.max_concurrent
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="pccheck-orch"
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
        #: First unrecoverable pipeline failure (a crashed device).  Once
        #: set, new checkpoints are refused instead of blocking forever on
        #: slots held by dangling post-crash tickets.
        self._fatal: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # trainer-facing API

    @property
    def engine(self) -> CheckpointEngine:
        """The checkpoint engine this orchestrator drives."""
        return self._engine

    @property
    def fatal_error(self) -> Optional[BaseException]:
        """The unrecoverable pipeline failure, if one happened.

        Non-``None`` means a persist stage died on a crashed device; the
        orchestrator refuses new checkpoints and the engine pool must not
        hand this stack to another tenant.
        """
        return self._fatal

    def checkpoint_async(self, source: SnapshotSource, step: int) -> CheckpointHandle:
        """Start a concurrent checkpoint of ``source``.

        Returns immediately after scheduling; blocks only if the engine
        has no free slot (all N concurrent checkpoints busy), which is the
        paper's stall condition ``Tw > N · f · t``.
        """
        plan = plan_chunks(source.snapshot_size(), self._chunk_size)
        handle = CheckpointHandle(step=step, _started=time.monotonic())
        handle.span, ticket, handle._after = self._admit(  # noqa: SLF001
            step, handle._future  # noqa: SLF001
        )
        handle.counter = ticket.counter
        if plan.num_chunks == 1:
            self._executor.submit(
                self._run_one_chunk, source, plan.total, ticket, handle
            )
        else:
            hand_off: "queue.Queue[Optional[PinnedBuffer]]" = queue.Queue()
            persist_dead = threading.Event()
            persist_future = self._executor.submit(
                self._persist_stage, ticket, hand_off, handle, persist_dead
            )
            self._executor.submit(
                self._capture_stage, source, plan, hand_off, handle,
                persist_future, persist_dead,
            )
        self._track(handle)
        return handle

    def checkpoint_sync(self, source: SnapshotSource, step: int) -> CheckpointResult:
        """Checkpoint ``source`` and block until its commit.

        A checkpoint that fits one staging chunk runs end to end on the
        calling thread (:meth:`_one_chunk`) and builds no future, event or
        condition: one lock, released when it settles, is what
        :meth:`drain`, :meth:`close`, :meth:`wait_for_snapshots` and later
        starters wait on.  A multi-chunk checkpoint is
        :meth:`checkpoint_async` plus ``wait()``, keeping its
        capture/persist overlap.
        """
        total = source.snapshot_size()
        if total > self._chunk_size:
            return self.checkpoint_async(source, step).wait()
        started = time.monotonic()
        blocking = _BlockingCheckpoint()
        root, ticket, after = self._admit(step, blocking)
        self._track(blocking)
        try:
            result = self._one_chunk(source, total, ticket, root, after, started)
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
        pipeline must not leave later handles un-joined.  With
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
        """Drain and shut down the pipelines, then unmap the staging.

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
                "orchestrator pipelines died on a crashed device; "
                "recover the device and build a fresh orchestrator"
            ) from fatal

    def __enter__(self) -> "PCcheckOrchestrator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # pipeline stages

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

    def _capture_stage(
        self,
        source: SnapshotSource,
        plan: ChunkPlan,
        hand_off: "queue.Queue[Optional[PinnedBuffer]]",
        handle: CheckpointHandle,
        persist_future: "Future[CheckpointResult]",
        persist_dead: threading.Event,
    ) -> None:
        """The capture task of a multi-chunk checkpoint: copy ``source``
        chunk by chunk into staging buffers from the pool and feed each to
        the hand-off queue, then post its terminal sentinel;
        ``snapshot_done`` is set once it finished, failed or not."""
        tracer = self._tracer
        stage_span = tracer.begin("capture", parent=handle.span,
                                  step=handle.step)
        stage_start = time.monotonic()
        try:
            stage_span.set(total_bytes=plan.total, chunks=plan.num_chunks)
            for index, (offset, length) in enumerate(plan):
                buffer = self._acquire_buffer(stage_span, index, persist_dead)
                try:
                    with tracer.span("capture_chunk", parent=stage_span,
                                     chunk=index, offset=offset,
                                     length=length):
                        source.capture_chunk(offset, length, buffer)
                except BaseException:
                    self._pool.release(buffer)
                    raise
                # The staging copy into the pinned buffer is the ONE
                # intentional copy of the checkpoint path; everything
                # downstream moves memoryview slices.  Counting it here
                # lets the persist benchmark assert copies-per-checkpoint
                # stays at 1x the payload.
                self._m.bytes_copied.inc(length)
                hand_off.put(buffer)
        except BaseException as exc:  # noqa: BLE001 - fail the handle
            _drop_staged_views(exc)
            tracer.end(stage_span, error=type(exc).__name__)
            handle.snapshot_done.set()
            hand_off.put(_CAPTURE_FAILED)
            # Wait for the persist stage to abort the ticket (or finish
            # its own failure path), then surface the capture error on
            # the handle — unless the persist stage's error got there
            # first, which is the root cause when we were poisoned.
            persist_future.exception()
            if not handle._future.done():  # noqa: SLF001
                handle._future.set_exception(exc)  # noqa: SLF001
            return
        handle.snapshot_done.set()
        self._m.capture_seconds.observe(time.monotonic() - stage_start)
        tracer.end(stage_span)
        hand_off.put(None)  # end-of-chunks sentinel

    def _run_one_chunk(
        self, source: SnapshotSource, total: int, ticket: CheckpointTicket,
        handle: CheckpointHandle,
    ) -> None:
        """The executor task of an asynchronous one-chunk checkpoint:
        :meth:`_one_chunk`, its outcome on the handle."""
        after, handle._after = handle._after, None  # noqa: SLF001
        future = handle._future  # noqa: SLF001
        try:
            future.set_result(self._one_chunk(
                source, total, ticket, handle.span, after,
                handle._started, handle.snapshot_done,  # noqa: SLF001
            ))
        except BaseException as exc:  # noqa: BLE001 - on the handle
            handle.snapshot_done.set()
            future.set_exception(exc)

    def _one_chunk(
        self, source: SnapshotSource, total: int, ticket: CheckpointTicket,
        root, after, started: float, captured: Optional[threading.Event] = None,
    ) -> CheckpointResult:
        """An admitted one-chunk checkpoint, straight through on this
        thread: capture into a staging buffer (then set ``captured``),
        CRC and write it, recycle the buffer, wait for ``after``, commit.

        Up to :data:`INLINE_WRITE_MAX_BYTES` this thread writes the
        payload itself.  A larger payload streams to the writer pool in
        pieces of that size (rounded up to the device's alignment): each
        piece is captured into its window of the buffer and queued —
        the pool writes it while this thread folds its CRC and copies
        the next — and every piece is reaped before the buffer goes
        back.  A local error aborts the ticket, recycling the slot; a
        crashed device while writing or committing leaves it dangling
        and the orchestrator fatal.  Either way the queued pieces are
        settled, then the buffer goes back and the error is raised."""
        tracer, m, pool = self._tracer, self._m, self._pool
        # The stage spans are the chunk spans: there is one chunk.
        stage = tracer.begin("capture", parent=root, step=ticket.step,
                             total_bytes=total, chunks=1)
        buffer = None
        queued: List[PersistSubmission] = []
        persisting = False
        try:
            stage_start = time.monotonic()
            buffer = pool.try_acquire() or self._acquire_buffer(stage, 0)
            if total <= self._piece_size:
                source.capture_chunk(0, total, buffer)
                piece = buffer.view()
            else:
                # The whole payload must fit before a piece is queued,
                # so an oversize one writes nothing.
                self._engine._payload_at(ticket, total)  # noqa: SLF001
                persisting = True
                piece = None
                for lo, length in plan_chunks(total, self._piece_size):
                    if piece is not None:
                        # ``buffer`` stays checked out until every piece
                        # in ``queued`` was reaped, on every path below.
                        queued.append(
                            ticket.submit([piece])  # pclint: disable=PC011
                        )
                    window = buffer.window(lo, length)
                    source.capture_chunk(lo, length, window)
                    piece = window.view()
            m.bytes_copied.inc(total)
            if captured is not None:
                captured.set()
            persist_start = time.monotonic()
            m.capture_seconds.observe(persist_start - stage_start)
            tracer.end(stage)
            persisting = True
            stage = tracer.begin("persist", parent=root, step=ticket.step,
                                 slot=ticket.slot)
            if total <= INLINE_WRITE_MAX_BYTES:
                ticket.write_inline(piece)
            else:
                queued.append(ticket.submit([piece]))  # pclint: disable=PC011
                for submission in queued:
                    ticket.reap(submission)
            # Written: the buffer goes back before any commit wait, or
            # checkpoints waiting their turn could hold every buffer an
            # earlier one still needs for its capture.
            staged, buffer = buffer, None
            pool.release(staged)
            m.persist_seconds.observe(time.monotonic() - persist_start)
            tracer.end(stage, chunks=1)
            result = self._commit_in_turn(ticket, root, after)
        except BaseException as exc:
            tracer.end(stage, error=type(exc).__name__)
            # No writer may still read the buffer when it goes back.
            for submission in queued:
                self._settle_inflight(ticket, (submission, None), swallow=True)
            if buffer is not None:
                pool.release(buffer)
            piece = window = queued = submission = None
            _drop_staged_views(exc)
            crashed = persisting and isinstance(exc, CrashedDeviceError)
            self._finish_root(root, started, self._fail(ticket, exc, crashed))
            raise
        self._finish_root(root, started, STATUS_COMMITTED if result.committed
                          else STATUS_SUPERSEDED)
        return result

    def _acquire_buffer(
        self, stage_span, index: int,
        persist_dead: Optional[threading.Event] = None,
    ) -> PinnedBuffer:
        """A staging buffer for chunk ``index``: a free one at once, else
        a counted stall under a ``buffer_wait`` span.  The stall polls:
        if the persist stage died (``persist_dead``), nobody releases
        buffers, and a blocking ``acquire()`` would deadlock this thread
        (and with it ``wait_for_snapshots`` and executor shutdown)."""
        buffer = self._pool.try_acquire()
        if buffer is not None:
            return buffer
        wait_start = time.monotonic()
        wait_span = self._tracer.begin("buffer_wait", parent=stage_span,
                                       chunk=index)
        try:
            while buffer is None:
                if persist_dead is not None and persist_dead.is_set():
                    raise _PersistStageDied(
                        "persist stage failed; capture abandoned"
                    )
                buffer = self._pool.acquire(timeout=_STAGE_POLL_SECONDS)
        finally:
            self._m.buffer_wait.inc(time.monotonic() - wait_start)
            self._tracer.end(wait_span)
        return buffer

    def _persist_stage(
        self,
        ticket,
        hand_off,
        handle: CheckpointHandle,
        persist_dead: threading.Event,
    ) -> Optional[CheckpointResult]:
        """The persist task of a multi-chunk checkpoint: drain the
        hand-off queue the capture task feeds into the writer pool, then
        commit; every outcome lands on the handle."""
        # True once capture's terminal sentinel was consumed: after that
        # the queue stays empty forever, so the failure path must not
        # block draining it.
        sentinel_seen = False
        after, handle._after = handle._after, None  # noqa: SLF001
        root, started = handle.span, handle._started  # noqa: SLF001
        tracer = self._tracer
        stage_span = tracer.begin("persist", parent=root,
                                  step=handle.step, slot=ticket.slot)
        stage_start = time.monotonic()
        # Deferred-reap pipeline: chunk k's submission (and its staging
        # buffer) stays in flight while chunk k+1 is dequeued, submitted
        # and CRC'd, so the CRC of chunk k+1 overlaps the device writes
        # of chunk k on the double pinned buffers.  `held` is the queue
        # of (submission, buffer) pairs whose reap is deferred; entries
        # are popped BEFORE settling so no failure path can see (and
        # release) the same buffer twice.
        held = []
        try:
            index = 0
            while True:
                if held:
                    # Bounded wait while a deferred reap holds a staging
                    # buffer: the capture stage may be starving on that
                    # very buffer (a pool with fewer buffers than the
                    # pipeline depth), so a stalled hand-off settles the
                    # backlog — refilling the pool — before blocking for
                    # real.  Chunks arriving back-to-back never hit the
                    # timeout, so the CRC/persist overlap is preserved on
                    # the hot path.
                    try:
                        buffer = hand_off.get(timeout=_STAGE_POLL_SECONDS)
                    except queue.Empty:
                        while held:
                            self._settle_inflight(ticket, held.pop(0))
                        continue
                else:
                    buffer = hand_off.get()
                if buffer is None:
                    sentinel_seen = True
                    break
                if buffer is _CAPTURE_FAILED:
                    sentinel_seen = True
                    while held:
                        self._settle_inflight(ticket, held.pop(0),
                                              swallow=True)
                    ticket.abort()
                    tracer.end(stage_span, error="capture_failed")
                    self._finish_root(root, started, STATUS_ABORTED)
                    return None
                try:
                    staged = buffer.view()
                    with tracer.span("persist_chunk", parent=stage_span,
                                     chunk=index, length=len(staged)):
                        # The pool reads ``staged`` after this returns;
                        # ``held`` keeps the buffer checked out until
                        # ``_settle_inflight`` has reaped it.
                        submission = ticket.submit(  # pclint: disable=PC011
                            [staged]
                        )
                except BaseException:
                    self._pool.release(buffer)
                    raise
                held.append((submission, buffer))
                while len(held) > 1:
                    self._settle_inflight(ticket, held.pop(0))
                index += 1
            while held:
                self._settle_inflight(ticket, held.pop(0))
            self._m.persist_seconds.observe(time.monotonic() - stage_start)
            tracer.end(stage_span, chunks=index)
            result = self._commit_in_turn(ticket, root, after)
            # Root span and latency first: whoever wakes on the handle
            # sees the checkpoint fully accounted.
            self._finish_root(root, started, STATUS_COMMITTED
                              if result.committed else STATUS_SUPERSEDED)
            if not handle._future.done():  # noqa: SLF001
                handle._future.set_result(result)  # noqa: SLF001
            return result
        except BaseException as exc:  # noqa: BLE001 - fail the handle
            # Poison the capture stage first so it stops acquiring
            # buffers, then drain the hand-off queue: captured-but-not-
            # persisted buffers must return to the pool or its permanent
            # shrinkage deadlocks every later capture.  The deferred
            # chunk (if any) is settled the same way — its buffer must
            # not leak, and no pool worker may keep referencing it.
            persist_dead.set()
            while held:
                self._settle_inflight(ticket, held.pop(0), swallow=True)
            staged = submission = None
            _drop_staged_views(exc)
            tracer.end(stage_span, error=type(exc).__name__)
            crashed = isinstance(exc, CrashedDeviceError)
            self._finish_root(root, started, self._fail(ticket, exc, crashed))
            if not sentinel_seen:
                self._drain_hand_off(hand_off)
            handle.snapshot_done.set()
            if not handle._future.done():  # noqa: SLF001
                handle._future.set_exception(exc)  # noqa: SLF001
            # The handle carries the error — and ``handle.wait()`` raises
            # it — on whichever thread this stage ran.
            return None

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
        """Reap a deferred chunk submission and release its buffer
        (``None``: a streamed piece's, which the caller releases once
        every piece was reaped).

        The reap waits only for the chunk's writes to return (the fence
        is the commit's), so capture gets the buffer back at write speed.

        ``swallow=True`` is the failure path: the checkpoint is already
        dead, so reap errors are moot — what matters is that no pool
        worker still references the staging buffer when it returns to
        the DRAM pool.  Callers must drop their own reference *before*
        calling, so a reap failure cannot lead to a double release.
        """
        if inflight is None:
            return
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

    def _drain_hand_off(self, hand_off) -> None:
        """Release every buffer stranded in the chunk source.

        Runs on the persist stage's failure path.  Terminates because the
        capture always ends in a terminal sentinel: ``None`` after its
        last chunk, or ``_CAPTURE_FAILED`` when it fails or observes the
        poison event.
        """
        while True:
            buffer = hand_off.get()
            if buffer is None or buffer is _CAPTURE_FAILED:
                return
            self._pool.release(buffer)
