"""The concurrent checkpoint engine — the paper's Listing 1.

This is PCcheck's primary contribution: a checkpoint operation that never
waits for a previous checkpoint to finish persisting.  The moving parts
map one-to-one onto §4.1:

* a global :class:`~repro.core.atomics.AtomicCounter` orders checkpoints;
* a :class:`~repro.core.freelist.SlotQueue` hands out free storage slots
  (the lock-free queue of "available slots for storing checkpoints, apart
  from the latest valid checkpoint");
* a :class:`~repro.core.writer.ParallelWriter` persists each payload with
  ``p`` threads and the medium's fence discipline;
* an :class:`~repro.core.atomics.AtomicReference` is ``CHECK_ADDR``; the
  CAS retry loop of Listing 1 lines 19–34 decides which checkpoint is the
  newest committed one, returns superseded slots to the queue, and never
  lets an older checkpoint overwrite a newer one.

Invariants maintained (tested exhaustively in ``tests/``):

1. At every instant at least one fully persisted checkpoint exists once
   the first commit completed, and recovery finds the newest committed one.
2. The committed counter is monotonically non-decreasing.
3. The slot referenced by the committed record is never in the free queue.
4. Each completed ``checkpoint()`` call returns exactly one slot to the
   queue (the superseded one on success, its own on defeat), so N
   concurrent checkpoints never deadlock on N+1 slots.

The engine exposes a *ticket* API so the orchestrator can stream a
checkpoint in pipelined chunks (§3.1, Figure 7): ``begin()`` reserves the
slot and counter, ``submit()``/``reap()`` (or the blocking
``write_chunk()``) write consecutive pieces — a reaped chunk's buffer is
free to reuse, but nothing is fenced per chunk — and ``commit()`` writes
the slot header and runs the CAS protocol; ``write_inline()`` writes on
the caller's own thread instead of the pool.  ``checkpoint()`` is the
one-shot convenience wrapper.

How many fences a commit pays depends on the medium.  On PMEM
(``per-thread``) the commit pointer is a bare store nothing validates,
so Listing 1's order stands: every writer share fences itself, then the
header is persisted, then the commit record.  On a ``single``-fence
device every link is checked at recovery — the commit record has its own
CRC and must name a slot whose header carries the same counter, and the
header holds the payload CRC — so ONE fence over ``[commit record,
payload end)`` after the CAS makes payload, header and record durable
together; any subset of those writes that survives a crash fails a check
and recovery falls back to the previous checkpoint, whose slot is
recycled only after that fence (docs/ALGORITHM.md, "Commit on a file
region").
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Sequence

from repro.core.atomics import AtomicCounter, AtomicReference
from repro.core.freelist import EMPTY, SlotQueue
from repro.core.layout import DeviceLayout
from repro.core.meta import (
    RECORD_SIZE,
    CheckMeta,
    encode_commit_record,
    encode_slot_header,
    payload_crc,
)
from repro.core.sanitize import (
    EngineSanitizer,
    SanitizedAtomicCounter,
    SanitizedAtomicReference,
    SanitizedSlotQueue,
    sanitize_requested,
)
from repro.core.writer import FenceMode, ParallelWriter, PersistSubmission
from repro.errors import (
    CrashedDeviceError,
    EngineClosedError,
    EngineError,
    OutOfSpaceError,
    SlotWaitTimeout,
)
from repro.obs.metrics import M, MetricsRegistry
from repro.storage.device import Buffer, as_view
from repro.obs.trace import (
    NULL_TRACER,
    STATUS_ABORTED,
    STATUS_COMMITTED,
    STATUS_DANGLING,
    STATUS_SUPERSEDED,
)


@dataclass(frozen=True)
class CheckpointResult:
    """Outcome of one checkpoint operation.

    ``committed`` is True when this checkpoint won the CAS and became the
    recovery point; False when a concurrent *newer* checkpoint superseded
    it (its slot was recycled immediately — the paper's lines 29–31).
    Either way the checkpoint's data was durably written first, so a
    superseded checkpoint still cost one slot-write of bandwidth; the
    orchestrator's scheduling keeps this case rare.
    """

    counter: int
    slot: int
    committed: bool
    payload_len: int


class CheckpointTicket:
    """An in-flight checkpoint: slot + counter reserved, chunks streaming.

    Not thread-safe by itself — one ticket belongs to one checkpoint
    session, though many tickets proceed concurrently.
    """

    def __init__(
        self, engine: "CheckpointEngine", counter: int, slot: int, step: int = 0
    ) -> None:
        self._engine = engine
        self.counter = counter
        self.slot = slot
        self.step = step
        #: Optional root span this ticket's engine-side spans parent under
        #: (set by the orchestrator so commit spans join the lifecycle tree).
        self.trace_parent = None
        self._written = 0
        self._crc = 0
        self._done = False
        #: Submissions handed to the writer pool but not yet reaped —
        #: their chunk buffers must stay stable, and :meth:`commit`
        #: settles them before the header can claim durability.
        self._unreaped: list = []
        #: First error swallowed while settling submissions during
        #: :meth:`abort` (diagnostics only — the checkpoint is already
        #: being discarded when abort runs).
        self.abort_error: Optional[BaseException] = None

    @property
    def bytes_written(self) -> int:
        """Payload bytes submitted so far (durable once committed)."""
        return self._written

    @property
    def pending_submissions(self) -> int:
        """Chunk submissions in flight (submitted, not yet reaped)."""
        return len(self._unreaped)

    def write_chunk(self, chunk: Buffer) -> None:
        """Write the next consecutive piece of the payload (blocking until
        the write returns; durable once :meth:`commit` fenced it).

        Chunks may be scattered in DRAM but land at consecutive offsets in
        the slot (§3.1: "all the checkpoint's chunks are ordered and
        written to consecutive addresses on persistent storage").  Any
        C-contiguous buffer is accepted and never re-materialized as
        ``bytes`` — the writer threads slice a memoryview of it.

        ``reap(submit([chunk]))``: even the blocking call computes the
        CRC while the pool writes.
        """
        self.reap(self.submit([chunk]))

    def write_inline(self, chunk: Buffer) -> None:
        """:meth:`write_chunk` on the calling thread, for a payload too
        small to repay the writer pool's wake-ups: CRC the piece, then
        :meth:`ParallelWriter.write` it — ONE device write on a
        ``single``-fence device, the ``p`` fenced shares on PMEM."""
        if self._done:
            raise EngineError("ticket already committed or aborted")
        view = as_view(chunk)
        length = len(view)
        offset = self._engine._payload_at(self, length)
        self._crc = payload_crc(view, self._crc)
        self._engine._writer.write(offset, view)
        self._written += length

    def submit(self, chunks: Sequence[Buffer]) -> "PersistSubmission":
        """Queue the next consecutive pieces as ONE writer batch and CRC
        them while they write.

        The pieces land back-to-back at the slot's next offsets and go to
        the writer pool in one batched submission; the running payload
        CRC is folded in *while* the pool writes
        (:func:`~repro.core.meta.payload_crc` drops the GIL), and the
        submission comes back unreaped.
        The caller must keep every chunk's buffer stable until
        :meth:`reap` (the orchestrator holds the staging buffer of chunk
        *k−1* exactly this long, so its CRC of chunk *k* overlaps the
        device writes of chunk *k−1*).  Nothing is fenced per chunk:
        :meth:`commit` reaps anything still outstanding and then, in
        ``single`` fence mode, issues ONE fence covering the whole
        payload, its header and the commit record — which is also how
        the service's coalescing path turns K small checkpoints into a
        single fsync.
        """
        if self._done:
            raise EngineError("ticket already committed or aborted")
        views = [as_view(chunk) for chunk in chunks]
        submission = self._engine._submit_chunk_batch(self, views)
        self._unreaped.append(submission)
        crc_start = time.monotonic()
        for view in views:
            self._crc = payload_crc(view, self._crc)
            self._written += len(view)
        self._engine._record_overlap(submission, crc_start, time.monotonic())
        return submission

    def reap(self, submission: "PersistSubmission") -> None:
        """Settle a :meth:`submit`: wait until its writes returned.

        Re-raises the first share failure; afterwards the chunks' buffers
        may be recycled.  No fence — the bytes become durable at
        :meth:`commit`.  Idempotent per submission.
        """
        self._unreaped = [
            pending for pending in self._unreaped if pending is not submission
        ]
        self._engine._writer.reap(submission)

    def commit(self) -> CheckpointResult:
        """Finish the checkpoint: write the header, run the CAS protocol,
        publish the commit record.

        Any chunk submissions still in flight are reaped first.  In
        ``single`` fence mode ONE fence after the CAS covers the commit
        record, the header and the whole payload, and the result is
        returned only once it did.  ``per-thread`` (PMEM) keeps Listing
        1's three persists: payload shares, header, record.
        """
        if self._done:
            raise EngineError("ticket already committed or aborted")
        while self._unreaped:
            self.reap(self._unreaped[0])
        self._done = True
        return self._engine._commit(self, self._crc)

    def abort(self) -> None:
        """Give the slot back without committing (e.g. snapshot failed)."""
        if self._done:
            return
        self._done = True
        # Settle in-flight submissions so no pool worker still references
        # the chunk buffers after the slot is recycled; their errors are
        # moot — the checkpoint is being thrown away — but the first one
        # stays visible on the ticket for diagnostics.
        for submission in self._unreaped:
            try:
                self._engine._writer.reap(submission)
            except Exception as exc:
                if self.abort_error is None:
                    self.abort_error = exc
        self._unreaped = []
        self._engine._abort_ticket(self)


class CheckpointEngine:
    """Concurrent checkpoint engine over a formatted device region."""

    def __init__(
        self,
        layout: DeviceLayout,
        writer_threads: int = 3,
        fence_mode: Optional[FenceMode] = None,
        recovered: Optional[CheckMeta] = None,
        post_cas_hook=None,
        slot_custodian=None,
        sanitize: Optional[bool] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        """``post_cas_hook(meta)`` runs after a successful CAS and the
        commit's fence, but *before* the superseded slot is
        recycled — the exact point where the paper's distributed protocol
        performs its rank-0 coordination round (§4.1, "Checkpointing in
        Distributed Training").  A hook that raises does NOT leak the
        superseded slot: the engine moves it into the held-slot registry
        (see :meth:`held_slots`) and re-raises after finishing the
        ticket's accounting, so the caller can later recycle it with
        :meth:`release_held_slot` / :meth:`reclaim_held_slots` once the
        group agrees the round is dead.

        ``slot_custodian`` pipelines the §4.1 hold: an object whose
        ``take_superseded(meta, slot)`` is called (after the hook) with
        the superseded slot already registered as *held*.  Returning
        True transfers custody — the custodian must eventually call
        :meth:`release_held_slot`; returning False recycles the slot
        immediately, as if no custodian were present.  This is how the
        distributed coordinator defers slot recycling until the group's
        coordination round completes without blocking the committing
        thread.

        ``sanitize`` enables the runtime invariant sanitizer
        (:mod:`repro.core.sanitize`); ``None`` defers to the
        ``REPRO_SANITIZE`` environment variable.

        ``metrics``/``tracer`` attach the observability layer; a private
        registry and the no-op tracer are used when omitted, so the
        engine is always safe to instrument unconditionally.
        """
        self._layout = layout
        self._writer = ParallelWriter(
            layout.device, num_threads=writer_threads, fence_mode=fence_mode
        )
        if sanitize is None:
            sanitize = sanitize_requested()
        # Counters resume past every record the region holds, valid or
        # not: a crash can leave a durable header (or commit record) of
        # a checkpoint recovery refused, and its counter must never be
        # issued a second time.
        initial = max(
            recovered.counter if recovered else 0, layout.highest_counter()
        )
        if sanitize:
            self._sanitizer: Optional[EngineSanitizer] = EngineSanitizer(
                layout.num_slots, recovered=recovered
            )
            self._g_counter: AtomicCounter = SanitizedAtomicCounter(
                initial, self._sanitizer
            )
            self._check_addr: AtomicReference[CheckMeta] = (
                SanitizedAtomicReference(recovered, self._sanitizer)
            )
            self._free: SlotQueue = SanitizedSlotQueue(
                layout.num_slots, self._sanitizer
            )
        else:
            self._sanitizer = None
            self._g_counter = AtomicCounter(initial)
            self._check_addr = AtomicReference(recovered)
            self._free = SlotQueue(layout.num_slots)
        committed_slot = recovered.slot if recovered else None
        for slot in range(layout.num_slots):
            if slot != committed_slot:
                self._free.enqueue(slot)
        self._commit_write_lock = threading.Lock()
        self._last_written_counter = recovered.counter if recovered else 0
        self._post_cas_hook = post_cas_hook
        self._slot_custodian = slot_custodian
        # Superseded slots held across a coordination round (§4.1):
        # slot -> counter of the superseding ticket.  Held slots are in
        # neither the free queue nor any ticket; they are recycled by
        # release_held_slot / reclaim_held_slots.
        self._held_lock = threading.Lock()
        self._held_slots: dict = {}
        self._closed = False
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # Every series a checkpoint touches, bound once: the commit path
        # never sorts a label set or takes the registry lock.
        m = self._metrics
        self._m = SimpleNamespace(
            requested=m.counter(M.CHECKPOINTS_REQUESTED),
            commits=m.counter(M.COMMITS),
            superseded=m.counter(M.SUPERSEDED),
            aborted=m.counter(M.ABORTED),
            dangling=m.counter(M.DANGLING),
            cas_retries=m.counter(M.CAS_RETRIES),
            bytes_persisted=m.counter(M.BYTES_PERSISTED),
            slot_wait=m.counter(M.SLOT_WAIT_SECONDS),
            overlap=m.counter(M.PIPELINE_OVERLAP_SECONDS),
            free_slots=m.gauge(M.FREE_SLOTS),
            held_slots=m.gauge(M.HELD_SLOTS),
            held_reclaimed=m.counter(M.HELD_SLOTS_RECLAIMED),
            commit_seconds=m.histogram(M.STAGE_SECONDS, stage="commit"),
            checkpoint_seconds=m.histogram(M.CHECKPOINT_SECONDS),
        )
        #: The error of a fence that failed after a CAS had published its
        #: checkpoint in memory; from then on the engine is defunct.
        self._fence_error: Optional[BaseException] = None
        self._m.free_slots.follow(lambda: len(self._free))
        # Fixed at format time: a commit indexes these, never the layout.
        slots = range(layout.num_slots)
        self._device = layout.device
        self._header_offsets = [layout.slot_offset(s) for s in slots]
        self._payload_offsets = [layout.payload_offset(s) for s in slots]
        self._commit_offset = layout.commit_offset
        self._capacity = layout.payload_capacity
        self._single_fence = self._writer.fence_mode == "single"

    # ------------------------------------------------------------------
    # public API

    @property
    def layout(self) -> DeviceLayout:
        """The formatted region this engine writes to."""
        return self._layout

    @property
    def max_concurrent(self) -> int:
        """N: slots minus the always-reserved committed one."""
        return self._layout.num_slots - 1

    @property
    def writer_threads(self) -> int:
        """p: writer threads per persist."""
        return self._writer.num_threads

    @property
    def sanitizing(self) -> bool:
        """True when the runtime invariant sanitizer is active."""
        return self._sanitizer is not None

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this engine reports into."""
        return self._metrics

    @property
    def tracer(self):
        """The lifecycle tracer (``NULL_TRACER`` when tracing is off)."""
        return self._tracer

    @property
    def free_slots(self) -> int:
        """Slots currently in the free queue.

        Racy while checkpoints are in flight; exact at quiescence, where
        invariant 4 demands ``num_slots - 1`` once anything committed
        (the crashsweep harness checks exactly that).
        """
        return len(self._free)

    @property
    def held_slots(self) -> tuple:
        """Superseded slots held across a coordination round (§4.1).

        Non-empty only while a distributed round is in flight (the
        custodian deferred recycling) or after a ``post_cas_hook``
        failure left a slot awaiting explicit reclaim.
        """
        with self._held_lock:
            return tuple(sorted(self._held_slots))

    def release_held_slot(self, slot: int) -> None:
        """Recycle one held superseded slot (its round completed).

        Raises :class:`~repro.errors.EngineError` when ``slot`` is not
        currently held — double releases would corrupt invariant 3.
        """
        with self._held_lock:
            if slot not in self._held_slots:
                raise EngineError(
                    f"slot {slot} is not held across a coordination round"
                )
            del self._held_slots[slot]
            remaining = len(self._held_slots)
        self._m.held_slots.set(remaining)
        # Custody already counted as the superseding ticket's one slot
        # return (invariant 3), so this enqueue is attributed to no ticket.
        self._release_slot(slot, ticket_counter=None)

    def reclaim_held_slots(self) -> int:
        """Recycle every held slot; returns how many were reclaimed.

        Called once the group agrees the coordination round(s) the slots
        were held for can never become globally consistent (a peer died).
        The slots' payloads stay durable and recoverable until a later
        checkpoint overwrites them.
        """
        with self._held_lock:
            slots = list(self._held_slots)
            self._held_slots.clear()
        self._m.held_slots.set(0)
        if slots:
            self._m.held_reclaimed.inc(len(slots))
        for slot in slots:
            self._release_slot(slot, ticket_counter=None)
        return len(slots)

    def _hold_superseded(self, counter: int, slot: int) -> None:
        """Move a superseded slot into the held registry.

        Registering custody counts as the superseding ticket's one slot
        return (invariant 3): the later physical enqueue is attributed
        to no ticket.
        """
        with self._held_lock:
            self._held_slots[slot] = counter
            held = len(self._held_slots)
        if self._sanitizer is not None:
            self._sanitizer.on_release(counter, slot)
        self._m.held_slots.set(held)

    def committed(self) -> Optional[CheckMeta]:
        """Metadata of the current recovery point (in-memory CHECK_ADDR)."""
        if self._sanitizer is not None:
            # Sample the shadow flag first: a commit landing between the
            # load below and the assertion must not look like a violation.
            expect_commit = self._sanitizer.ever_committed
            meta = self._check_addr.load()
            self._sanitizer.assert_recovery_point(
                meta, expect_commit=expect_commit
            )
            return meta
        return self._check_addr.load()

    def checkpoint(self, payload: Buffer, step: int = 0) -> CheckpointResult:
        """One-shot checkpoint of ``payload`` (Listing 1 end to end)."""
        self._m.requested.inc()
        started = time.monotonic()
        root = self._tracer.begin("checkpoint", step=step)
        ticket = self.begin(step=step)
        ticket.trace_parent = root
        root.set(counter=ticket.counter, slot=ticket.slot)
        try:
            with self._tracer.span("persist", parent=root):
                ticket.write_chunk(payload)
        except CrashedDeviceError:
            # Power loss leaves the ticket dangling — the slot is
            # reclaimed only by post-restart recovery, as on hardware.
            self._m.dangling.inc()
            self._tracer.end(root, status=STATUS_DANGLING)
            raise
        except BaseException:
            # Validation failures (OutOfSpaceError fires before any
            # device mutation) and other local errors must recycle the
            # slot, or each failed call permanently eats one of the N+1
            # slots (invariant 4).  Recycling is safe even after partial
            # payload writes: without a slot header the data can never
            # validate.
            ticket.abort()
            self._tracer.end(root, status=STATUS_ABORTED)
            raise
        try:
            result = ticket.commit()
        except CrashedDeviceError:
            self._m.dangling.inc()
            self._tracer.end(root, status=STATUS_DANGLING)
            raise
        except BaseException:
            self._tracer.end(root, status=STATUS_ABORTED)
            raise
        status = STATUS_COMMITTED if result.committed else STATUS_SUPERSEDED
        self._tracer.end(root, status=status)
        self._m.checkpoint_seconds.observe(time.monotonic() - started)
        return result

    def begin(
        self, step: int = 0, timeout: Optional[float] = None
    ) -> CheckpointTicket:
        """Reserve a counter and a free slot for a streaming checkpoint.

        Lines 2–11 of Listing 1: sample the committed checkpoint is done
        inside :meth:`_commit` (the CAS needs a fresh expected value per
        retry); here we draw the counter and busy-wait on the free queue.
        Blocks while all slots are held by in-flight checkpoints; with a
        ``timeout``, raises :class:`~repro.errors.SlotWaitTimeout` once it
        expires.
        """
        if self._closed or self._fence_error is not None:
            self._check_alive()
        counter = self._g_counter.add_fetch(1)
        start = time.monotonic()
        slot = self._free.dequeue_blocking(timeout)
        self._m.slot_wait.inc(time.monotonic() - start)
        if slot == EMPTY:
            window = "" if timeout is None else f" within {timeout:g} seconds"
            raise SlotWaitTimeout(
                f"no free checkpoint slot{window} "
                f"(all {self.max_concurrent} concurrent checkpoints busy)"
            )
        if self._sanitizer is not None:
            self._sanitizer.on_begin(counter, slot)
        return CheckpointTicket(self, counter, slot, step=step)

    def close(self) -> None:
        """Refuse further checkpoints (in-flight tickets may still finish).

        The pooled writer threads are shut down; a ticket still persisting
        after this point falls back to inline writes with identical fence
        semantics, so late ``write_chunk``/``commit`` calls keep working.
        """
        self._closed = True
        self._writer.close()

    def __enter__(self) -> "CheckpointEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internal protocol steps

    def _check_alive(self) -> None:
        if self._fence_error is not None:
            raise EngineClosedError(
                "a commit fence failed after its CAS; the engine is "
                "defunct — reopen the region to recover"
            ) from self._fence_error
        if self._closed:
            raise EngineClosedError("checkpoint engine is closed")

    def _payload_at(self, ticket: CheckpointTicket, length: int) -> int:
        """Device offset of ``ticket``'s next ``length`` payload bytes;
        :class:`~repro.errors.OutOfSpaceError`, before anything is
        written, when they would overflow the slot."""
        end = ticket._written + length  # noqa: SLF001
        if end > self._capacity:
            raise OutOfSpaceError(
                f"checkpoint of >= {end} bytes exceeds slot payload "
                f"capacity {self._capacity}"
            )
        return self._payload_offsets[ticket.slot] + ticket._written  # noqa: SLF001

    def _submit_chunk_batch(
        self, ticket: CheckpointTicket, views
    ) -> PersistSubmission:
        """Queue consecutive pieces to the pool as ONE batched submission.

        Capacity is validated for the whole batch up front — either every
        piece fits the slot or nothing is queued — so a failed batch
        aborts as cleanly as a failed single chunk.  Write errors are not
        observable until the ticket reaps, and on a ``single``-fence
        device nothing is durable until the commit's covering fence.
        """
        offset = self._payload_at(ticket, sum(len(view) for view in views))
        pieces = []
        for view in views:
            pieces.append((offset, view))
            offset += len(view)
        return self._writer.submit(pieces)

    def _record_overlap(
        self, submission: PersistSubmission, crc_start: float, crc_end: float
    ) -> None:
        """Credit CRC time that ran while the submission's writes were in
        flight to M.PIPELINE_OVERLAP_SECONDS.

        The overlap window is the intersection of the CRC interval with
        the submission's device-write interval: writes still pending at
        ``crc_end`` mean the whole CRC ran under them; writes that
        settled at ``done_at`` cap the credit there.  Submissions to a
        closed pool write after the CRC and overlap nothing.
        """
        if submission.batch is None:
            return
        done_at = submission.done_at
        end = crc_end if done_at is None else min(crc_end, done_at)
        overlap = end - crc_start
        if overlap > 0:
            self._m.overlap.inc(overlap)

    def _commit(self, ticket: CheckpointTicket, crc: int) -> CheckpointResult:
        span = self._tracer.begin(
            "commit",
            parent=ticket.trace_parent,
            counter=ticket.counter,
            slot=ticket.slot,
        )
        start = time.monotonic()
        try:
            result = self._commit_inner(ticket, crc)
        except CrashedDeviceError:
            self._tracer.end(span, status=STATUS_DANGLING)
            raise
        self._m.commit_seconds.observe(time.monotonic() - start)
        self._tracer.end(
            span,
            status=STATUS_COMMITTED if result.committed else STATUS_SUPERSEDED,
        )
        return result

    def _commit_inner(
        self, ticket: CheckpointTicket, crc: int
    ) -> CheckpointResult:
        if self._fence_error is not None:
            # An earlier post-CAS fence failed: nothing more this engine
            # publishes can be trusted durable.  Dangle, as on power loss.
            raise CrashedDeviceError(
                "commit refused: an earlier commit fence failed after its "
                "CAS"
            ) from self._fence_error
        meta = CheckMeta(
            counter=ticket.counter,
            slot=ticket.slot,
            payload_len=ticket._written,  # noqa: SLF001
            payload_crc=crc,
            step=ticket.step,
        )
        # Lines 16-18: the header that "points to this data".  On PMEM
        # every payload share already fenced itself and the header is
        # persisted before CHECK_ADDR may reference it.  On a single-fence
        # device the commit's covering fence hardens payload, header and
        # record at once (module docstring).
        header_offset = self._header_offsets[ticket.slot]
        self._device.write(header_offset, encode_slot_header(meta))
        if self._single_fence:
            fence_end = self._payload_offsets[ticket.slot] + meta.payload_len
        else:
            self._device.persist(header_offset, RECORD_SIZE)
            fence_end = self._commit_offset + RECORD_SIZE

        # Lines 19-34: CAS retry loop on CHECK_ADDR.
        last_check = self._check_addr.load()
        while True:
            if last_check is not None and last_check.counter > meta.counter:
                # A newer checkpoint is already committed: ours is obsolete.
                # Line 30: barrier on CHECK_ADDR, then recycle our own slot.
                self._persist_commit_record_barrier()
                self._release_slot(ticket.slot, ticket_counter=meta.counter)
                if self._sanitizer is not None:
                    self._sanitizer.on_ticket_done(
                        meta.counter, first_commit=False
                    )
                self._m.superseded.inc()
                return CheckpointResult(
                    counter=meta.counter,
                    slot=ticket.slot,
                    committed=False,
                    payload_len=meta.payload_len,
                )
            if self._check_addr.compare_and_swap(last_check, meta):
                # Line 22-25: success — persist CHECK_ADDR durably, then
                # hand the superseded checkpoint's slot back to the queue
                # (or a coordination custodian, §4.1).
                self._write_commit_record(meta, fence_end)
                self._m.bytes_persisted.inc(meta.payload_len)
                superseded = last_check.slot if last_check is not None else None
                try:
                    if self._post_cas_hook is not None:
                        self._post_cas_hook(meta)
                except BaseException:
                    # The commit IS durable but the coordination round
                    # failed mid-flight.  Hold the superseded slot for
                    # explicit reclaim instead of leaking it, finish the
                    # ticket's accounting, then surface the hook's error.
                    if superseded is not None:
                        self._hold_superseded(meta.counter, superseded)
                    if self._sanitizer is not None:
                        self._sanitizer.on_ticket_done(
                            meta.counter, first_commit=last_check is None
                        )
                    self._m.commits.inc()
                    raise
                if superseded is not None and self._slot_custodian is None:
                    # Listing 1 line 25: straight back to the queue.
                    self._release_slot(superseded, ticket_counter=meta.counter)
                elif superseded is not None:
                    self._hand_off_superseded(meta, superseded)
                if self._sanitizer is not None:
                    self._sanitizer.on_ticket_done(
                        meta.counter, first_commit=last_check is None
                    )
                self._m.commits.inc()
                return CheckpointResult(
                    counter=meta.counter,
                    slot=ticket.slot,
                    committed=True,
                    payload_len=meta.payload_len,
                )
            # CAS failed: someone moved CHECK_ADDR. Re-sample and decide.
            self._m.cas_retries.inc()
            last_check = self._check_addr.load()

    def _hand_off_superseded(self, meta: CheckMeta, slot: int) -> None:
        """Offer the superseded slot to the custodian after a won CAS.

        Custody is registered *before* asking — a racing round completion
        may release the held slot the instant ``take_superseded`` returns
        True — and withdrawn again, recycling the slot, when the
        custodian declines.
        """
        self._hold_superseded(meta.counter, slot)
        deferred = False
        try:
            deferred = bool(self._slot_custodian.take_superseded(meta, slot))
        finally:
            if not deferred:
                # Declined (or the custodian raised): the provisional
                # hold is withdrawn and the slot recycled now.  A raise
                # propagates to the caller after the recycle.
                self.release_held_slot(slot)

    def _write_commit_record(self, meta: CheckMeta, fence_end: int) -> None:
        """Durably publish ``meta`` as the commit record: write it, then
        ONE fence over ``[commit_offset, fence_end)`` — the record alone
        on PMEM, record + header + payload on a single-fence device.

        On hardware the CAS itself is the 8-byte PMEM pointer store, so a
        later CAS necessarily lands after an earlier one.  Our emulated
        CAS and the device write are separate steps, so a lock plus a
        monotonicity check reproduces the hardware ordering: a record for
        counter ``k`` is never overwritten by one for ``k' < k``.

        The CAS already made ``meta`` the in-memory recovery point, so a
        device error here cannot be undone: the engine goes defunct and
        raises :class:`~repro.errors.CrashedDeviceError`, so every caller
        handles it as power loss — no ack, neither slot recycled, and
        reopening the region recovers whatever is durable.
        """
        commit = self._commit_offset
        with self._commit_write_lock:
            # A newer commit may already have reached the device (our
            # in-memory CAS was immediately superseded): fence only.
            newer_on_device = meta.counter <= self._last_written_counter
            try:
                if not newer_on_device:
                    self._device.write(commit, encode_commit_record(meta))
                # The fence MUST stay inside the lock: it stands in for
                # the hardware CAS-store ordering.
                # pclint: disable=PC001
                self._device.persist(commit, fence_end - commit)
            except CrashedDeviceError:
                raise
            except Exception as exc:
                self._fence_error = exc
                raise CrashedDeviceError(
                    f"commit fence on {self._device.name} failed "
                    f"after the CAS ({exc!r}); the checkpoint dangles as "
                    f"on power loss"
                ) from exc
            if not newer_on_device:
                self._last_written_counter = meta.counter

    def _persist_commit_record_barrier(self) -> None:
        """Line 30's BARRIER(CHECK_ADDR): make sure the committed record
        that superseded us is durable before our slot is recycled."""
        with self._commit_write_lock:
            # Same deliberate fence-inside-lock as _write_commit_record:
            # the lock emulates the hardware CAS-store ordering.
            # pclint: disable=PC001
            self._device.persist(self._commit_offset, RECORD_SIZE)

    def _release_slot(
        self, slot: int, ticket_counter: Optional[int] = None
    ) -> None:
        if self._sanitizer is not None:
            self._sanitizer.on_release(ticket_counter, slot)
        self._free.enqueue(slot)

    def _abort_ticket(self, ticket: CheckpointTicket) -> None:
        self._release_slot(ticket.slot, ticket_counter=ticket.counter)
        if self._sanitizer is not None:
            self._sanitizer.on_ticket_done(ticket.counter, first_commit=False)
        self._m.aborted.inc()
