"""Parallel persist: a persistent pool of ``p`` writer threads.

PCcheck shortens the persist phase by splitting each checkpoint (or chunk)
across multiple writer threads (§3.3, §5.4.2: 3 threads give up to 1.36×
over 1).  The fence discipline differs per medium, and the paper is
explicit about it (§4.1):

* **PMEM** — "every thread must also call a ``fence()`` within the
  ``persist`` function.  The fence is internal to each CPU, meaning that
  the main thread ... cannot call a fence to cover all data": each writer
  persists its own range (``fence_mode="per-thread"``).
* **SSD** — "the main thread can call a single ``msync()`` with the
  checkpoint address and persist the data, improving performance"
  (``fence_mode="single"``).

:func:`default_fence_mode` picks the right discipline for a device.

Two properties keep this path at device speed:

* **Zero-copy shares.**  Payloads are normalized to a ``memoryview`` once
  (:func:`repro.storage.device.as_view`) and each writer receives an O(1)
  slice of that view — the old per-share ``payload[lo:hi]`` ``bytes``
  copies are gone.
* **A pinned worker pool.**  The ``p`` writer threads are spawned lazily,
  on the first pooled submission, and live for the writer's lifetime,
  taking work over a condition variable instead of paying a
  ``threading.Thread`` spawn/join per persist call.  Concurrent
  ``persist`` calls (one per in-flight checkpoint pipeline) interleave
  their shares on the same pool; each call tracks its own completion.
  The pool serves the chunks of pipelined checkpoints, one-chunk
  payloads above the orchestrator's inline bound
  (:data:`repro.core.orchestrator.INLINE_WRITE_MAX_BYTES`) — submitted
  one piece of that size at a time, as each is staged — the service's
  batches and restore reads.  A smaller one-chunk payload goes through
  :meth:`ParallelWriter.write` on the checkpoint's own thread, so a
  process that only takes such checkpoints never starts a writer thread.

Writer threads propagate exceptions (including injected crashes) to the
calling ``persist``, so a power-loss mid-persist kills the checkpoint
exactly as it would in the real system — a worker survives the exception
and stays available for later work (the device, not the pool, is what
died).

The write path has two verbs.  :meth:`ParallelWriter.submit` queues ALL
shares of a batch of ``(offset, payload)`` pieces to the pool under one
lock acquisition and returns immediately (io_uring-style);
:meth:`ParallelWriter.reap` waits once for the whole batch — every
share's write has returned, so the caller may recycle the buffers — and
issues no fence.  In ``single`` mode durability is the caller's one
covering fence: the engine's commit fences a whole checkpoint's payload
with ONE ``persist`` over ``[payload_offset(slot), +len)``, however many
chunks it was submitted in.  The engine holds a submission open to
overlap CRC compute of chunk *k* with the device writes of chunk *k−1*;
:meth:`ParallelWriter.persist` is the blocking verb for one piece —
write, then its own covering fence.

The same pool runs in the other direction for recovery:
:meth:`ParallelWriter.submit_read` queues one ``readinto`` of a payload
chunk into the caller's buffer, and the worker that filled the chunk
CRCs it while it is still in cache; :meth:`~ParallelWriter.reap` waits
for it and hands that CRC back on the ticket, so the restoring thread
only combines chunk CRCs — one pool implementation, two directions.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, List, Literal, Optional, Sequence, Tuple

from repro.core.meta import payload_crc
from repro.errors import EngineError
from repro.storage.device import Buffer, PersistentDevice, as_view
from repro.storage.pmem import SimulatedPMEM

FenceMode = Literal["per-thread", "single"]


def default_fence_mode(device: PersistentDevice) -> FenceMode:
    """Fence discipline the paper prescribes for this device type."""
    if isinstance(device, SimulatedPMEM):
        return "per-thread"
    return "single"


def split_range(
    length: int, parts: int, align: int = 1
) -> List[Tuple[int, int]]:
    """Split ``[0, length)`` into up to ``parts`` contiguous shares.

    Shares differ in size by at most one byte (one ``align`` unit when an
    alignment is given); zero-length shares are dropped, so fewer than
    ``parts`` tuples come back for tiny payloads.

    ``align > 1`` rounds every interior share boundary down to a multiple
    of ``align`` (the final share still ends at ``length``), so devices
    with sector or stripe granularity — unbuffered files, striped
    composites — never see one sector split between two writer threads.
    """
    if parts <= 0:
        raise EngineError(f"need at least one writer, got {parts}")
    if length < 0:
        raise EngineError(f"negative length {length}")
    if align <= 0:
        raise EngineError(f"share alignment must be positive, got {align}")
    if align > 1:
        # Split whole align-units; the tail unit may be short.
        units = -(-length // align)
        unit_shares = split_range(units, parts)
        return [
            (lo * align, min(hi * align, length)) for lo, hi in unit_shares
        ]
    base, extra = divmod(length, parts)
    shares: List[Tuple[int, int]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        if size > 0:
            shares.append((start, start + size))
        start += size
    return shares


class _PersistBatch:
    """Completion tracker for one :meth:`ParallelWriter.submit` batch.

    Shares from many concurrent batches interleave on the pool; each
    batch counts down its own outstanding shares and collects the errors
    its shares raised, so failure propagation stays per-call exactly as
    it was with per-call thread spawning.
    """

    __slots__ = ("_lock", "_pending", "done", "errors", "done_at", "crc")

    def __init__(self, pending: int) -> None:
        self._lock = threading.Lock()
        self._pending = pending
        self.done = threading.Event()
        self.errors: List[BaseException] = []
        #: ``time.monotonic()`` at which the last share settled — lets the
        #: engine measure how much CRC compute genuinely overlapped the
        #: device writes (M.PIPELINE_OVERLAP_SECONDS).
        self.done_at: Optional[float] = None
        #: CRC32 of the bytes a read share filled; ``None`` for writes.
        self.crc: Optional[int] = None

    def share_finished(
        self, error: Optional[BaseException], crc: Optional[int] = None
    ) -> None:
        with self._lock:
            if error is not None:
                self.errors.append(error)
            if crc is not None:
                self.crc = crc
            self._pending -= 1
            if self._pending == 0:
                self.done_at = time.monotonic()
                self.done.set()


class _ShareTask:
    """One pool share: a zero-copy slice of a payload view, written to
    the device — or, with ``read`` set, filled from it."""

    __slots__ = ("offset", "view", "lo", "hi", "fence", "batch", "read")

    def __init__(
        self,
        offset: int,
        view: memoryview,
        lo: int,
        hi: int,
        fence: bool,
        batch: _PersistBatch,
        read: bool = False,
    ) -> None:
        self.offset = offset
        self.view = view
        self.lo = lo
        self.hi = hi
        self.fence = fence
        self.batch = batch
        self.read = read


class PersistSubmission:
    """Ticket for one in-flight :meth:`ParallelWriter.submit` batch.

    Until :meth:`ParallelWriter.reap` returns the pool may still be
    writing, so the payload views must stay stable; after it returns the
    bytes are written but, in ``single`` fence mode, not yet durable —
    that takes the caller's covering fence.  The caller is free to do CPU
    work (CRC, staging the next chunk) in between — that window is
    exactly the pipeline overlap the engine measures.
    """

    __slots__ = (
        "batch", "shares", "total", "reaped", "read", "crc", "_settled"
    )

    def __init__(
        self,
        batch: Optional[_PersistBatch],
        shares: Sequence[Tuple[int, memoryview, int, int]],
        total: int,
        read: bool = False,
    ) -> None:
        #: Completion tracker; ``None`` when the shares run inline on the
        #: reaping thread (submitted after the pool closed) or the batch
        #: was empty.
        self.batch = batch
        self.shares = shares
        self.total = total
        self.reaped = False
        #: Submissions after close only: set once reap ran every share.
        self._settled = False
        #: True for a :meth:`ParallelWriter.submit_read` ticket: its
        #: shares fill their views from the device, and reap has nothing
        #: to fence or count as persisted.
        self.read = read
        #: Read tickets only: CRC32 of the filled buffer, set by reap.
        self.crc: Optional[int] = None

    @property
    def writes_done(self) -> bool:
        """True once every share settled.  Pooled shares settle on their
        own, before reap; shares submitted after close run inside reap,
        so only then."""
        if self.batch is not None:
            return self.batch.done.is_set()
        return self.total == 0 or self._settled

    @property
    def done_at(self) -> Optional[float]:
        """Monotonic time the last device write settled, if known."""
        return None if self.batch is None else self.batch.done_at


class ParallelWriter:
    """Persist payloads through a pinned pool of ``p`` writer threads."""

    def __init__(
        self,
        device: PersistentDevice,
        num_threads: int,
        fence_mode: Optional[FenceMode] = None,
    ) -> None:
        if num_threads <= 0:
            raise EngineError(f"need at least one writer thread, got {num_threads}")
        self._device = device
        self._num_threads = num_threads
        self._fence_mode: FenceMode = fence_mode or default_fence_mode(device)
        self._share_align = max(1, device.preferred_align)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue: Deque[_ShareTask] = deque()
        self._workers: List[threading.Thread] = []
        self._closed = False
        self.bytes_persisted = 0
        #: Total worker threads ever created — stays <= ``num_threads``
        #: for the writer's whole life (the pool is reused, not respawned).
        self.threads_started = 0

    @property
    def num_threads(self) -> int:
        """Writer threads servicing persist calls (the parameter ``p``)."""
        return self._num_threads

    @property
    def fence_mode(self) -> FenceMode:
        """Active fence discipline."""
        return self._fence_mode

    @property
    def pool_size(self) -> int:
        """Live pooled workers (0 until the first pooled submission)."""
        with self._work:
            return len(self._workers)

    @property
    def closed(self) -> bool:
        """True after :meth:`close`; persists then run inline."""
        with self._work:
            return self._closed

    # ------------------------------------------------------------------
    # persist API

    def persist(self, offset: int, payload: Buffer) -> None:
        """Durably write ``payload`` at ``offset``.

        Splits the payload across the writer threads; on return every byte
        is persisted (each thread fenced its range, or — in ``single``
        mode — one fence after the reap covered all of them).  Any thread
        failure is re-raised.
        ``payload`` may be any C-contiguous buffer — shares are memoryview
        slices, never copies.
        """
        view = as_view(payload)
        length = len(view)
        if len(split_range(length, self._num_threads, self._share_align)) > 1:
            self.reap(self.submit([(offset, view)]))
        else:  # one share: no hand-off overhead, same semantics
            self.write(offset, view)
        if length and self._fence_mode == "single":
            self._device.persist(offset, length)

    def write(self, offset: int, view: memoryview) -> None:
        """Write ``view`` at ``offset`` on the calling thread, no pool.

        On a ``single``-fence device it is ONE device write and nothing
        is fenced — the caller's covering fence makes it durable;
        ``per-thread`` devices (PMEM) keep the ``p`` shares, each written
        and fenced in order.  For a payload too small to repay the pool's
        hand-off; errors raise here.
        """
        length = len(view)
        if not length:
            return
        if self._fence_mode == "single":
            self._device.write(offset, view)
        else:
            for share in split_range(
                length, self._num_threads, self._share_align
            ):
                self._write_share(offset, view, share, True)
        self._count(length)

    def submit(self, pieces: Sequence[Tuple[int, Buffer]]) -> PersistSubmission:
        """Queue a batch of ``(offset, payload)`` pieces to the pool.

        Every share of every piece is enqueued under a single lock
        acquisition with a single ``notify_all`` — io_uring-style batched
        submission instead of one wakeup per piece.  Returns immediately
        with a :class:`PersistSubmission`; nothing is durable (and errors
        are not observable) until :meth:`reap`.  After :meth:`close` the
        shares run on the reaping thread instead.
        """
        views = [(piece_offset, as_view(data)) for piece_offset, data in pieces]
        views = [(piece_offset, v) for piece_offset, v in views if len(v)]
        if not views:
            return PersistSubmission(None, (), 0)
        per_thread = self._fence_mode == "per-thread"
        total = sum(len(v) for _, v in views)
        shares = [
            (piece_offset, view, lo, hi)
            for piece_offset, view in views
            for lo, hi in split_range(
                len(view), self._num_threads, self._share_align
            )
        ]
        with self._work:
            if self._closed:
                # Pool is gone (engine closed): defer to reap, which runs
                # the shares inline in the caller's thread.
                return PersistSubmission(None, shares, total)
            batch = _PersistBatch(len(shares))
            self._ensure_workers()
            for piece_offset, view, lo, hi in shares:
                self._queue.append(
                    _ShareTask(piece_offset, view, lo, hi, per_thread, batch)
                )
            self._work.notify_all()
        return PersistSubmission(batch, shares, total)

    def submit_read(self, offset: int, dest: Buffer) -> PersistSubmission:
        """Queue ONE ``readinto(offset, dest)`` to the pool — the read
        direction of :meth:`submit`.

        Not split into shares: the restore path already cuts the payload
        into chunks.  The worker that reads a chunk also CRCs it, and
        :meth:`reap` exposes that as ``submission.crc`` — the caller
        combines chunk CRCs (:func:`~repro.core.meta.crc32_combine`)
        instead of scanning the bytes again.  ``dest`` must stay alive
        and untouched until :meth:`reap` returns.
        """
        view = as_view(dest)
        shares = ((offset, view, 0, len(view)),)
        with self._work:
            if self._closed:
                return PersistSubmission(None, shares, len(view), True)
            batch = _PersistBatch(1)
            self._ensure_workers()
            self._queue.append(
                _ShareTask(offset, view, 0, len(view), False, batch, True)
            )
            self._work.notify()
        return PersistSubmission(batch, shares, len(view), True)

    def reap(self, submission: PersistSubmission) -> None:
        """Complete a :meth:`submit` batch: every share's write returned.

        Blocks until every share settled and re-raises the first share
        failure; afterwards no worker references the batch's views, so
        the caller may recycle its buffers.  Issues no fence: in
        ``single`` mode the bytes are written but not yet durable until
        the caller's covering ``persist`` (the engine's commit, or
        :meth:`persist`).  Idempotent — reaping twice is a no-op, so
        error-path cleanup can reap defensively.  A :meth:`submit_read`
        ticket does not count as persisted bytes; it gets its ``crc``.
        """
        if submission.reaped:
            return
        submission.reaped = True
        if submission.total == 0:
            return
        per_thread = self._fence_mode == "per-thread"
        crc: Optional[int] = None
        if submission.batch is None:
            # Submitted after close: same semantics, caller's thread.
            try:
                for piece_offset, view, lo, hi in submission.shares:
                    crc = self._run_share(
                        piece_offset, view, (lo, hi), per_thread,
                        submission.read,
                    )
            finally:
                submission._settled = True  # noqa: SLF001
        else:
            submission.batch.done.wait()
            if submission.batch.errors:
                raise submission.batch.errors[0]
            crc = submission.batch.crc
        if submission.read:
            submission.crc = crc
        else:
            self._count(submission.total)

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Workers drain any queued shares, then exit and are joined.
        Persist calls arriving afterwards still work — they execute
        inline in the caller's thread with identical fence semantics —
        so in-flight checkpoint tickets can finish after the engine
        closed, exactly as before the pool existed.
        """
        with self._work:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
            self._work.notify_all()
        for worker in workers:
            worker.join()
        with self._work:
            self._workers.clear()

    def __enter__(self) -> "ParallelWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # pool internals

    def _ensure_workers(self) -> None:
        # Caller holds self._work.  Spawned once, reused forever after.
        while len(self._workers) < self._num_threads:
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"pccheck-writer-{len(self._workers)}",
                daemon=True,
            )
            self._workers.append(worker)
            self.threads_started += 1
            worker.start()

    def _worker_loop(self) -> None:
        while True:
            with self._work:
                while not self._queue and not self._closed:
                    self._work.wait()
                if self._queue:
                    task = self._queue.popleft()
                else:  # closed and drained
                    # A failed share's traceback keeps this frame: it
                    # must not keep the last share's view alive too.
                    task = error = None
                    return
            error: Optional[BaseException] = None
            crc: Optional[int] = None
            try:
                crc = self._run_share(
                    task.offset, task.view, (task.lo, task.hi),
                    task.fence, task.read,
                )
            except BaseException as exc:  # noqa: BLE001 - propagate crash injection
                error = exc
            task.batch.share_finished(error, crc)

    def _run_share(
        self,
        offset: int,
        view: memoryview,
        share: Tuple[int, int],
        fence: bool,
        read: bool,
    ) -> Optional[int]:
        """Run one share; a read returns the CRC32 of what it filled."""
        if not read:
            self._write_share(offset, view, share, fence)
            return None
        lo, hi = share
        chunk = view[lo:hi]
        self._device.readinto(offset + lo, chunk)
        # The chunk is still in this core's cache and payload_crc drops
        # the GIL: checking it here spreads validation over the readers.
        return payload_crc(chunk)

    def _write_share(
        self,
        offset: int,
        view: memoryview,
        share: Tuple[int, int],
        fence: bool,
    ) -> None:
        lo, hi = share
        self._device.write(offset + lo, view[lo:hi])
        if fence:
            self._device.persist(offset + lo, hi - lo)

    def _count(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_persisted += nbytes

