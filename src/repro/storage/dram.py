"""Pinned DRAM buffer pool for checkpoint staging.

PCcheck stages checkpoint data in DRAM between the GPU copy and the
persistent write (§3.1, §3.3).  The staging area is a pool of ``c``
pinned buffers ("chunks") of ``b`` bytes each, where ``c = M / b`` for a
user DRAM budget of ``M`` (Table 2).  A chunk is:

1. acquired by a snapshot session,
2. filled by the GPU copy engine,
3. drained to persistent storage by writer threads, and
4. released back to the pool.

When every chunk is occupied, upcoming checkpoints wait — exactly the
throughput/memory trade-off of §3.2.  The pool therefore exposes blocking
acquisition with optional timeout, plus occupancy statistics so the
orchestrator can report stall time.

A buffer that stages :data:`HUGE_PAGE_BYTES` or more is backed by
transparent huge pages: an ``O_DIRECT`` write pins its source pages and
builds its bio from them, so a payload written from 2 MiB pages costs
the kernel far fewer pins and segments than one written from 4 KiB
pages (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import mmap
import threading
import time
from typing import List, Optional

from repro.errors import EngineError
from repro.obs.metrics import Counter, M, MetricsRegistry
from repro.storage.device import Buffer, as_view, copy_into

#: Staged extent from which a buffer's mapping is advised
#: ``MADV_HUGEPAGE``: one transparent huge page on x86-64 and arm64.
#: Smaller stagings (a 256 KiB blocking checkpoint, a coalesced tenant's
#: 128 KiB blob in a large pool chunk) keep 4 KiB pages, so a huge page
#: is never faulted in to hold a fraction of itself.
HUGE_PAGE_BYTES = 2 << 20


class PinnedBuffer:
    """One pinned staging chunk of fixed size.

    Holds an anonymous ``mmap`` plus the number of valid bytes currently
    staged in it (a checkpoint's final chunk is usually shorter than
    ``size``).  The mapping is page-aligned, so a staged chunk meets
    O_DIRECT's buffer-address rule and a sector-aligned device writes it
    without going through the page cache; its pages are only faulted in
    when first staged into, so an idle chunk costs no resident memory.
    Staging (:meth:`fill`/:meth:`append`) is the *one* copy of the
    checkpoint path — the snapshot that decouples training from the
    persist phase; everything downstream moves :meth:`view` slices.  It
    is one *memcpy*, not merely one call: both methods go through
    :func:`~repro.storage.device.copy_into`, which allocates nothing
    and copies with the GIL released (a plain ``data[a:b] = view`` would
    build a payload-sized temporary and copy twice under the GIL).

    The first :meth:`fill` or :meth:`append` — into the buffer or into
    any :meth:`window` of it — that takes the staged extent to
    :data:`HUGE_PAGE_BYTES` or more first advises the whole mapping
    ``MADV_HUGEPAGE``, once, so the copy faults it in as 2 MiB pages and
    every later ``O_DIRECT`` write from it pins 2 MiB pages.  A buffer
    that only ever stages less keeps 4 KiB pages.  A platform without the
    advice, or a kernel that refuses it, leaves the buffer on 4 KiB
    pages and the checkpoint goes on; the refusal is counted on the
    owning ``pool``.
    """

    def __init__(
        self, index: int, size: int, pool: Optional["DRAMBufferPool"] = None
    ) -> None:
        self.index = index
        self.size = size
        # Private: a forked child never shares the staged bytes, and its
        # first-touch faults cost what bytearray's zero-fill did.  mmap
        # refuses a zero-length mapping; an empty buffer stages nothing.
        self.data = (
            mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
            if size else bytearray()
        )
        self.used = 0
        self._pool = pool
        #: The buffer owning the mapping these bytes live in (a window's
        #: parent), and where in that mapping they start.
        self._owner = self
        self._offset = 0
        #: True once the mapping was advised (or refused) huge pages; a
        #: mapping smaller than one never asks.
        self._advised = size < HUGE_PAGE_BYTES

    def _advise_huge_pages(self) -> None:
        """Advise this buffer's whole mapping ``MADV_HUGEPAGE``, once."""
        self._advised = True
        try:
            self.data.madvise(mmap.MADV_HUGEPAGE)
        except (AttributeError, OSError):  # no such advice here, or refused
            if self._pool is not None:
                self._pool.count_huge_page_refusal()

    def fill(self, payload: Buffer) -> None:
        """Stage ``payload`` into the buffer (must fit).

        Accepts any C-contiguous buffer-protocol object; the staging copy
        itself is unavoidable (it is the snapshot), but the source is
        never re-materialized — as ``bytes`` or as a temporary
        ``bytearray`` — on the way in.
        """
        view = as_view(payload)
        if len(view) > self.size:
            raise EngineError(
                f"payload of {len(view)} bytes exceeds chunk size {self.size}"
            )
        owner = self._owner
        if not owner._advised and self._offset + len(view) >= HUGE_PAGE_BYTES:
            owner._advise_huge_pages()
        copy_into(self.data, 0, view)
        self.used = len(view)

    def append(self, payload: Buffer) -> None:
        """Stage ``payload`` directly after the bytes already staged.

        Gather-style snapshot sources (several tensors landing in one
        chunk) build the chunk with successive appends instead of
        materializing an intermediate concatenation.
        """
        view = as_view(payload)
        end = self.used + len(view)
        if end > self.size:
            raise EngineError(
                f"appending {len(view)} bytes at {self.used} exceeds "
                f"chunk size {self.size}"
            )
        owner = self._owner
        if not owner._advised and self._offset + end >= HUGE_PAGE_BYTES:
            owner._advise_huge_pages()
        copy_into(self.data, self.used, view)
        self.used += len(view)

    def view(self) -> memoryview:
        """A zero-copy view of the staged bytes.

        The view is only valid while the buffer is held — callers must
        finish with it before releasing the buffer back to the pool.
        """
        return memoryview(self.data)[: self.used]

    def window(self, lo: int, size: int) -> "PinnedBuffer":
        """A buffer over ``[lo, lo + size)`` of this one's memory, empty.

        A snapshot source stages into it exactly as into a whole buffer
        (:meth:`fill`, :meth:`append`, ``used``), so a one-chunk
        checkpoint can hand its payload to the writers piece by piece
        from one staging buffer.  It shares this buffer's pages, so a
        window at a page-aligned ``lo`` keeps O_DIRECT's address rule and
        a fill that reaches :data:`HUGE_PAGE_BYTES` into the mapping
        advises this buffer's mapping.  It is valid only while this
        buffer is held, and is never released to a pool itself.
        """
        if lo < 0 or size < 0 or lo + size > self.size:
            raise EngineError(
                f"window [{lo}, {lo + size}) outside chunk of {self.size} bytes"
            )
        window = PinnedBuffer(self.index, 0)
        window.size = size
        window.data = memoryview(self.data)[lo : lo + size]
        window._owner = self._owner
        window._offset = self._offset + lo
        return window


class DRAMBufferPool:
    """A fixed pool of :class:`PinnedBuffer` chunks.

    Thread-safe; ``acquire`` blocks while the pool is exhausted and
    records the cumulative wait time, which surfaces in the orchestrator's
    stall accounting (the quantity Figure 14 varies DRAM size to reduce).

    A chunk's pages are faulted in only when staged into, so an idle
    chunk costs no resident memory; a chunk that stages 2 MiB or more is
    huge-page backed (see :class:`PinnedBuffer`).  Buffers whose
    huge-page advice was refused are counted
    (:attr:`huge_page_refusals`, and the
    ``pccheck_dram_huge_page_refusals_total`` series once a registry is
    attached).
    """

    def __init__(self, num_chunks: int, chunk_size: int) -> None:
        if num_chunks <= 0:
            raise EngineError(f"pool needs at least one chunk, got {num_chunks}")
        if chunk_size <= 0:
            raise EngineError(f"chunk size must be positive, got {chunk_size}")
        self._chunk_size = chunk_size
        self._free: List[PinnedBuffer] = [
            PinnedBuffer(index, chunk_size, self) for index in range(num_chunks)
        ]
        self._total = num_chunks
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        #: Acquirers blocked in :meth:`acquire`: a release wakes one only
        #: when there is one.
        self._waiters = 0
        self._wait_seconds = 0.0
        self._acquisitions = 0
        self._huge_page_refusals = 0
        self._refusals: Optional[Counter] = None

    @property
    def chunk_size(self) -> int:
        """Size in bytes of each chunk (the parameter ``b``)."""
        return self._chunk_size

    @property
    def total_chunks(self) -> int:
        """Number of chunks in the pool (the parameter ``c``)."""
        return self._total

    @property
    def free_chunks(self) -> int:
        """Chunks currently available."""
        with self._lock:
            return len(self._free)

    @property
    def capacity_bytes(self) -> int:
        """Total DRAM dedicated to staging (the constraint ``M``)."""
        return self._total * self._chunk_size

    @property
    def wait_seconds(self) -> float:
        """Cumulative time acquirers spent blocked on an empty pool."""
        with self._lock:
            return self._wait_seconds

    @property
    def huge_page_refusals(self) -> int:
        """Buffers left on 4 KiB pages because the huge-page advice was
        missing or refused."""
        with self._lock:
            return self._huge_page_refusals

    def count_huge_page_refusal(self) -> None:
        """Count one buffer whose huge-page advice was refused."""
        with self._lock:
            self._huge_page_refusals += 1
            counter = self._refusals
        if counter is not None:
            counter.inc()

    def attach_metrics(self, metrics: MetricsRegistry) -> None:
        """Mirror :attr:`huge_page_refusals` into ``metrics`` as
        ``pccheck_dram_huge_page_refusals_total``."""
        counter = metrics.counter(M.DRAM_HUGE_PAGE_REFUSALS)
        with self._lock:
            self._refusals = counter
            counter.inc(self._huge_page_refusals)

    def acquire(self, timeout: Optional[float] = None) -> Optional[PinnedBuffer]:
        """Take a free chunk, blocking until one is released.

        Returns ``None`` on timeout.
        """
        start = time.monotonic()
        with self._lock:  # the lock under ``_available``
            while not self._free:
                remaining = None
                if timeout is not None:
                    remaining = timeout - (time.monotonic() - start)
                    if remaining <= 0:
                        self._wait_seconds += time.monotonic() - start
                        return None
                self._waiters += 1
                try:
                    self._available.wait(remaining)
                finally:
                    self._waiters -= 1
            waited = time.monotonic() - start
            self._wait_seconds += waited
            self._acquisitions += 1
            buffer = self._free.pop()
            buffer.used = 0
            return buffer

    def try_acquire(self) -> Optional[PinnedBuffer]:
        """Non-blocking acquire; ``None`` when the pool is empty."""
        with self._lock:
            if not self._free:
                return None
            self._acquisitions += 1
            buffer = self._free.pop()
            buffer.used = 0
            return buffer

    def release(self, buffer: PinnedBuffer) -> None:
        """Return a chunk to the pool and wake one waiter."""
        if buffer.size != self._chunk_size:
            raise EngineError("buffer does not belong to this pool")
        with self._lock:
            if len(self._free) >= self._total:
                raise EngineError("double release into a full pool")
            self._free.append(buffer)
            if self._waiters:
                self._available.notify()
