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
"""

from __future__ import annotations

import mmap
import threading
import time
from typing import List, Optional

from repro.errors import EngineError
from repro.storage.device import Buffer, as_view, copy_into


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
    """

    def __init__(self, index: int, size: int) -> None:
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
        copy_into(self.data, 0, view)
        self.used = len(view)

    def append(self, payload: Buffer) -> None:
        """Stage ``payload`` directly after the bytes already staged.

        Gather-style snapshot sources (several tensors landing in one
        chunk) build the chunk with successive appends instead of
        materializing an intermediate concatenation.
        """
        view = as_view(payload)
        if self.used + len(view) > self.size:
            raise EngineError(
                f"appending {len(view)} bytes at {self.used} exceeds "
                f"chunk size {self.size}"
            )
        copy_into(self.data, self.used, view)
        self.used += len(view)

    def view(self) -> memoryview:
        """A zero-copy view of the staged bytes.

        The view is only valid while the buffer is held — callers must
        finish with it before releasing the buffer back to the pool.
        """
        return memoryview(self.data)[: self.used]


class DRAMBufferPool:
    """A fixed pool of :class:`PinnedBuffer` chunks.

    Thread-safe; ``acquire`` blocks while the pool is exhausted and
    records the cumulative wait time, which surfaces in the orchestrator's
    stall accounting (the quantity Figure 14 varies DRAM size to reduce).
    """

    def __init__(self, num_chunks: int, chunk_size: int) -> None:
        if num_chunks <= 0:
            raise EngineError(f"pool needs at least one chunk, got {num_chunks}")
        if chunk_size <= 0:
            raise EngineError(f"chunk size must be positive, got {chunk_size}")
        self._chunk_size = chunk_size
        self._free: List[PinnedBuffer] = [
            PinnedBuffer(index, chunk_size) for index in range(num_chunks)
        ]
        self._total = num_chunks
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._wait_seconds = 0.0
        self._acquisitions = 0

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

    def acquire(self, timeout: Optional[float] = None) -> Optional[PinnedBuffer]:
        """Take a free chunk, blocking until one is released.

        Returns ``None`` on timeout.
        """
        start = time.monotonic()
        with self._available:
            while not self._free:
                remaining = None
                if timeout is not None:
                    remaining = timeout - (time.monotonic() - start)
                    if remaining <= 0:
                        self._wait_seconds += time.monotonic() - start
                        return None
                self._available.wait(remaining)
            waited = time.monotonic() - start
            self._wait_seconds += waited
            self._acquisitions += 1
            buffer = self._free.pop()
            buffer.used = 0
            return buffer

    def try_acquire(self) -> Optional[PinnedBuffer]:
        """Non-blocking acquire; ``None`` when the pool is empty."""
        with self._available:
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
        with self._available:
            if len(self._free) >= self._total:
                raise EngineError("double release into a full pool")
            self._free.append(buffer)
            self._available.notify()
