"""SSD backends: a real file-backed device and an in-memory crash model.

The paper's SSD path mmaps a file on a GCP ``pd-ssd`` and persists each
checkpoint write with ``msync()`` (§3.3).  Two devices reproduce it:

:class:`FileBackedSSD`
    A real file accessed with ``os.pwrite``/``os.pread``; ``persist`` calls
    ``os.fsync``, the durability barrier equivalent to ``msync`` on an
    mmapped region.  This is the backend the examples and functional
    benchmarks use — checkpoints genuinely hit the filesystem.

:class:`InMemorySSD`
    Identical semantics over RAM, with the same page-cache/crash model the
    PMEM simulator uses, so durability property tests can crash the device
    at arbitrary points.  Real block devices have a volatile write cache
    (here: the OS page cache) between ``write`` and ``msync``; a crash
    may persist any subset of outstanding *pages*, which this model
    applies at cache-line granularity like the PMEM simulator (a stricter,
    adversarial refinement).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional


from repro.errors import StorageError
from repro.obs.metrics import M
from repro.storage.device import (
    Buffer,
    DeviceStats,
    IntervalSet,
    PersistentDevice,
    TwoImageDevice,
    as_dest_view,
    as_view,
    buffer_address,
)

#: Effective torch.save+flush bandwidth the paper measured on pd-ssd
#: (16 GB OPT-1.3B state in 37 s, §1) — the naive single-stream path.
PDSSD_NAIVE_BANDWIDTH: float = 16.2e9 / 37.0
#: Saturated multi-threaded pd-ssd write bandwidth used for calibration.
PDSSD_SATURATED_BANDWIDTH: float = 0.8e9


#: Sector granularity unbuffered (O_DIRECT-style) writes are aligned to.
#: 4096 covers every modern block device's logical sector size.
SECTOR_SIZE: int = 4096


def _device_counter(metrics, label: str, name: str):
    return metrics.counter(name, device=label)


class FileBackedSSD(PersistentDevice):
    """A persistent device over a real file.

    ``write`` issues ``os.pwrite`` (buffered by the page cache, like a
    store to an mmapped region); ``persist`` issues ``os.fsync`` (the
    ``msync`` analogue).  The file is pre-allocated to ``capacity`` so
    offsets are stable.

    ``unbuffered=True`` is FastPersist-style unbuffered I/O, which the
    checkpoint stacks of :func:`repro.open_checkpointer` and
    :class:`~repro.service.pool.EngineSpec` always ask for: a second
    ``O_DIRECT`` descriptor is opened when the platform and filesystem
    allow it, and a write whose offset and user-buffer address are
    sector-aligned sends its whole sectors through it, bypassing the page
    cache; only a ragged tail shorter than a sector, and any write that is
    not aligned, goes through the buffered descriptor.  The device then
    reports ``preferred_align == SECTOR_SIZE`` so
    :func:`repro.core.writer.split_range` keeps writer shares
    sector-aligned and the layout pads slot headers to a sector.  A
    filesystem that refuses ``O_DIRECT`` (tmpfs) leaves every write
    buffered.  Writes of at least one sector are counted as direct or
    fallback (``direct_write_ops``/``fallback_write_ops``, and the
    ``pccheck_device_{direct,fallback}_writes_total`` series once a
    registry is attached), so a payload that falls off the direct path
    shows; headers and commit records, shorter than a sector, are
    neither.
    """

    def __init__(
        self,
        path: str,
        capacity: int,
        name: Optional[str] = None,
        *,
        unbuffered: bool = False,
    ) -> None:
        super().__init__(capacity, name or f"ssd:{path}")
        self._path = path
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            # Grow to capacity but never shrink: truncating an existing
            # region would destroy checkpoints beyond the new size.
            current = os.fstat(self._fd).st_size
            if current < capacity:
                os.truncate(self._fd, capacity)
        except OSError as exc:
            os.close(self._fd)
            raise StorageError(f"cannot allocate {capacity} bytes at {path}") from exc
        self._lock = threading.Lock()
        self.stats = DeviceStats()
        self._unbuffered = bool(unbuffered)
        self._direct_fd: Optional[int] = None
        #: Writes whose whole sectors went through the O_DIRECT descriptor.
        self.direct_write_ops = 0
        #: Writes of at least one sector that wanted the direct path but
        #: went buffered (misaligned, O_DIRECT unsupported, or a
        #: mid-write EINVAL).
        self.fallback_write_ops = 0
        if self._unbuffered:
            direct_flag = getattr(os, "O_DIRECT", 0)
            if direct_flag:
                try:
                    self._direct_fd = os.open(path, os.O_RDWR | direct_flag)
                except OSError:
                    self._direct_fd = None

    @property
    def path(self) -> str:
        """Filesystem path backing the device."""
        return self._path

    @property
    def unbuffered(self) -> bool:
        """True when opened in unbuffered (O_DIRECT-style) mode."""
        return self._unbuffered

    @property
    def direct_io(self) -> bool:
        """True when a real ``O_DIRECT`` descriptor is live (unbuffered
        mode can still be active without one, writing everything
        buffered)."""
        return self._direct_fd is not None

    @property
    def preferred_align(self) -> int:
        return SECTOR_SIZE if self._unbuffered else 1

    def write(self, offset: int, data: Buffer) -> None:
        if self._closed:
            self._check_open()
        view = as_view(data)
        length = len(view)
        if offset < 0 or offset + length > self._capacity:
            self._check_range(offset, length)
        observed = self._obs_metrics is not None
        start = time.monotonic() if observed else 0.0
        # Whole sectors go direct; only a ragged tail takes the cache.
        # O_DIRECT constrains the offset and the *user buffer* address.
        direct = 0
        whole = length - length % SECTOR_SIZE
        if (
            whole and self._direct_fd is not None
            and not offset % SECTOR_SIZE
            and not buffer_address(view) % SECTOR_SIZE
        ):
            try:
                # One shot: a short direct write would leave the retry
                # position misaligned, so anything partial falls back.
                if os.pwrite(self._direct_fd, view[:whole], offset) == whole:
                    direct = whole
            except OSError:
                pass
        written = direct
        while written < length:
            # Slicing the view for a short-write retry is zero-copy.
            written += os.pwrite(self._fd, view[written:], offset + written)
        # Sub-sector writes (headers, commit records) never wanted the
        # direct path; a sector or more that missed it is a fallback.
        fallback = not direct and self._unbuffered and length >= SECTOR_SIZE
        with self._lock:
            self.stats.bytes_written += length
            self.stats.write_ops += 1
            if direct:
                self.direct_write_ops += 1
            elif fallback:
                self.fallback_write_ops += 1
        if not observed:
            return
        self._obs_op("write", length, start)
        if direct or fallback:
            self._obs_handle(
                M.DEVICE_DIRECT_WRITES if direct else M.DEVICE_FALLBACK_WRITES,
                _device_counter,
            ).inc()

    def read(self, offset: int, length: int) -> bytes:
        self._check_open()
        self._check_range(offset, length)
        start = self._obs_start()
        chunks = []
        remaining = length
        position = offset
        while remaining > 0:
            chunk = os.pread(self._fd, remaining, position)
            if not chunk:
                raise StorageError(f"short read at {position} on {self.name}")
            chunks.append(chunk)
            position += len(chunk)
            remaining -= len(chunk)
        with self._lock:
            self.stats.bytes_read += length
            self.stats.read_ops += 1
        self._obs_op("read", length, start)
        return b"".join(chunks)

    def readinto(self, offset: int, dest: Buffer) -> None:
        """``preadv`` straight into the caller's buffer: no intermediate
        ``bytes``, no join — the restore path's only copy is the
        kernel's."""
        if not hasattr(os, "preadv"):
            return super().readinto(offset, dest)
        self._check_open()
        view = as_dest_view(dest)
        length = len(view)
        self._check_range(offset, length)
        start = self._obs_start()
        got = 0
        while got < length:
            count = os.preadv(self._fd, [view[got:]], offset + got)
            if not count:
                raise StorageError(
                    f"short read at {offset + got} on {self.name}"
                )
            got += count
        with self._lock:
            self.stats.bytes_read += length
            self.stats.read_ops += 1
        self._obs_op("read", length, start)

    def persist(self, offset: int, length: int) -> None:
        """``fsync`` the file — durability for every outstanding write.

        ``fsync`` is coarser than ``msync(range)`` but strictly stronger,
        so the engine's correctness argument is unaffected.  It covers
        the writes of both descriptors: the direct ones skipped the page
        cache but may still sit in the device's volatile write cache,
        which the ``fsync`` flushes.
        """
        if self._closed:
            self._check_open()
        if offset < 0 or length < 0 or offset + length > self._capacity:
            self._check_range(offset, length)
        observed = self._obs_metrics is not None
        start = time.monotonic() if observed else 0.0
        os.fsync(self._fd)
        with self._lock:
            self.stats.bytes_persisted += length
            self.stats.persist_ops += 1
        if observed:
            self._obs_op("persist", length, start)

    def close(self) -> None:
        if not self.closed:
            os.close(self._fd)
            if self._direct_fd is not None:
                os.close(self._direct_fd)
                self._direct_fd = None
        super().close()


class InMemorySSD(TwoImageDevice):
    """An SSD with an explicit volatile write cache, for crash testing.

    ``write`` lands in the cache view; ``persist`` (msync) copies the
    covered dirty ranges to the durable image.  :meth:`crash` may apply
    any random subset of outstanding cache lines, then freezes the device
    until :meth:`recover` (the shared
    :class:`~repro.storage.device.TwoImageDevice` model).
    """

    def __init__(
        self,
        capacity: int,
        name: str = "mem-ssd",
        persist_bandwidth: Optional[float] = None,
        write_bandwidth: Optional[float] = None,
    ) -> None:
        super().__init__(capacity, name, persist_bandwidth)
        if write_bandwidth is not None and write_bandwidth <= 0:
            raise StorageError(
                f"write bandwidth must be positive, got {write_bandwidth}"
            )
        self._dirty = IntervalSet()  # written, not yet msynced
        self._at_risk = (self._dirty,)
        self._write_bandwidth = write_bandwidth

    def write(self, offset: int, data: Buffer) -> None:
        self._store(offset, data, self._dirty, self._write_bandwidth)

    def persist(self, offset: int, length: int) -> None:
        """``msync`` the range: dirty bytes inside it become durable."""
        self._check_alive()
        self._check_range(offset, length)
        start = self._obs_start()
        with self._lock:
            synced = self._harden(
                self._dirty.intersect(offset, offset + length)
            )
            self._dirty.remove(offset, offset + length)
            self.stats.bytes_persisted += synced
            self.stats.persist_ops += 1
        self._charge_bandwidth(synced)
        self._obs_op("persist", synced, start)
