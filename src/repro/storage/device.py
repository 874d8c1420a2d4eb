"""Abstract persistent-device interface.

The checkpoint engine is written against this interface so it runs
unchanged on every backend the paper evaluates:

* :class:`repro.storage.ssd.FileBackedSSD` — a real file; ``persist`` maps
  to ``os.fsync``, the analogue of the paper's ``msync`` on an mmapped
  region.
* :class:`repro.storage.ssd.InMemorySSD` — same semantics in RAM, with
  crash injection for durability tests.
* :class:`repro.storage.pmem.SimulatedPMEM` — byte-addressable persistent
  memory with a volatile CPU-cache model, non-temporal stores and fences.

The central abstraction is the *persistence domain*: ``write`` makes data
visible to subsequent ``read`` calls but NOT durable; only ``persist``
(msync / clwb+fence / sfence after nt-stores) guarantees the bytes survive
a crash.  Fault-injecting devices exploit exactly this gap: ``crash()``
discards (or partially, randomly applies) everything not yet persisted,
which is the hazard the paper's BARRIER calls exist to close.
"""

from __future__ import annotations

import ctypes
import threading
import time
from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import (
    CrashedDeviceError,
    DeviceClosedError,
    OutOfSpaceError,
    StorageError,
)
from repro.obs.metrics import M, MetricsRegistry

#: Size of a simulated CPU cache line; crash injection applies or drops
#: volatile data at this granularity, matching PMEM failure atomicity.
CACHE_LINE: int = 64

#: Anything the persist path accepts as payload: ``write`` takes any
#: C-contiguous buffer-protocol object and never copies it.
Buffer = Union[bytes, bytearray, memoryview]


def as_view(data: Buffer) -> memoryview:
    """A flat ``uint8`` :class:`memoryview` over ``data`` — zero copies.

    The persist hot path hands payloads around as views so chunk splits
    and writer shares are O(1) slices instead of ``bytes`` copies.  Any
    C-contiguous buffer-protocol object is accepted (``bytes``,
    ``bytearray``, ``memoryview``, numpy arrays); non-contiguous views
    are rejected — silently linearizing one would reintroduce the very
    copy this path exists to avoid.
    """
    if type(data) is memoryview:  # memoryview cannot be subclassed
        view = data
    else:
        try:
            view = memoryview(data)
        except TypeError as exc:
            raise StorageError(
                f"payload of type {type(data).__name__} does not support "
                "the buffer protocol"
            ) from exc
    if not view.c_contiguous:
        raise StorageError(
            "non-contiguous buffer rejected on the zero-copy persist path; "
            "pass a contiguous view (e.g. numpy.ascontiguousarray)"
        )
    if view.ndim != 1 or view.format != "B":
        view = view.cast("B")
    return view


def buffer_address(view: memoryview) -> int:
    """Address of a non-empty view's first byte.  ``ctypes`` reads a
    writable buffer's several times faster than numpy's ``.ctypes``."""
    if not view.readonly:
        return ctypes.addressof(ctypes.c_char.from_buffer(view))
    return np.frombuffer(view, dtype=np.uint8).ctypes.data


def as_dest_view(dest: Buffer) -> memoryview:
    """:func:`as_view` for a ``readinto`` destination: also writable."""
    view = as_view(dest)
    if view.readonly:
        raise StorageError("readinto destination buffer is read-only")
    return view


def copy_into(dest: Buffer, offset: int, view: memoryview) -> None:
    """Copy ``view`` to ``dest[offset : offset + len(view)]`` — one memcpy.

    ``bytearray[a:b] = view`` reads like one copy, but CPython first
    materializes any right-hand side that is not itself a ``bytearray``
    as a temporary one: a payload-sized allocation and a second memcpy,
    both with the GIL held.  ``numpy.copyto`` between two ``uint8``
    arrays over the same memory allocates nothing, copies once, and
    releases the GIL while it does — so a capture thread staging a
    checkpoint does not stop the training thread.

    ``dest`` must be writable and hold ``offset + len(view)`` bytes
    (callers bounds-check first, with their own typed error); ``view``
    is a flat ``uint8`` view as :func:`as_view` returns.
    """
    length = len(view)
    if length:
        np.copyto(
            np.frombuffer(dest, dtype=np.uint8, count=length, offset=offset),
            np.frombuffer(view, dtype=np.uint8),
        )


class IntervalSet:
    """A set of half-open byte intervals ``[start, stop)``.

    Used by the in-memory devices to track which ranges are dirty
    (written but not yet persisted).  Intervals are kept sorted and
    coalesced; all operations are O(n) in the number of disjoint
    intervals, which stays tiny for checkpoint workloads.
    """

    def __init__(self) -> None:
        self._spans: List[Tuple[int, int]] = []

    def __bool__(self) -> bool:
        return bool(self._spans)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def total_bytes(self) -> int:
        """Sum of the lengths of all intervals."""
        return sum(stop - start for start, stop in self._spans)

    def add(self, start: int, stop: int) -> None:
        """Insert ``[start, stop)``, merging with overlapping intervals."""
        if stop <= start:
            return
        merged: List[Tuple[int, int]] = []
        placed = False
        for span_start, span_stop in self._spans:
            if span_stop < start or span_start > stop:
                if not placed and span_start > stop:
                    merged.append((start, stop))
                    placed = True
                merged.append((span_start, span_stop))
            else:
                start = min(start, span_start)
                stop = max(stop, span_stop)
        if not placed:
            merged.append((start, stop))
            merged.sort()
        self._spans = merged

    def remove(self, start: int, stop: int) -> None:
        """Delete ``[start, stop)`` from the set, splitting as needed."""
        if stop <= start:
            return
        result: List[Tuple[int, int]] = []
        for span_start, span_stop in self._spans:
            if span_stop <= start or span_start >= stop:
                result.append((span_start, span_stop))
                continue
            if span_start < start:
                result.append((span_start, start))
            if span_stop > stop:
                result.append((stop, span_stop))
        self._spans = result

    def intersect(self, start: int, stop: int) -> List[Tuple[int, int]]:
        """Return the parts of the set that overlap ``[start, stop)``."""
        out: List[Tuple[int, int]] = []
        for span_start, span_stop in self._spans:
            lo = max(span_start, start)
            hi = min(span_stop, stop)
            if lo < hi:
                out.append((lo, hi))
        return out

    def clear(self) -> None:
        """Remove every interval."""
        self._spans = []

    def copy(self) -> "IntervalSet":
        """Return an independent copy."""
        clone = IntervalSet()
        clone._spans = list(self._spans)
        return clone


class PersistentDevice(ABC):
    """A fixed-capacity, byte-addressed persistent device.

    Subclasses must make ``persist`` a durability barrier: once it
    returns, the covered bytes must survive :meth:`crash` (where crash is
    supported) or process death (for file-backed devices).
    """

    def __init__(self, capacity: int, name: str = "device") -> None:
        if capacity <= 0:
            raise StorageError(f"device capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._name = name
        self._closed = False
        self._obs_metrics: Optional[MetricsRegistry] = None
        self._obs_label = name
        self._obs_handles: Dict[str, object] = {}

    @property
    def capacity(self) -> int:
        """Total device size in bytes."""
        return self._capacity

    @property
    def name(self) -> str:
        """Human-readable device name (used in error messages)."""
        return self._name

    @property
    def closed(self) -> bool:
        """True after :meth:`close`."""
        return self._closed

    @property
    def preferred_align(self) -> int:
        """Alignment (bytes) the device wants write boundaries to honor.

        ``1`` for ordinary devices.  Unbuffered (O_DIRECT-style) files
        report their sector size and striped devices their stripe size;
        :func:`repro.core.writer.split_range` rounds share boundaries to
        this so parallel writers never split a sector or stripe between
        two threads.
        """
        return 1

    def attach_metrics(
        self, metrics: MetricsRegistry, label: Optional[str] = None
    ) -> None:
        """Mirror per-op bytes/latency into ``metrics``.

        Every subsequent ``write``/``read``/``persist`` reports a
        ``device=<label>``, ``op=`` labelled series; the ``stats``
        attribute of concrete devices stays untouched.  Detached (the
        default) the ops pay nothing beyond one ``None`` check.  Each
        series is bound to its handle on the op's first report and reused
        after that, so it appears once something happened on it and an
        op never pays a registry lookup.
        """
        self._obs_metrics = metrics
        self._obs_label = label if label is not None else self._name
        self._obs_handles = {}

    def _obs_handle(self, key: str, bind):
        """The handle cached under ``key``, bound by ``bind(registry,
        label, key)`` the first time (racing binders get the same
        series)."""
        handle = self._obs_handles.get(key)
        if handle is None:
            handle = self._obs_handles[key] = bind(
                self._obs_metrics, self._obs_label, key
            )
        return handle

    def _obs_start(self) -> float:
        """Per-op timing origin; 0.0 when no registry is attached."""
        return time.monotonic() if self._obs_metrics is not None else 0.0

    def _obs_op(self, op: str, nbytes: int, start: float) -> None:
        """Report one device operation (no-op when detached)."""
        if self._obs_metrics is None:
            return
        ops, op_bytes, seconds = self._obs_handle(op, _op_series)
        ops.inc()
        if nbytes:
            op_bytes.inc(nbytes)
        seconds.observe(time.monotonic() - start)

    def _check_open(self) -> None:
        if self._closed:
            raise DeviceClosedError(f"{self._name} is closed")

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0:
            raise StorageError(
                f"negative range ({offset}, {length}) on {self._name}"
            )
        if offset + length > self._capacity:
            raise OutOfSpaceError(
                f"range [{offset}, {offset + length}) exceeds capacity "
                f"{self._capacity} of {self._name}"
            )

    @abstractmethod
    def write(self, offset: int, data: Buffer) -> None:
        """Store ``data`` at ``offset``; visible immediately, durable only
        after :meth:`persist` covers the range.

        ``data`` may be any C-contiguous buffer-protocol object (see
        :func:`as_view`); implementations slice it with ``memoryview``
        internally and never take a ``bytes`` copy.
        """

    @abstractmethod
    def read(self, offset: int, length: int) -> bytes:
        """Return ``length`` bytes at ``offset`` (sees unpersisted writes)."""

    def readinto(self, offset: int, dest: Buffer) -> None:
        """Fill the writable, C-contiguous ``dest`` with the ``len(dest)``
        bytes at ``offset`` — :meth:`read` without the intermediate
        ``bytes``.

        This default is built on :meth:`read` (one extra copy), so a
        subclass or wrapper that only knows ``read`` keeps working and
        keeps whatever ``read`` injects; the concrete devices override
        it to land the bytes in ``dest`` directly, and
        :class:`DeviceWrapper` forwards it — a wrapper that gates
        ``read`` must gate ``readinto`` the same way.
        """
        view = as_dest_view(dest)
        view[:] = self.read(offset, len(view))

    @abstractmethod
    def persist(self, offset: int, length: int) -> None:
        """Durability barrier for ``[offset, offset + length)``."""

    def persist_all(self) -> None:
        """Durability barrier for the whole device."""
        self.persist(0, self._capacity)

    def close(self) -> None:
        """Release resources; further operations raise."""
        self._closed = True

    def __enter__(self) -> "PersistentDevice":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _op_series(metrics: MetricsRegistry, label: str, op: str) -> tuple:
    """The ``(ops, bytes, seconds)`` series of one device op kind."""
    return (
        metrics.counter(M.DEVICE_OPS, device=label, op=op),
        metrics.counter(M.DEVICE_OP_BYTES, device=label, op=op),
        metrics.histogram(M.DEVICE_OP_SECONDS, device=label, op=op),
    )


class DeviceWrapper(PersistentDevice):
    """A device that answers the whole device protocol by delegating to
    ``inner``.

    The one place the protocol is forwarded: the alignment hint, the
    data operations and metric attachment all reach the wrapped device,
    so a subclass overrides only the operations it gates or extends and
    cannot forget one (``tests/storage/test_device_surface.py`` compares
    every public member of :class:`PersistentDevice` against the inner
    device).  ``close`` is deliberately NOT forwarded — who owns the
    inner device's lifetime is each wrapper's decision.
    """

    def __init__(self, inner: PersistentDevice, name: str) -> None:
        super().__init__(inner.capacity, name)
        self._inner = inner

    @property
    def inner(self) -> PersistentDevice:
        """The wrapped device."""
        return self._inner

    @property
    def preferred_align(self) -> int:
        """The inner device's hint — a wrapper reporting the base-class 1
        makes ``DeviceLayout.format`` skip the aligned layout and loses
        the O_DIRECT path silently."""
        return self._inner.preferred_align

    def attach_metrics(
        self, metrics: MetricsRegistry, label: Optional[str] = None
    ) -> None:
        """Instrument the wrapped device's ops (and whatever counters the
        wrapper itself keeps) with the same registry."""
        super().attach_metrics(metrics, label)
        self._inner.attach_metrics(metrics, label or self._inner.name)

    def write(self, offset: int, data: Buffer) -> None:
        self._inner.write(offset, data)

    def read(self, offset: int, length: int) -> bytes:
        return self._inner.read(offset, length)

    def readinto(self, offset: int, dest: Buffer) -> None:
        self._inner.readinto(offset, dest)

    def persist(self, offset: int, length: int) -> None:
        self._inner.persist(offset, length)


def split_cache_lines(offset: int, length: int) -> Iterator[Tuple[int, int]]:
    """Yield the cache-line-aligned sub-ranges covering ``[offset, offset+length)``.

    Crash injection applies volatile data at cache-line granularity; this
    helper enumerates the lines a dirty range touches.
    """
    if length <= 0:
        return
    line_start = (offset // CACHE_LINE) * CACHE_LINE
    end = offset + length
    while line_start < end:
        line_stop = line_start + CACHE_LINE
        yield max(line_start, offset), min(line_stop, end)
        line_start = line_stop


class DeviceStats:
    """Byte and operation counters shared by the concrete devices."""

    def __init__(self) -> None:
        self.bytes_written = 0
        self.bytes_read = 0
        self.bytes_persisted = 0
        self.write_ops = 0
        self.read_ops = 0
        self.persist_ops = 0

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        return {
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "bytes_persisted": self.bytes_persisted,
            "write_ops": self.write_ops,
            "read_ops": self.read_ops,
            "persist_ops": self.persist_ops,
        }


class TwoImageDevice(PersistentDevice):
    """The crash model the in-memory devices share.

    Two byte images: ``visible`` is what loads observe (the cache view,
    updated by every store), ``durable`` is what survives :meth:`crash`
    (media content).  A subclass keeps its own store and fence methods:
    stores go through :meth:`_store`, which records them in one of the
    subclass's :class:`IntervalSet` s, and fences move covered spans to
    the durable image with :meth:`_harden`.  ``_at_risk`` names the sets
    whose bytes are still volatile — what :meth:`crash` randomly applies
    and :meth:`recover` forgets.
    """

    def __init__(
        self, capacity: int, name: str, persist_bandwidth: Optional[float]
    ) -> None:
        super().__init__(capacity, name)
        self._visible = bytearray(capacity)
        self._durable = bytearray(capacity)
        self._at_risk: Tuple[IntervalSet, ...] = ()
        self._lock = threading.RLock()
        self._crashed = False
        self._persist_bandwidth = persist_bandwidth
        self.stats = DeviceStats()

    def _check_alive(self) -> None:
        self._check_open()
        if self._crashed:
            raise CrashedDeviceError(f"{self.name} has crashed; call recover()")

    @property
    def crashed(self) -> bool:
        """True between :meth:`crash` and :meth:`recover`."""
        return self._crashed

    @property
    def unpersisted_bytes(self) -> int:
        """Bytes stored but not yet covered by a durability barrier."""
        with self._lock:
            return sum(spans.total_bytes() for spans in self._at_risk)

    def _store(
        self,
        offset: int,
        data: Buffer,
        tracked: IntervalSet,
        bandwidth: Optional[float] = None,
    ) -> None:
        """Land ``data`` in the visible image, volatile until a fence
        covers it in ``tracked``; ``bandwidth`` models per-store device
        channel time."""
        self._check_alive()
        view = as_view(data)
        length = len(view)
        self._check_range(offset, length)
        start = self._obs_start()
        with self._lock:
            copy_into(self._visible, offset, view)
            tracked.add(offset, offset + length)
            self.stats.bytes_written += length
            self.stats.write_ops += 1
        if bandwidth and length > 0:
            # OUTSIDE the lock: concurrent writer shares (or stripe
            # members) overlap their channel time exactly like
            # independent flash channels, which is what makes
            # parallel-persist scaling measurable on any host,
            # single-core CI included.
            time.sleep(length / bandwidth)
        self._obs_op("write", length, start)

    def _harden(self, spans) -> int:
        """Copy ``spans`` from the visible to the durable image; returns
        the bytes moved.  Caller holds the lock."""
        moved = 0
        for lo, hi in spans:
            copy_into(self._durable, lo, memoryview(self._visible)[lo:hi])
            moved += hi - lo
        return moved

    def _charge_bandwidth(self, nbytes: int) -> None:
        """Make a durability barrier over ``nbytes`` take wall-clock time."""
        if self._persist_bandwidth and nbytes > 0:
            time.sleep(nbytes / self._persist_bandwidth)

    def read(self, offset: int, length: int) -> bytes:
        """Load from the cache view (sees unpersisted stores)."""
        self._check_alive()
        self._check_range(offset, length)
        start = self._obs_start()
        with self._lock:
            self.stats.bytes_read += length
            self.stats.read_ops += 1
            data = bytes(self._visible[offset : offset + length])
        self._obs_op("read", length, start)
        return data

    def readinto(self, offset: int, dest: Buffer) -> None:
        """Load from the cache view straight into ``dest``."""
        self._check_alive()
        view = as_dest_view(dest)
        length = len(view)
        self._check_range(offset, length)
        start = self._obs_start()
        with self._lock, memoryview(self._visible) as visible:
            view[:] = visible[offset : offset + length]
            self.stats.bytes_read += length
            self.stats.read_ops += 1
        self._obs_op("read", length, start)

    def crash(self, rng: Optional[np.random.Generator] = None) -> None:
        """Simulate power loss.

        At-risk data is applied to the media for a random subset of its
        cache lines — real PMEM guarantees 8-byte failure atomicity but
        no cross-line ordering, and a block device's write cache may
        persist any subset of outstanding pages (modelled at the same,
        stricter granularity).  With ``rng=None`` nothing unpersisted
        survives (the adversarial case).  Afterwards the device refuses
        operations until :meth:`recover`.
        """
        with self._lock:
            if self._crashed:
                raise StorageError(f"{self.name} already crashed")
            if rng is not None:
                at_risk = IntervalSet()
                for spans in self._at_risk:
                    for lo, hi in spans:
                        at_risk.add(lo, hi)
                for lo, hi in at_risk:
                    for line_lo, line_hi in split_cache_lines(lo, hi - lo):
                        if rng.random() < 0.5:
                            self._durable[line_lo:line_hi] = self._visible[
                                line_lo:line_hi
                            ]
            self._crashed = True

    def recover(self) -> None:
        """Come back from a crash: the cache view is reset to the media
        content and the at-risk tracking is discarded."""
        with self._lock:
            if not self._crashed:
                raise StorageError(f"{self.name} has not crashed")
            self._visible = bytearray(self._durable)
            for spans in self._at_risk:
                spans.clear()
            self._crashed = False

    def durable_snapshot(self) -> bytes:
        """Copy of the durable image (test helper)."""
        with self._lock:
            return bytes(self._durable)
