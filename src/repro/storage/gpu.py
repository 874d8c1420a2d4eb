"""Simulated GPU memory and DMA copy engines.

The real system copies checkpoint state from GPU memory to pinned DRAM
with the GPU's dedicated copy engines (``cudaMemcpyAsync`` on pinned
memory, §3.3), which run in parallel with compute kernels.  Without a GPU,
this module provides the same *interface and concurrency behaviour*:

* :class:`GPUBuffer` — a region of "device" memory backed by a numpy
  array; training code mutates it in place.
* :class:`SimulatedGPU` — an allocator with a capacity limit plus a pool
  of copy-engine worker threads.  ``copy_to_host_async`` snapshots a byte
  range of a buffer into a pinned DRAM chunk and completes asynchronously,
  optionally throttled to a configured PCIe bandwidth so functional
  benchmarks show realistic overlap.

What matters for the checkpoint algorithm is (a) the copy is chunked,
(b) it runs concurrently with "compute" (the Python training loop), and
(c) the engine signals per-chunk completion — all preserved here.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import OutOfSpaceError, StorageError
from repro.storage.dram import PinnedBuffer

#: Effective host-to-device bandwidth of PCIe3 x16 with pinned memory,
#: as on the paper's a2-highgpu-1g VMs.
PCIE3_X16_BANDWIDTH: float = 12.5e9
#: PCIe3 x8, as on the paper's Titan RTX PMEM machine.
PCIE3_X8_BANDWIDTH: float = 6.3e9


class GPUBuffer:
    """A named allocation in simulated GPU memory."""

    def __init__(self, name: str, array: np.ndarray) -> None:
        self.name = name
        self.array = array

    @property
    def nbytes(self) -> int:
        """Allocation size in bytes."""
        return self.array.nbytes

    def read_range(self, offset: int, length: int) -> bytes:
        """Raw bytes ``[offset, offset+length)`` of the buffer."""
        flat = self.array.reshape(-1).view(np.uint8)
        if offset < 0 or offset + length > flat.nbytes:
            raise StorageError(
                f"range [{offset}, {offset + length}) outside buffer "
                f"{self.name} of {flat.nbytes} bytes"
            )
        return flat[offset : offset + length].tobytes()


class SimulatedGPU:
    """Device-memory allocator plus asynchronous copy engines.

    ``copy_engines`` mirrors the number of DMA engines (A100s expose
    several); copies submitted beyond that queue behind running ones,
    exactly like streams multiplexed onto hardware engines.
    """

    def __init__(
        self,
        memory_capacity: int = 40 * 1024**3,
        copy_engines: int = 2,
        pcie_bandwidth: Optional[float] = None,
        name: str = "gpu0",
    ) -> None:
        if memory_capacity <= 0:
            raise StorageError("GPU memory capacity must be positive")
        if copy_engines <= 0:
            raise StorageError("need at least one copy engine")
        self.name = name
        self._capacity = memory_capacity
        self._pcie_bandwidth = pcie_bandwidth
        self._buffers: Dict[str, GPUBuffer] = {}
        self._lock = threading.Lock()
        self._engines = concurrent.futures.ThreadPoolExecutor(
            max_workers=copy_engines, thread_name_prefix=f"{name}-copyengine"
        )
        self._inflight: list = []
        self._closed = False

    # ------------------------------------------------------------------
    # memory management

    @property
    def memory_capacity(self) -> int:
        """Total device memory in bytes."""
        return self._capacity

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated."""
        with self._lock:
            return sum(buf.nbytes for buf in self._buffers.values())

    def alloc(
        self, name: str, shape: Tuple[int, ...], dtype: np.dtype = np.float32
    ) -> GPUBuffer:
        """Allocate a named buffer; raises :class:`OutOfSpaceError` when
        the allocation would exceed device memory."""
        array = np.zeros(shape, dtype=dtype)
        with self._lock:
            if name in self._buffers:
                raise StorageError(f"buffer {name!r} already allocated on {self.name}")
            used = sum(buf.nbytes for buf in self._buffers.values())
            if used + array.nbytes > self._capacity:
                raise OutOfSpaceError(
                    f"allocating {array.nbytes} bytes exceeds {self.name} "
                    f"capacity ({used} of {self._capacity} used)"
                )
            buffer = GPUBuffer(name, array)
            self._buffers[name] = buffer
            return buffer

    def wrap(self, name: str, array: np.ndarray) -> GPUBuffer:
        """Adopt an existing array as device memory (zero-copy)."""
        with self._lock:
            if name in self._buffers:
                raise StorageError(f"buffer {name!r} already allocated on {self.name}")
            used = sum(buf.nbytes for buf in self._buffers.values())
            if used + array.nbytes > self._capacity:
                raise OutOfSpaceError(
                    f"wrapping {array.nbytes} bytes exceeds {self.name} capacity"
                )
            buffer = GPUBuffer(name, array)
            self._buffers[name] = buffer
            return buffer

    def free(self, buffer: GPUBuffer) -> None:
        """Release a buffer."""
        with self._lock:
            if self._buffers.get(buffer.name) is not buffer:
                raise StorageError(f"buffer {buffer.name!r} not allocated here")
            del self._buffers[buffer.name]

    # ------------------------------------------------------------------
    # copy engines

    def copy_to_host_async(
        self,
        buffer: GPUBuffer,
        offset: int,
        length: int,
        destination: PinnedBuffer,
    ) -> "concurrent.futures.Future[int]":
        """Snapshot ``length`` bytes of ``buffer`` at ``offset`` into a
        pinned DRAM chunk via a copy engine.

        The byte range is captured *at submission time* — like issuing a
        DMA from a consistent source — so a training step that mutates the
        buffer after submission does not corrupt the snapshot.  Returns a
        future resolving to the number of bytes copied.
        """
        if self._closed:
            raise StorageError(f"{self.name} copy engines are shut down")
        payload = buffer.read_range(offset, length)
        future = self._engines.submit(self._do_copy, payload, destination)
        with self._lock:
            self._inflight = [f for f in self._inflight if not f.done()]
            self._inflight.append(future)
        return future

    def copy_to_host(
        self, buffer: GPUBuffer, offset: int, length: int, destination: PinnedBuffer
    ) -> int:
        """Synchronous variant of :meth:`copy_to_host_async`."""
        return self.copy_to_host_async(buffer, offset, length, destination).result()

    def _do_copy(self, payload: bytes, destination: PinnedBuffer) -> int:
        if self._pcie_bandwidth:
            time.sleep(len(payload) / self._pcie_bandwidth)
        destination.fill(payload)
        return len(payload)

    def copy_from_host(self, buffer: GPUBuffer, payload: bytes) -> None:
        """Load raw bytes back into a device buffer (used by recovery)."""
        flat = buffer.array.reshape(-1).view(np.uint8)
        if len(payload) != flat.nbytes:
            raise StorageError(
                f"payload of {len(payload)} bytes does not match buffer "
                f"{buffer.name} of {flat.nbytes} bytes"
            )
        if self._pcie_bandwidth:
            time.sleep(len(payload) / self._pcie_bandwidth)
        flat[:] = np.frombuffer(payload, dtype=np.uint8)

    def synchronize(self) -> None:
        """Wait for all in-flight copies (``cudaDeviceSynchronize``)."""
        with self._lock:
            pending = list(self._inflight)
        for future in pending:
            future.result()
        with self._lock:
            self._inflight = [f for f in self._inflight if not f.done()]

    def close(self) -> None:
        """Shut down the copy engines."""
        if not self._closed:
            self._closed = True
            self._engines.shutdown(wait=True)

    def __enter__(self) -> "SimulatedGPU":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
