"""Snapshot sources: where checkpoint bytes come from.

The orchestrator is agnostic to whether the training state lives in
simulated GPU memory or plain host bytes; it snapshots through the
:class:`SnapshotSource` protocol.  A snapshot must be *consistent*: the
bytes captured correspond to one logical version of the state, so the
trainer must not run its weight update while a capture is in progress —
this is exactly the T→U stall of Figure 6, and the orchestrator exposes a
``wait_for_snapshots`` hook the trainer calls before each update.

Capture is chunked: each chunk is read from the source into a pinned DRAM
buffer (through the simulated GPU's copy engines when the state lives on
a GPU), then queued to the writer threads, which write it while the next
chunk is being captured (Figure 7's pipelining).
"""

from __future__ import annotations

from typing import Protocol

from repro.storage.device import Buffer, as_view
from repro.storage.dram import PinnedBuffer
from repro.storage.gpu import GPUBuffer, SimulatedGPU


class SnapshotSource(Protocol):
    """Anything the orchestrator can checkpoint."""

    def snapshot_size(self) -> int:
        """Total bytes one checkpoint of this source occupies."""
        ...

    def capture_chunk(self, offset: int, length: int, dest: PinnedBuffer) -> None:
        """Copy ``[offset, offset+length)`` of the state into ``dest``.

        Called only between updates (the consistency contract), so the
        underlying state is stable for the duration of the call.
        """
        ...


class BytesSource:
    """Snapshot source over host memory — any buffer-protocol object.

    The payload is held as a flat :class:`memoryview`, so chunk captures
    slice it without materializing intermediate ``bytes`` — the staging
    copy into the pinned buffer is the only copy on this path.  The caller
    owns the underlying memory and must keep it stable while a capture is
    in flight (the same consistency contract every source carries).
    """

    def __init__(self, data: Buffer) -> None:
        self._data = as_view(data)

    def replace(self, data: Buffer) -> None:
        """Swap in a new state version (between updates)."""
        self._data = as_view(data)

    def snapshot_size(self) -> int:
        return len(self._data)

    def capture_chunk(self, offset: int, length: int, dest: PinnedBuffer) -> None:
        dest.fill(self._data[offset : offset + length])


def as_source(state) -> SnapshotSource:
    """``state`` as a :class:`SnapshotSource` — the one normaliser every
    checkpoint entry point (``Checkpointer``, ``CheckpointService``, the
    training-loop strategies) shares.

    ``SnapshotSource`` is a non-runtime-checkable Protocol, so a source
    is detected structurally and passed through; anything else (bytes,
    numpy arrays, ...) must speak the buffer protocol and is wrapped
    zero-copy in a :class:`BytesSource`.
    """
    if hasattr(state, "snapshot_size") and hasattr(state, "capture_chunk"):
        return state
    return BytesSource(state)


class GPUSource:
    """Snapshot source over a simulated GPU buffer, via its copy engines.

    Each chunk capture is a DMA through the GPU's copy engine pool, so
    captures contend for engines with other in-flight checkpoints exactly
    as ``cudaMemcpyAsync`` streams would.
    """

    def __init__(self, gpu: SimulatedGPU, buffer: GPUBuffer) -> None:
        self._gpu = gpu
        self._buffer = buffer

    @property
    def buffer(self) -> GPUBuffer:
        """The device allocation being checkpointed."""
        return self._buffer

    def snapshot_size(self) -> int:
        return self._buffer.nbytes

    def capture_chunk(self, offset: int, length: int, dest: PinnedBuffer) -> None:
        self._gpu.copy_to_host(self._buffer, offset, length, dest)
