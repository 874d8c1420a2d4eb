"""A functional Gemini baseline (Wang et al., SOSP'23).

Gemini checkpoints to the **CPU memory of a remote machine** instead of
persistent storage: the training state streams over the inter-machine
network into a peer's DRAM, double-buffered there so one complete
checkpoint always survives the sender's failure (but not the receiver's
— that is Gemini's availability trade-off versus storage-backed
designs).

This implementation reproduces the moving parts with threads:

* :class:`RemoteMemoryStore` — the peer's DRAM: two alternating buffers
  plus a committed index, flipped only after a full transfer arrives;
* :class:`NetworkChannel` — a bandwidth-throttled, chunked byte pipe
  standing in for the NIC (the paper measured 15 Gbps between
  a2-highgpu-1g VMs);
* :class:`GeminiStrategy` — the sender: one checkpoint in flight at a
  time (the same serialisation CheckFreq has), streamed chunk by chunk.

Recovery asks the remote store for its newest committed checkpoint.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Tuple

from repro.baselines.base import CheckpointStrategy, State, stage
from repro.core.snapshot import as_source
from repro.errors import NoCheckpointError, StorageError
from repro.storage.device import Buffer, as_view, copy_into
from repro.storage.dram import PinnedBuffer


class NetworkChannel:
    """A chunked, bandwidth-throttled byte pipe (the inter-VM network)."""

    def __init__(self, bandwidth: Optional[float] = None,
                 chunk_size: int = 1 << 20) -> None:
        if chunk_size <= 0:
            raise StorageError(f"chunk size must be positive, got {chunk_size}")
        self._bandwidth = bandwidth
        self._chunk_size = chunk_size
        self.bytes_sent = 0

    def send(self, payload: Buffer, deliver) -> None:
        """Stream ``payload`` chunk by chunk into ``deliver(offset, data)``.

        Chunks are memoryview slices of the payload — a NIC scatter-gathers
        from the source buffer; it does not re-materialize each chunk.
        """
        view = as_view(payload)
        for offset in range(0, len(view), self._chunk_size):
            chunk = view[offset : offset + self._chunk_size]
            if self._bandwidth:
                time.sleep(len(chunk) / self._bandwidth)
            deliver(offset, chunk)
            self.bytes_sent += len(chunk)


class RemoteMemoryStore:
    """The remote peer's CPU memory: double-buffered checkpoint slots."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise StorageError(f"capacity must be positive, got {capacity}")
        self._buffers: List[bytearray] = [bytearray(capacity), bytearray(capacity)]
        self._lengths = [0, 0]
        self._steps = [-1, -1]
        self._committed: Optional[int] = None  # buffer index
        self._lock = threading.Lock()

    def begin(self, step: int) -> int:
        """Reserve the non-committed buffer for an incoming checkpoint."""
        with self._lock:
            target = 0 if self._committed != 0 else 1
            self._lengths[target] = 0
            self._steps[target] = step
            return target

    def receive(self, buffer_index: int, offset: int, chunk: Buffer) -> None:
        """Land one network chunk into the staging buffer."""
        buffer = self._buffers[buffer_index]
        chunk = as_view(chunk)
        if offset + len(chunk) > len(buffer):
            raise StorageError("checkpoint exceeds remote buffer capacity")
        copy_into(buffer, offset, chunk)
        with self._lock:
            self._lengths[buffer_index] = max(
                self._lengths[buffer_index], offset + len(chunk)
            )

    def commit(self, buffer_index: int) -> None:
        """Flip the committed pointer — the transfer completed."""
        with self._lock:
            self._committed = buffer_index

    def latest(self) -> Tuple[int, bytes]:
        """The newest committed checkpoint as ``(step, payload)``."""
        with self._lock:
            if self._committed is None:
                raise NoCheckpointError("remote store holds no checkpoint")
            index = self._committed
            return self._steps[index], bytes(
                self._buffers[index][: self._lengths[index]]
            )

    def fail(self) -> None:
        """Simulate the *remote* machine failing: everything is lost.

        This is the scenario where Gemini, unlike the storage-backed
        designs, cannot recover (Table 1: zero persistent storage).
        """
        with self._lock:
            self._committed = None
            self._buffers = [bytearray(len(b)) for b in self._buffers]
            self._lengths = [0, 0]


class GeminiStrategy(CheckpointStrategy):
    """Checkpoint to remote CPU memory, one transfer at a time."""

    name = "gemini"

    def __init__(self, store: RemoteMemoryStore,
                 channel: Optional[NetworkChannel] = None) -> None:
        super().__init__()
        self._store = store
        self._channel = channel or NetworkChannel()
        # Reused snapshot staging, grown on demand: one transfer is in
        # flight at a time and checkpoint() joins the previous one before
        # re-filling, so reuse is race-free.
        self._staging = PinnedBuffer(0, 0)
        self._pending: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self._latest_step: Optional[int] = None
        self._lock = threading.Lock()

    @property
    def store(self) -> RemoteMemoryStore:
        """The remote memory this strategy checkpoints into."""
        return self._store

    def checkpoint(self, state: State, step: int) -> None:
        start = time.monotonic()
        self.stats.checkpoints_started += 1
        self._wait_pending()  # one checkpoint at a time (like CheckFreq)
        # Snapshot into the reused staging buffer (the one copy), then
        # stream a view of it — no per-checkpoint bytes materialization.
        source = as_source(state)
        if source.snapshot_size() > self._staging.size:
            self._staging = PinnedBuffer(0, source.snapshot_size())
        snapshot = stage(source, self._staging)
        worker = threading.Thread(
            target=self._transfer, args=(snapshot, step), daemon=True,
            name="gemini-transfer",
        )
        self._pending = worker
        worker.start()
        self.stats.add_checkpoint_block(time.monotonic() - start)

    def _transfer(self, payload: memoryview, step: int) -> None:
        try:
            buffer_index = self._store.begin(step)
            self._channel.send(
                payload,
                lambda offset, chunk: self._store.receive(
                    buffer_index, offset, chunk
                ),
            )
            self._store.commit(buffer_index)
            with self._lock:
                self._latest_step = step
                self.stats.checkpoints_completed += 1
        except BaseException as exc:  # noqa: BLE001 - surfaced on next call
            with self._lock:
                self._error = exc

    def _wait_pending(self) -> None:
        pending = self._pending
        if pending is not None:
            pending.join()
            self._pending = None
        with self._lock:
            if self._error is not None:
                error, self._error = self._error, None
                raise error

    def drain(self) -> None:
        self._wait_pending()

    def latest_recoverable_step(self) -> Optional[int]:
        with self._lock:
            return self._latest_step

    def recover(self) -> Tuple[int, bytes]:
        """Fetch the newest checkpoint back from the remote peer."""
        return self._store.latest()

    def close(self) -> None:
        self.drain()
