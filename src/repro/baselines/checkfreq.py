"""The CheckFreq baseline (Mohan et al., FAST'21) — Figure 4 semantics.

CheckFreq splits a checkpoint into a *snapshot* phase (copy the state to
DRAM) and a *persist* phase (flush DRAM to storage), and overlaps the
persist with subsequent training.  Its defining limitation, which PCcheck
removes, is **one checkpoint at a time**: a new snapshot cannot start
until the previous persist finished, so at high checkpoint frequency the
training thread stalls waiting (the C₂-after-P₁ gap in Figure 4).

Implementation: the training thread captures the state into a DRAM
staging buffer inline (the snapshot — this is also the ``before_update``
consistency point, trivially satisfied because the copy is synchronous),
then hands it to a single background persist worker.  ``checkpoint()``
blocks while the worker is still busy with the previous checkpoint.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.baselines.base import CheckpointStrategy, State, stage
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout
from repro.storage.device import PersistentDevice
from repro.storage.dram import PinnedBuffer


class CheckFreqStrategy(CheckpointStrategy):
    """Snapshot-then-persist with a single in-flight checkpoint."""

    name = "checkfreq"

    def __init__(
        self, device: PersistentDevice, payload_capacity: int, writer_threads: int = 1
    ) -> None:
        super().__init__()
        from repro.core.meta import RECORD_SIZE

        self._layout = DeviceLayout.format(
            device, num_slots=2, slot_size=payload_capacity + RECORD_SIZE
        )
        self._engine = CheckpointEngine(self._layout, writer_threads=writer_threads)
        self._latest_step: Optional[int] = None
        # One pinned staging area reused for every snapshot: the strategy
        # allows a single in-flight checkpoint, and checkpoint() joins the
        # previous persist before re-filling it, so reuse is race-free.
        self._staging = PinnedBuffer(0, payload_capacity)
        self._pending: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self._lock = threading.Lock()

    @property
    def layout(self) -> DeviceLayout:
        """The on-device region (for recovery in tests and examples)."""
        return self._layout

    def checkpoint(self, state: State, step: int) -> None:
        start = time.monotonic()
        self.stats.checkpoints_started += 1
        # The defining stall: wait for the previous persist to finish.
        self._wait_pending()
        # Snapshot phase: capture into the reused DRAM staging buffer —
        # the one copy of the path; training may resume after this.  The
        # persist worker gets a view of the staged prefix, not a fresh
        # bytes object.
        snapshot = stage(state, self._staging)
        worker = threading.Thread(
            target=self._persist, args=(snapshot, step), daemon=True,
            name="checkfreq-persist",
        )
        self._pending = worker
        worker.start()
        self.stats.add_checkpoint_block(time.monotonic() - start)

    def _persist(self, snapshot: memoryview, step: int) -> None:
        try:
            result = self._engine.checkpoint(snapshot, step=step)
            with self._lock:
                if result.committed:
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

    def close(self) -> None:
        self.drain()
        self._engine.close()
