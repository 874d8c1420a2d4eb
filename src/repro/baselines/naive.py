"""The traditional synchronous baseline (Figure 3).

PyTorch/TensorFlow-style checkpointing: training stops, the state is
copied out and persisted, and only then does the next iteration start.
All four phases — T, U, C (copy), P (persist) — are strictly sequential.

Implementation: the training thread copies the state out into a DRAM
staging buffer (C), then persists it inline (P) through a dedicated
two-slot engine (one in flight + one valid, exactly the ``2 × m`` storage
row of Table 1).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.baselines.base import CheckpointStrategy, State, stage
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout
from repro.storage.device import PersistentDevice
from repro.storage.dram import PinnedBuffer


class NaiveStrategy(CheckpointStrategy):
    """Fully synchronous checkpointing over an engine with N = 1."""

    name = "naive"

    def __init__(
        self, device: PersistentDevice, payload_capacity: int, writer_threads: int = 1
    ) -> None:
        super().__init__()
        from repro.core.meta import RECORD_SIZE

        self._layout = DeviceLayout.format(
            device, num_slots=2, slot_size=payload_capacity + RECORD_SIZE
        )
        self._engine = CheckpointEngine(self._layout, writer_threads=writer_threads)
        self._staging = PinnedBuffer(0, payload_capacity)
        self._latest_step: Optional[int] = None

    @property
    def layout(self) -> DeviceLayout:
        """The on-device region (for recovery in tests and examples)."""
        return self._layout

    def checkpoint(self, state: State, step: int) -> None:
        start = time.monotonic()
        self.stats.checkpoints_started += 1
        result = self._engine.checkpoint(
            stage(state, self._staging), step=step
        )
        if result.committed:
            self._latest_step = step
        self.stats.checkpoints_completed += 1
        self.stats.add_checkpoint_block(time.monotonic() - start)

    def latest_recoverable_step(self) -> Optional[int]:
        return self._latest_step

    def close(self) -> None:
        self._engine.close()
