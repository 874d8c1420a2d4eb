"""The GPM baseline (Pandey et al., ASPLOS'22).

GPM persists GPU state to PMEM (or, in the paper's extension, to an
mmapped SSD file) using GPU *copy kernels* through UVM — no intermediate
DRAM staging — and **stalls training for the whole persist**: the GPU's
compute is occupied by the copy kernels and the checkpoint must be
durable before the next iteration proceeds (``cudaDeviceSynchronize`` +
``msync`` in the paper's SSD adaptation).

Functionally that makes GPM a synchronous direct-write strategy.  It
differs from :class:`~repro.baselines.naive.NaiveStrategy` in the data
path it models: a single writer stream (copy kernels serialise on the
PCIe link) and persistence via one barrier at the end.  The copy kernels'
read of GPU memory is the one :func:`~repro.baselines.base.stage` call —
a :class:`~repro.core.snapshot.SnapshotSource` can only be read through a
capture — and nothing overlaps it; the buffer it lands in stands in for
the UVM mapping, not for a DRAM tier (Table 1's "no DRAM" row for GPM is
:func:`repro.core.config.baseline_footprint`, not this class's RSS).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.baselines.base import CheckpointStrategy, State, stage
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout
from repro.storage.device import PersistentDevice
from repro.storage.dram import PinnedBuffer


class GPMStrategy(CheckpointStrategy):
    """Stall-and-persist directly to the device (UVM-style)."""

    name = "gpm"

    def __init__(self, device: PersistentDevice, payload_capacity: int) -> None:
        super().__init__()
        from repro.core.meta import RECORD_SIZE

        self._layout = DeviceLayout.format(
            device, num_slots=2, slot_size=payload_capacity + RECORD_SIZE
        )
        # One writer thread: GPM's copy kernels stream over a single
        # GPU-device mapping rather than parallel CPU writers.
        self._engine = CheckpointEngine(self._layout, writer_threads=1)
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
