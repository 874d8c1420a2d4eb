"""The checkpoint-strategy interface the training loop drives.

Every strategy — PCcheck and the baselines it is compared against —
plugs into the :class:`~repro.training.loop.Trainer` through two hooks:

``before_update()``
    Called immediately before the optimizer update (the T→U boundary of
    Figure 6).  A strategy that snapshots asynchronously blocks here
    until in-flight snapshots captured a consistent state; synchronous
    strategies no-op.

``checkpoint(state, step)``
    Called at each checkpoint boundary with the training state as a
    :class:`~repro.core.snapshot.SnapshotSource` (raw buffers are
    accepted too; :func:`~repro.core.snapshot.as_source` normalises).
    Blocking behaviour is the strategy's defining property: the
    traditional baseline blocks through copy+persist, CheckFreq blocks
    only while the *previous* checkpoint is still persisting, GPM blocks
    through its direct persist, and PCcheck (§3) almost never blocks
    thanks to concurrent checkpoints.

Source lifetime: the source the trainer passes aliases the *live*
parameter and optimizer arrays — nothing was copied to build it.  A
strategy must be done reading it when ``checkpoint()`` returns or, at
the latest, when the next ``before_update()`` returns; after that the
optimizer mutates the arrays in place.  The baselines capture into
their own staging buffer inside ``checkpoint()`` (:func:`stage`);
PCcheck captures on a pipeline thread and joins it in
``before_update()`` — Figure 6's T→U stall.  A strategy that needs the
bytes for longer copies them; one that wraps another strategy forwards
``before_update()``.

Strategies also expose stall accounting so benchmarks can attribute
training slowdown to checkpointing.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Optional, Union

from repro.core.snapshot import SnapshotSource, as_source
from repro.errors import OutOfSpaceError
from repro.storage.device import Buffer
from repro.storage.dram import PinnedBuffer

#: What ``checkpoint()`` accepts: a snapshot source or a raw buffer.
State = Union[SnapshotSource, Buffer]


def stage(state: State, staging: PinnedBuffer) -> memoryview:
    """Snapshot all of ``state`` into ``staging`` — a baseline's one
    copy — and return a view of the staged bytes.

    The view is valid until ``staging`` is next filled.
    """
    source = as_source(state)
    size = source.snapshot_size()
    if size > staging.size:
        raise OutOfSpaceError(
            f"checkpoint of {size} bytes exceeds staging capacity "
            f"{staging.size}"
        )
    source.capture_chunk(0, size, staging)
    return staging.view()


class StrategyStats:
    """Time a strategy spent blocking the training thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.checkpoint_block_seconds = 0.0
        self.update_block_seconds = 0.0
        self.checkpoints_started = 0
        self.checkpoints_completed = 0

    def add_checkpoint_block(self, seconds: float) -> None:
        with self._lock:
            self.checkpoint_block_seconds += seconds

    def add_update_block(self, seconds: float) -> None:
        with self._lock:
            self.update_block_seconds += seconds

    @property
    def total_stall_seconds(self) -> float:
        """All training-thread time lost to checkpointing."""
        with self._lock:
            return self.checkpoint_block_seconds + self.update_block_seconds


class CheckpointStrategy(ABC):
    """Base class for functional checkpoint strategies."""

    #: Short identifier used by the registry and result tables.
    name: str = "base"

    def __init__(self) -> None:
        self.stats = StrategyStats()

    def before_update(self) -> None:
        """Block until pending snapshots are consistent (default: no-op)."""

    @abstractmethod
    def checkpoint(self, state: State, step: int) -> None:
        """Persist (or schedule persisting) ``state`` for ``step``."""

    def drain(self) -> None:
        """Wait for all scheduled checkpoints to finish (default: no-op)."""

    def close(self) -> None:
        """Release resources; :meth:`drain` first if needed."""

    def latest_recoverable_step(self) -> Optional[int]:
        """Step of the newest durably committed checkpoint, if known."""
        return None

    def __enter__(self) -> "CheckpointStrategy":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
