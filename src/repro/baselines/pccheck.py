"""PCcheck as a training-loop strategy.

Adapts the :class:`~repro.core.orchestrator.PCcheckOrchestrator` to the
:class:`~repro.baselines.base.CheckpointStrategy` interface so the same
:class:`~repro.training.loop.Trainer` can run PCcheck and every baseline
interchangeably — the setup of the paper's Figure 8 comparisons.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.baselines.base import CheckpointStrategy, State
from repro.core.config import PCcheckConfig
from repro.core.layout import DeviceLayout
from repro.core.orchestrator import PCcheckOrchestrator
from repro.core.snapshot import as_source
from repro.service.pool import EngineSpec, build_stack
from repro.storage.device import PersistentDevice


class PCcheckStrategy(CheckpointStrategy):
    """Concurrent checkpointing with up to N in flight."""

    name = "pccheck"

    def __init__(
        self,
        device: PersistentDevice,
        payload_capacity: int,
        config: Optional[PCcheckConfig] = None,
        metrics=None,
        tracer=None,
    ) -> None:
        """``metrics``/``tracer`` (a
        :class:`~repro.obs.metrics.MetricsRegistry` and a
        :class:`~repro.obs.trace.Tracer`) instrument the whole stack —
        engine, orchestrator, and device — for the observability
        benchmarks; omitted, telemetry costs nothing.  The stack is the
        one :func:`~repro.service.pool.build_stack` assembles over the
        caller's ``device`` (formatted fresh; the caller keeps owning
        it)."""
        super().__init__()
        config = config or PCcheckConfig()
        stack = build_stack(
            EngineSpec(
                capacity_bytes=payload_capacity,
                num_concurrent=config.num_concurrent,
                writer_threads=config.writer_threads,
                chunk_size=config.chunk_size,
                num_chunks=config.num_chunks,
                observability="off" if metrics is None else "metrics",
            ),
            device=device,
            metrics=metrics,
            tracer=tracer,
        )
        self._layout = stack.layout
        self._orchestrator = stack.orchestrator

    @property
    def layout(self) -> DeviceLayout:
        """The on-device region (for recovery in tests and examples)."""
        return self._layout

    @property
    def orchestrator(self) -> PCcheckOrchestrator:
        """The underlying orchestrator (drain, engine, metrics)."""
        return self._orchestrator

    def before_update(self) -> None:
        waited = self._orchestrator.wait_for_snapshots()
        self.stats.add_update_block(waited)

    def checkpoint(self, state: State, step: int) -> None:
        start = time.monotonic()
        self.stats.checkpoints_started += 1
        self._orchestrator.checkpoint_async(as_source(state), step=step)
        self.stats.add_checkpoint_block(time.monotonic() - start)

    def drain(self) -> None:
        results = self._orchestrator.drain()
        self.stats.checkpoints_completed += len(results)

    def latest_recoverable_step(self) -> Optional[int]:
        committed = self._orchestrator.engine.committed()
        return committed.step if committed is not None else None

    def close(self) -> None:
        self._orchestrator.close()
