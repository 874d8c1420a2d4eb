"""Instrumented demo workload for the observability CLI verbs.

``pccheck-repro metrics`` and ``pccheck-repro trace`` both need a
realistic concurrent-checkpoint run to observe: this module has
:func:`repro.service.pool.build_stack` assemble a fully instrumented
PCcheck stack over a bandwidth-throttled in-memory SSD (so the
③-capture/④-persist stages genuinely overlap and the stall classes show
up), pushes a configurable number of checkpoints through it, and hands
back the registry and tracer for exposition.

The same workload backs both verbs so a trace and a metrics dump taken
with identical knobs describe the same execution shape.
"""

from __future__ import annotations

from dataclasses import dataclass
import time
from typing import Optional

import numpy as np

from repro.core.layout import Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.snapshot import BytesSource
from repro.obs.metrics import M, MetricsRegistry
from repro.service.pool import EngineSpec, build_stack
from repro.storage.ssd import InMemorySSD

#: Default persist bandwidth for the demo device (bytes/second).  Slow
#: enough that four concurrent checkpoints genuinely queue on slots and
#: buffers, fast enough that the default run finishes in well under a
#: second.
DEMO_PERSIST_BANDWIDTH = 96e6


@dataclass
class DemoRun:
    """Everything the CLI verbs need from one demo execution."""

    metrics: MetricsRegistry
    tracer: object  # Tracer or NullTracer
    checkpoints: int
    committed: int
    elapsed_seconds: float

    def summary_lines(self):
        stalls = (
            self.metrics.value(M.SLOT_WAIT_SECONDS),
            self.metrics.value(M.BUFFER_WAIT_SECONDS),
        )
        return [
            f"checkpoints submitted : {self.checkpoints}",
            f"checkpoints committed : {self.committed}",
            f"wall time             : {self.elapsed_seconds:.3f} s",
            f"slot wait             : {stalls[0]:.4f} s",
            f"buffer wait           : {stalls[1]:.4f} s",
        ]


def run_demo_workload(
    *,
    checkpoints: int = 8,
    concurrent: int = 4,
    payload_bytes: int = 64 * 1024,
    num_chunks: int = 2,
    writer_threads: int = 3,
    persist_bandwidth: Optional[float] = DEMO_PERSIST_BANDWIDTH,
    observability: str = "full",
    seed: int = 0,
) -> DemoRun:
    """Run ``checkpoints`` concurrent checkpoints through an instrumented
    stack and return the telemetry.

    ``observability`` follows :func:`repro.open_checkpointer`'s levels:
    ``"metrics"`` records only the registry, ``"full"`` adds lifecycle
    spans.  (``"off"`` is accepted for symmetry; the tier-1 overhead
    guard compares it against ``"full"``.)
    """
    registry = MetricsRegistry()
    geometry = Geometry(
        num_slots=concurrent + 1, slot_size=payload_bytes + RECORD_SIZE
    )
    stack = build_stack(
        EngineSpec(
            capacity_bytes=payload_bytes,
            num_concurrent=concurrent,
            writer_threads=writer_threads,
            num_chunks=num_chunks,
            observability=observability,
        ),
        device=InMemorySSD(
            geometry.total_size,
            name="demo-ssd",
            persist_bandwidth=persist_bandwidth,
        ),
        metrics=registry,
    )
    orchestrator = stack.orchestrator

    rng = np.random.default_rng(seed)
    base = rng.integers(0, 256, payload_bytes, dtype=np.uint8)
    start = time.perf_counter()
    try:
        for step in range(1, checkpoints + 1):
            payload = base.copy()
            payload[: min(8, payload_bytes)] = step % 256
            # BytesSource takes the array's buffer directly; the held
            # memoryview keeps the array alive until capture finishes.
            orchestrator.checkpoint_async(BytesSource(payload), step=step)
        orchestrator.drain()
    finally:
        stack.close()
    elapsed = time.perf_counter() - start

    return DemoRun(
        metrics=registry,
        tracer=stack.engine.tracer,
        checkpoints=checkpoints,
        committed=int(registry.value(M.COMMITS)),
        elapsed_seconds=elapsed,
    )
