"""PCcheck's core: the concurrent checkpointing algorithm and orchestration.

Public entry points:

* :class:`~repro.core.engine.CheckpointEngine` — the Listing 1 protocol.
* :class:`~repro.core.orchestrator.PCcheckOrchestrator` — concurrent
  pipelined checkpoint sessions over an engine.
* :func:`~repro.core.recovery.recover` — load the newest valid checkpoint.
* :func:`~repro.core.autotune.tune` — the §3.4 configuration tool.
* :mod:`~repro.core.distributed` — multi-worker consistency.
"""

from repro.core.adaptive import AdaptiveIntervalController, Ewma
from repro.core.atomics import AtomicCounter, AtomicFlag, AtomicReference
from repro.core.autotune import (
    TuningResult,
    expected_runtime,
    functional_tw_probe,
    max_concurrency,
    min_checkpoint_interval,
    tune,
)
from repro.core.chunking import ChunkPlan, plan_chunks
from repro.core.config import (
    MemoryFootprint,
    PCcheckConfig,
    SystemParameters,
    UserConstraints,
    baseline_footprint,
)
from repro.core.distributed import (
    DistributedCoordinator,
    DistributedRank,
    RoundOutcome,
)
from repro.core.engine import CheckpointEngine, CheckpointResult, CheckpointTicket
from repro.core.inspect import DeviceReport, SlotReport, inspect_device, inspect_file
from repro.core.sharding import reassemble, shard_overhead_bytes, shard_payload
from repro.core.freelist import EMPTY, SlotQueue
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import CheckMeta
from repro.core.orchestrator import CheckpointHandle, PCcheckOrchestrator
from repro.core.recovery import (
    ConsistentCheckpoint,
    RecoveredCheckpoint,
    find_committed,
    recover,
    recover_consistent,
    try_recover,
    valid_checkpoints,
)
from repro.core.snapshot import BytesSource, GPUSource, SnapshotSource
from repro.core.writer import ParallelWriter, default_fence_mode, split_range

__all__ = [
    "EMPTY",
    "AdaptiveIntervalController",
    "AtomicCounter",
    "Ewma",
    "AtomicFlag",
    "AtomicReference",
    "BytesSource",
    "CheckMeta",
    "CheckpointEngine",
    "CheckpointHandle",
    "CheckpointResult",
    "CheckpointTicket",
    "DeviceReport",
    "ChunkPlan",
    "ConsistentCheckpoint",
    "DeviceLayout",
    "DistributedCoordinator",
    "DistributedRank",
    "RoundOutcome",
    "GPUSource",
    "Geometry",
    "MemoryFootprint",
    "PCcheckConfig",
    "PCcheckOrchestrator",
    "ParallelWriter",
    "RecoveredCheckpoint",
    "SlotQueue",
    "SlotReport",
    "SnapshotSource",
    "SystemParameters",
    "TuningResult",
    "UserConstraints",
    "baseline_footprint",
    "default_fence_mode",
    "expected_runtime",
    "inspect_device",
    "inspect_file",
    "find_committed",
    "functional_tw_probe",
    "max_concurrency",
    "min_checkpoint_interval",
    "plan_chunks",
    "reassemble",
    "recover",
    "recover_consistent",
    "shard_overhead_bytes",
    "shard_payload",
    "split_range",
    "try_recover",
    "tune",
    "valid_checkpoints",
]
