"""What one engine stack is: :class:`EngineSpec`, everything needed to
assemble it, and :class:`EngineStack`, the assembled components with
their leak accounting.  :func:`repro.service.pool.build_stack` turns the
one into the other, and nothing else in ``src/`` does."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.config import PCcheckConfig, validate_choice
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout
from repro.core.orchestrator import PCcheckOrchestrator
from repro.core.recovery import RecoveredCheckpoint
from repro.errors import ConfigError
from repro.storage.device import PersistentDevice
from repro.storage.dram import DRAMBufferPool
from repro.storage.ssd import SECTOR_SIZE
from repro.storage.tiering import TierPlan, TierPolicy

#: Valid ``backend=`` selectors for :class:`EngineSpec` (and therefore
#: :func:`repro.open_checkpointer` and the service CLI).
BACKENDS = ("ssd", "pmem", "faults")
#: Valid ``observability=`` levels: ``"off"`` (no device instrumentation,
#: no tracing), ``"metrics"`` (shared registry incl. devices), ``"full"``
#: (registry + lifecycle tracing).
OBSERVABILITY_LEVELS = ("off", "metrics", "full")


@dataclass(frozen=True)
class EngineSpec:
    """Everything needed to assemble one checkpoint engine stack.

    ``capacity_bytes`` is the largest checkpoint payload a tenant of this
    engine intends to write; the region is sized to ``(N + 1)`` slots of
    that payload plus metadata (Table 1's storage footprint).

    ``persist_bandwidth`` (bytes/second) throttles the simulated
    backends' durability barriers — the service tests use it to model a
    saturated or slow device; it is rejected for the real-file ``ssd``
    backend, whose speed is whatever the filesystem delivers.

    ``stripe_devices``/``stripe_size`` shard the region across N member
    files (``{path}.s0`` … ``.s{N-1}``) behind a
    :class:`~repro.storage.striped.StripedDevice`, so one checkpoint's
    persist bandwidth aggregates across devices; they are ``ssd``-only,
    as the simulated backends have no second spindle to escape to.  An
    ``ssd`` region's file(s) are always opened in the O_DIRECT mode of
    :class:`~repro.storage.ssd.FileBackedSSD`, so staged payloads skip
    the page cache.
    """

    capacity_bytes: int
    num_concurrent: int = 2
    writer_threads: int = 3
    chunk_size: Optional[int] = None
    num_chunks: int = 2
    backend: str = "ssd"
    path: Optional[str] = None
    observability: str = "metrics"
    persist_bandwidth: Optional[float] = None
    stripe_devices: int = 1
    stripe_size: int = 1 << 20
    #: Tiered storage: keep the commit path on the (hot) backend device
    #: and asynchronously demote committed checkpoints to a warm device
    #: (``{path}.warm`` beside a region file the stack opened itself, an
    #: in-memory SSD over an injected or simulated device) and a
    #: remote object store, per this :class:`~repro.storage.tiering.TierPlan`.
    tiers: Optional[TierPlan] = None

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError(
                f"capacity must be positive, got {self.capacity_bytes}"
            )
        validate_choice("backend", self.backend, BACKENDS)
        validate_choice(
            "observability level", self.observability, OBSERVABILITY_LEVELS
        )
        if self.persist_bandwidth is not None:
            if self.backend == "ssd":
                raise ConfigError(
                    "persist_bandwidth only throttles the simulated "
                    "backends (pmem, faults), not backend='ssd'"
                )
            if self.persist_bandwidth <= 0:
                raise ConfigError(
                    f"persist bandwidth must be positive, "
                    f"got {self.persist_bandwidth}"
                )
        if self.stripe_devices < 1:
            raise ConfigError(
                f"stripe_devices must be >= 1, got {self.stripe_devices}"
            )
        if self.stripe_devices > 1 and self.backend != "ssd":
            raise ConfigError(
                "striping shards one region across real files; only "
                "backend='ssd' has files to stripe over"
            )
        if self.stripe_size <= 0 or self.stripe_size % SECTOR_SIZE:
            raise ConfigError(
                f"stripe_size must be a positive multiple of {SECTOR_SIZE}, "
                f"got {self.stripe_size}"
            )
        # Validate the Table 2 knobs eagerly (PCcheckConfig re-checks at
        # assembly time; failing here keeps errors at spec construction).
        self.pccheck_config()

    def pccheck_config(self) -> PCcheckConfig:
        """The validated engine configuration this spec describes."""
        return PCcheckConfig(
            num_concurrent=self.num_concurrent,
            writer_threads=self.writer_threads,
            chunk_size=self.chunk_size,
            num_chunks=self.num_chunks,
        )

    def validate_buildable(self) -> None:
        """Check the spec can build devices (no injected device given)."""
        if self.backend == "ssd" and not self.path:
            raise ConfigError("backend='ssd' requires a file path")

    def member_name(self, base: str, index: int, pool_size: int) -> str:
        """Distinct name per pool member (metric label isolation):
        ``base`` verbatim for a size-1 pool, suffixed for larger ones."""
        return base if pool_size <= 1 else f"{base}.e{index}"

    def member_path(self, index: int, pool_size: int) -> Optional[str]:
        """On-disk path of pool member ``index`` — ``path`` verbatim for
        a size-1 pool, so ``open_checkpointer`` reopens what it wrote."""
        if self.path is None:
            return None
        return self.member_name(self.path, index, pool_size)

    def write_align(self) -> int:
        """Alignment the built device will ask of write boundaries."""
        if self.backend != "ssd":
            return 1
        return self.stripe_size if self.stripe_devices > 1 else SECTOR_SIZE


@dataclass(eq=False, kw_only=True)
class EngineStack:
    """One assembled engine: device + layout + engine + orchestrator +
    staging DRAM pool, plus whatever the region held at open time."""

    device: PersistentDevice
    layout: DeviceLayout
    engine: CheckpointEngine
    orchestrator: PCcheckOrchestrator
    config: PCcheckConfig
    dram: DRAMBufferPool
    #: Checkpoint recovered from the region at open time, if any.
    recovered: Optional[RecoveredCheckpoint] = None
    observability: str = "metrics"
    #: Seat of this stack within its pool (0 for standalone stacks).
    index: int = 0
    #: Demotion policy when the spec asked for tiered storage.
    tiering: Optional[TierPolicy] = None
    #: Error swallowed on the release path (diagnostics only — the
    #: tenant already observed it through its checkpoint handles).
    release_error: Optional[BaseException] = field(default=None, init=False)

    @property
    def defunct(self) -> bool:
        """True when the stack must not serve another tenant (the
        pipelines died on a crashed device)."""
        return self.orchestrator.fatal_error is not None

    def leak_report(self) -> Dict[str, int]:
        """Slot/buffer accounting for this stack (exact at quiescence,
        when every slot is free except the one the committed checkpoint
        occupies — invariant 4)."""
        committed = self.engine.committed() is not None
        expected = self.layout.num_slots - (1 if committed else 0)
        free = self.engine.free_slots
        held = len(self.engine.held_slots)
        return {
            "index": self.index,
            "free_slots": free,
            "expected_free_slots": expected,
            "held_slots": held,
            "leaked_slots": max(0, expected - free - held),
            "dram_total": self.dram.total_chunks,
            "dram_free": self.dram.free_chunks,
            "leaked_buffers": self.dram.total_chunks - self.dram.free_chunks,
        }

    def stop(self) -> Dict[str, int]:
        """Stop every thread the stack runs — the demotion worker, the
        pipelines (drained first), the writer pool — and return the leak
        report, taken once they are quiescent (accounting on a live
        stack would race in-flight buffer releases).  The device stays
        open: the crash sweep reads its image after the run."""
        if self.tiering is not None:
            self.tiering.stop()
        self.orchestrator.close()
        return self.leak_report()

    def close(self) -> Dict[str, int]:
        """Tear the stack down — :meth:`stop`, then release the device —
        and return the leak report."""
        report = self.stop()
        self.device.close()
        return report
