"""The crash-consistency sweep harness.

Given a workload and a fault mode, the harness

1. runs the workload once uninstrumented to count its mutating device
   operations (the crash-point space) and, for offset-targeted sweeps,
   to enumerate the matching occurrences;
2. replays the workload once per crash point on a fresh device, with a
   :class:`~repro.storage.faults.CrashPointDevice` injecting power loss
   at exactly that point (optionally with torn writes and randomized
   cache-line survival);
3. recovers after each crash and checks the §4.1 guarantee plus counter
   monotonicity against the run's own journal of pre-crash commits;
4. collects every violation with a self-contained reproducer command.

Determinism: the per-point RNG is seeded from ``(seed, point)``, so a
reported reproducer replays the identical torn-write cut and cache-line
survival pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.crashsweep.workloads import WORKLOADS, Workload
from repro.core.layout import SUPERBLOCK_SIZE, Geometry
from repro.core.meta import RECORD_SIZE
from repro.errors import EngineError, InvariantViolationError
from repro.storage.faults import (
    CrashPointDevice,
    DeviceOp,
    OffsetCrashSchedule,
    OpCountSchedule,
)
from repro.storage.pmem import SimulatedPMEM
from repro.storage.ssd import InMemorySSD

#: Byte range of the commit record — the target of ``--target
#: commit-record`` sweeps ("crash during the commit-record persist").
COMMIT_RECORD_RANGE = (SUPERBLOCK_SIZE, SUPERBLOCK_SIZE + RECORD_SIZE)

_DEVICE_CLASSES = {"ssd": InMemorySSD, "pmem": SimulatedPMEM}


@dataclass(frozen=True)
class WorkloadSpec:
    """Static parameters of one sweep's workload runs."""

    steps: int = 3
    num_slots: int = 3
    payload_capacity: int = 512
    writer_threads: int = 2
    chunk_size: int = 128
    num_chunks: int = 2
    sanitize: bool = True
    world_size: int = 2
    barrier_timeout: float = 0.25
    #: Reader worlds the elastic workload re-partitions recovery onto.
    elastic_readers: tuple = (2, 8)

    @property
    def slot_size(self) -> int:
        return self.payload_capacity + RECORD_SIZE

    def geometry(self) -> Geometry:
        return Geometry(num_slots=self.num_slots, slot_size=self.slot_size)


@dataclass(frozen=True)
class CrashSweepConfig:
    """Everything one sweep needs; defaults give a fast, meaningful run."""

    workload: str = "engine"
    steps: int = 3
    num_slots: Optional[int] = None  #: None → the workload's default_slots
    #: None → the workload's default_payload (512 B but for the
    #: streamed one-chunk driver).
    payload_capacity: Optional[int] = None
    writer_threads: int = 2
    chunk_size: int = 128
    num_chunks: int = 2
    device: str = "ssd"  #: "ssd" | "pmem"
    #: RNG seed for cache-line survival and torn-write cuts; ``None``
    #: drops every unpersisted byte deterministically.
    seed: Optional[int] = None
    torn_writes: bool = False
    #: Sweep every ``stride``-th crash point.
    stride: int = 1
    #: Cap on swept points (evenly subsampled); ``None`` sweeps all.
    max_points: Optional[int] = None
    #: ``None`` sweeps all ops; ``"commit-record"`` sweeps only ops
    #: touching the commit record.
    target: Optional[str] = None
    sanitize: bool = True
    barrier_timeout: float = 0.25
    #: Writer world size for multi-rank workloads; ``None`` → the
    #: workload's ``default_world`` (4 for ``elastic``, else 2).
    world_size: Optional[int] = None

    def spec(self) -> WorkloadSpec:
        workload = WORKLOADS.get(self.workload)
        if workload is None:
            raise EngineError(
                f"unknown workload {self.workload!r}; "
                f"choose from {sorted(WORKLOADS)}"
            )
        return WorkloadSpec(
            steps=self.steps,
            num_slots=self.num_slots or workload.default_slots,
            payload_capacity=self.payload_capacity or workload.default_payload,
            writer_threads=self.writer_threads,
            chunk_size=self.chunk_size,
            num_chunks=self.num_chunks,
            sanitize=self.sanitize,
            world_size=self.world_size or workload.default_world,
            barrier_timeout=self.barrier_timeout,
        )


@dataclass
class PointOutcome:
    """What happened at one crash point."""

    point: int
    descriptor: str
    crashed: bool
    acked_steps: List[int]
    recovered_step: Optional[int]
    recovered_source: str
    violations: List[str] = field(default_factory=list)
    reproducer: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "descriptor": self.descriptor,
            "crashed": self.crashed,
            "acked_steps": self.acked_steps,
            "recovered_step": self.recovered_step,
            "recovered_source": self.recovered_source,
            "violations": self.violations,
            "reproducer": self.reproducer,
        }


@dataclass
class SweepReport:
    """Aggregate of a full sweep; rendered by ``crashsweep.report``."""

    config: CrashSweepConfig
    total_ops: int
    outcomes: List[PointOutcome]

    @property
    def violations(self) -> List[PointOutcome]:
        return [o for o in self.outcomes if o.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return {
            "config": asdict(self.config),
            "total_ops": self.total_ops,
            "points_swept": len(self.outcomes),
            "ok": self.ok,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def _make_device(
    config: CrashSweepConfig,
    spec: WorkloadSpec,
    schedule=None,
    rng: Optional[np.random.Generator] = None,
    record_ops: bool = False,
) -> CrashPointDevice:
    inner_cls = _DEVICE_CLASSES.get(config.device)
    if inner_cls is None:
        raise EngineError(
            f"unknown device {config.device!r}; "
            f"choose from {sorted(_DEVICE_CLASSES)}"
        )
    inner = inner_cls(capacity=spec.geometry().total_size)
    return CrashPointDevice(
        inner,
        schedule=schedule,
        rng=rng,
        torn_writes=config.torn_writes and rng is not None,
        record_ops=record_ops,
    )


def _rng_for(config: CrashSweepConfig, point: int) -> Optional[np.random.Generator]:
    seed = config.seed
    if seed is None and config.torn_writes:
        seed = 0  # torn cuts need an rng even in no-survival mode
    if seed is None:
        return None
    return np.random.default_rng([seed, point])


def count_crash_points(
    config: CrashSweepConfig,
) -> tuple[int, List[DeviceOp]]:
    """Uninstrumented run: total mutating ops + the full op trace."""
    spec = config.spec()
    workload = WORKLOADS[config.workload]
    device = _make_device(config, spec, record_ops=True)
    journal = workload.run(device, spec)
    journal.release()
    if journal.crashed:
        raise EngineError(
            f"workload {config.workload!r} crashed without injection: "
            f"{journal.crash_error}"
        )
    return device.operations_performed, list(device.op_log or [])


def _schedule_for(config: CrashSweepConfig, point: int):
    if config.target is None:
        return OpCountSchedule(point), f"op {point}"
    lo, hi = COMMIT_RECORD_RANGE
    return (
        OffsetCrashSchedule(lo, hi, occurrence=point),
        f"commit-record occurrence {point}",
    )


def reproducer_command(config: CrashSweepConfig, point: int) -> str:
    """A self-contained CLI invocation replaying exactly this point."""
    spec = config.spec()
    parts = [
        "pccheck-repro crashsweep",
        f"--workload {config.workload}",
        f"--steps {config.steps}",
        f"--slots {spec.num_slots}",
        f"--payload-capacity {spec.payload_capacity}",
        f"--writer-threads {config.writer_threads}",
        f"--device {config.device}",
        f"--point {point}",
    ]
    if config.world_size is not None:
        parts.append(f"--world-size {config.world_size}")
    if config.seed is not None:
        parts.append(f"--seed {config.seed}")
    if config.torn_writes:
        parts.append("--torn")
    if config.target is not None:
        parts.append(f"--target {config.target}")
    if not config.sanitize:
        parts.append("--no-sanitize")
    return " ".join(parts)


def run_point(config: CrashSweepConfig, point: int) -> PointOutcome:
    """Run the workload with a crash injected at ``point`` and validate
    recovery against the run's own journal."""
    spec = config.spec()
    workload: Workload = WORKLOADS[config.workload]
    schedule, descriptor = _schedule_for(config, point)
    rng = _rng_for(config, point)
    device = _make_device(config, spec, schedule=schedule, rng=rng)
    try:
        journal = workload.run(device, spec)
    except InvariantViolationError as exc:
        return PointOutcome(
            point=point,
            descriptor=descriptor,
            crashed=True,
            acked_steps=[],
            recovered_step=None,
            recovered_source="none",
            violations=[f"runtime sanitizer tripped: {exc}"],
            reproducer=reproducer_command(config, point),
        )
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        return PointOutcome(
            point=point,
            descriptor=descriptor,
            crashed=True,
            acked_steps=[],
            recovered_step=None,
            recovered_source="none",
            violations=[
                f"workload raised {type(exc).__name__} instead of "
                f"handling the fault: {exc}"
            ],
            reproducer=reproducer_command(config, point),
        )
    recovery = workload.validate_recovery(device, spec, journal)
    journal.release()
    outcome = PointOutcome(
        point=point,
        descriptor=descriptor,
        crashed=journal.crashed,
        acked_steps=list(journal.acked_steps),
        recovered_step=recovery.recovered_step,
        recovered_source=recovery.source,
        violations=recovery.violations,
    )
    if outcome.violations:
        outcome.reproducer = reproducer_command(config, point)
    return outcome


def _select_points(
    config: CrashSweepConfig, total_ops: int, op_log: Sequence[DeviceOp]
) -> List[int]:
    if config.target is None:
        # Point == total_ops sweeps "crash immediately after the run" —
        # the schedule never fires, validate_recovery powers off at the
        # end instead.
        points = list(range(0, total_ops + 1, max(1, config.stride)))
    else:
        lo, hi = COMMIT_RECORD_RANGE
        occurrences = sum(1 for op in op_log if op.touches(lo, hi))
        points = list(range(0, occurrences, max(1, config.stride)))
    if config.max_points is not None and len(points) > config.max_points:
        step = math.ceil(len(points) / config.max_points)
        points = points[::step]
    return points


def sweep(config: CrashSweepConfig, progress=None) -> SweepReport:
    """Sweep every selected crash point; returns the aggregate report.

    ``progress(done, total)`` is invoked after each point when given.
    """
    total_ops, op_log = count_crash_points(config)
    points = _select_points(config, total_ops, op_log)
    outcomes: List[PointOutcome] = []
    for index, point in enumerate(points):
        outcomes.append(run_point(config, point))
        if progress is not None:
            progress(index + 1, len(points))
    return SweepReport(config=config, total_ops=total_ops, outcomes=outcomes)
