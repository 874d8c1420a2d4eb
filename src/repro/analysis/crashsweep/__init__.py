"""Crash-consistency sweep subsystem (``pccheck-repro crashsweep``).

Sweeps an injected power-loss fault across every device operation of a
configurable checkpointing workload — a driver (one-shot engine calls,
streaming tickets, the orchestrator pipeline or its one-chunk path) over
a stack shape (plain, striped or tiered), or multi-rank distributed —
recovers after each crash, and asserts the §4.1 guarantee (at least one valid
checkpoint, recovery finds the newest committed one) plus counter
monotonicity and failure-path resource conservation.
"""

from repro.analysis.crashsweep.harness import (
    COMMIT_RECORD_RANGE,
    CrashSweepConfig,
    PointOutcome,
    SweepReport,
    WorkloadSpec,
    count_crash_points,
    reproducer_command,
    run_point,
    sweep,
)
from repro.analysis.crashsweep.report import (
    render_json,
    render_point,
    render_text,
)
from repro.analysis.crashsweep.workloads import (
    DRIVERS,
    STACKS,
    WORKLOADS,
    RecoveryOutcome,
    RunJournal,
    Workload,
    payload_for,
)

__all__ = [
    "COMMIT_RECORD_RANGE",
    "CrashSweepConfig",
    "DRIVERS",
    "PointOutcome",
    "RecoveryOutcome",
    "RunJournal",
    "STACKS",
    "SweepReport",
    "WORKLOADS",
    "Workload",
    "WorkloadSpec",
    "count_crash_points",
    "payload_for",
    "render_json",
    "render_point",
    "render_text",
    "reproducer_command",
    "run_point",
    "sweep",
]
