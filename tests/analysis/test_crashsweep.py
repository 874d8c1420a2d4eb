"""The crash-consistency sweep harness, swept over itself.

The tier-1 smoke test runs the engine workload under *every* crash point
of a 3-checkpoint run — the §4.1 guarantee must hold at each one.  The
rest covers the other workloads, every driver over every stack shape,
offset-targeted and torn-write modes, the CLI, and a self-test proving
the harness actually detects violations (a workload that over-promises
durability must fail the sweep).
"""

import argparse
import json
import threading

import pytest

from repro.analysis.crashsweep import (
    COMMIT_RECORD_RANGE,
    DRIVERS,
    STACKS,
    WORKLOADS,
    CrashSweepConfig,
    Workload,
    WorkloadSpec,
    count_crash_points,
    render_json,
    render_text,
    reproducer_command,
    run_point,
    sweep,
)
from repro.cli import build_parser, main
from repro.errors import EngineError
from repro.storage.faults import CrashPointDevice
from repro.storage.ssd import InMemorySSD

#: ``make crashsweep`` crash points (``--torn --seed 11``) of every
#: driver over every stack shape; the pipeline's vary by one with
#: thread timing.  A one-chunk checkpoint's inline payload is one device
#: write (not one per writer share), so its plain and tiered rows sit
#: three below the engine's.
CRASH_POINTS = {
    ("engine", "plain"): 28,
    ("streaming", "plain"): 42,
    ("orchestrator", "plain"): 47,
    ("one-chunk", "plain"): 25,
    ("engine", "striped"): 10,
    ("streaming", "striped"): 13,
    ("orchestrator", "striped"): 13,
    ("one-chunk", "striped"): 10,
    ("engine", "tiered"): 28,
    ("streaming", "tiered"): 42,
    ("orchestrator", "tiered"): 47,
    ("one-chunk", "tiered"): 25,
}


def _register(monkeypatch, driver, stack):
    """Sweep ``driver`` over ``stack`` under a throwaway workload name."""
    name = f"{driver}-over-{stack}"
    monkeypatch.setitem(
        WORKLOADS, name, Workload(DRIVERS[driver], STACKS[stack])
    )
    return name


class TestEngineSweep:
    def test_every_crash_point_of_a_three_checkpoint_run(self):
        """The tier-1 smoke: exhaustive sweep, zero violations."""
        config = CrashSweepConfig(workload="engine", steps=3)
        report = sweep(config)
        assert report.total_ops > 20, "the sweep must be meaningful"
        assert len(report.outcomes) == report.total_ops + 1
        assert report.ok, render_text(report)
        # The sweep must exercise both crashed and completed runs and
        # both recovery paths' source labels.
        assert any(o.crashed for o in report.outcomes)
        assert any(not o.crashed for o in report.outcomes)
        sources = {o.recovered_source for o in report.outcomes}
        assert "commit-record" in sources

    def test_torn_writes_with_survival_rng(self):
        config = CrashSweepConfig(
            workload="engine", steps=2, torn_writes=True, seed=3, stride=2
        )
        report = sweep(config)
        assert report.ok, render_text(report)

    def test_commit_record_targeted_sweep(self):
        """Crashes landing *inside* the commit-record persist, torn."""
        config = CrashSweepConfig(
            workload="engine",
            steps=3,
            target="commit-record",
            torn_writes=True,
            seed=9,
        )
        total_ops, op_log = count_crash_points(config)
        lo, hi = COMMIT_RECORD_RANGE
        occurrences = sum(1 for op in op_log if op.touches(lo, hi))
        assert occurrences >= config.steps  # one commit persist per step
        report = sweep(config)
        assert len(report.outcomes) == occurrences
        assert all(
            "commit-record occurrence" in o.descriptor
            for o in report.outcomes
        )
        assert report.ok, render_text(report)


class TestOtherWorkloads:
    def test_streaming_sweep_with_stride(self):
        config = CrashSweepConfig(workload="streaming", steps=4, stride=4)
        report = sweep(config)
        assert report.ok, render_text(report)

    def test_orchestrator_sweep_holds_the_guarantee(self):
        """≥3 concurrent pipelined checkpoints (the acceptance bar)."""
        config = CrashSweepConfig(
            workload="orchestrator",
            steps=3,
            num_slots=4,
            max_points=16,
            torn_writes=True,
            seed=7,
        )
        report = sweep(config)
        assert len(report.outcomes) <= 16
        assert report.ok, render_text(report)

    def test_one_chunk_sweep_holds_the_guarantee(self):
        """The one-thread path (blocking and async) at every crash point."""
        config = CrashSweepConfig(
            workload="one-chunk", steps=3, torn_writes=True, seed=11
        )
        report = sweep(config)
        assert report.ok, render_text(report)
        assert any(o.crashed and o.acked_steps for o in report.outcomes)
        assert any(not o.crashed for o in report.outcomes)

    def test_distributed_sweep_recovers_consistently(self):
        config = CrashSweepConfig(workload="distributed", steps=2, stride=5)
        report = sweep(config)
        assert report.ok, render_text(report)
        assert any(
            o.recovered_source == "distributed" for o in report.outcomes
        )

    def test_elastic_sweep_reshards_bit_identically(self):
        """The ROADMAP item 4 acceptance bar: a 4-writer sharded
        checkpoint recovers onto 2 and 8 ranks bit-identically at every
        swept crash point (the workload validates both worlds per
        point)."""
        config = CrashSweepConfig(workload="elastic", steps=2, stride=3)
        assert config.spec().world_size == 4
        assert config.spec().elastic_readers == (2, 8)
        report = sweep(config)
        assert report.ok, render_text(report)
        assert any(
            o.recovered_source == "distributed" for o in report.outcomes
        )

    def test_elastic_world_size_override(self):
        config = CrashSweepConfig(workload="elastic", world_size=2)
        assert config.spec().world_size == 2
        assert "--world-size 2" in reproducer_command(config, 0)

    def test_unknown_workload_rejected(self):
        with pytest.raises(EngineError, match="unknown workload"):
            CrashSweepConfig(workload="nonsense").spec()

    def test_striped_sweep_every_point(self):
        """Torn stripes, crashes between stripe fences, crashes inside
        the stripe-manifest write: bit-identical recovery or a typed
        error at every point, never a silently short payload."""
        config = CrashSweepConfig(workload="striped", steps=3)
        report = sweep(config)
        assert report.ok, render_text(report)
        assert any(o.acked_steps for o in report.outcomes)

    def test_striped_sweep_with_torn_writes(self):
        config = CrashSweepConfig(
            workload="striped", steps=3, torn_writes=True, seed=5
        )
        report = sweep(config)
        assert report.ok, render_text(report)

    def test_striped_dead_member_surfaces_typed_error(self):
        """A stripe member that dies and is NOT recovered must raise the
        typed CorruptCheckpointError naming the device on reassembly."""
        from repro.errors import CorruptCheckpointError
        from repro.storage.striped import StripedDevice

        workload = WORKLOADS["striped"]
        spec = WorkloadSpec()
        device = CrashPointDevice(
            InMemorySSD(spec.geometry().total_size, name="member0")
        )
        journal = workload.run(device, spec)
        assert journal.acked_steps
        peers = journal.aux["peer_devices"]
        peers[0].crash()  # dead, never recovered
        with pytest.raises(CorruptCheckpointError, match="stripe-peer-1"):
            StripedDevice.open([device.inner, *peers])

    def test_tiered_sweep_every_point(self):
        """Power loss mid-demotion at every crash point: the hot tier
        alone must satisfy §4.1 (the commit record never depends on the
        warm or remote tier), and the tier walk must agree byte-exactly
        even with the remote store dark."""
        config = CrashSweepConfig(workload="tiered", steps=3)
        report = sweep(config)
        assert report.ok, render_text(report)
        assert any(o.acked_steps for o in report.outcomes)

    def test_tiered_sweep_with_torn_writes(self):
        config = CrashSweepConfig(
            workload="tiered", steps=3, torn_writes=True, seed=7
        )
        report = sweep(config)
        assert report.ok, render_text(report)

    def test_tiered_uncrashed_run_demotes_everywhere(self):
        """A run the schedule never interrupts leaves the newest commit
        on all three tiers; the tier walk prefers the hot copy."""
        from repro.storage.remote import REMOTE_PREFIX

        workload = WORKLOADS["tiered"]
        spec = WorkloadSpec()
        device = CrashPointDevice(
            InMemorySSD(spec.geometry().total_size, name="hot")
        )
        journal = workload.run(device, spec)
        assert journal.acked_steps == [1, 2, 3]
        remote = journal.aux["remote_store"]
        remote.settle()
        assert len(remote.list(REMOTE_PREFIX)) == len(journal.acked_steps)
        outcome = workload.validate_recovery(device, spec, journal)
        assert outcome.violations == []
        assert outcome.recovered_step == 3


class _OverpromisingWorkload(Workload):
    """Acks a step it never wrote — every sweep point must catch it."""

    def run(self, device, spec):
        journal = super().run(device, spec)
        journal.ack(999, 10**6)
        return journal


class TestHarnessDetectsViolations:
    def test_broken_durability_promise_fails_the_sweep(self, monkeypatch):
        monkeypatch.setitem(
            WORKLOADS, "overpromising",
            _OverpromisingWorkload(DRIVERS["engine"]),
        )
        config = CrashSweepConfig(
            workload="overpromising", steps=1, num_slots=3, max_points=4
        )
        report = sweep(config)
        assert not report.ok
        for outcome in report.violations:
            assert outcome.reproducer is not None
            assert "--workload overpromising" in outcome.reproducer


class TestDriversOverStacks:
    @pytest.mark.parametrize("stack", sorted(STACKS))
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_every_driver_holds_the_guarantee_over_every_stack(
        self, monkeypatch, driver, stack
    ):
        """The composed matrix, torn writes with the reference seed:
        zero violations, and the reference crash-point count."""
        config = CrashSweepConfig(
            workload=_register(monkeypatch, driver, stack),
            torn_writes=True, seed=11,
        )
        report = sweep(config)
        assert report.ok, render_text(report)
        expected = CRASH_POINTS[(driver, stack)]
        if driver == "orchestrator":
            assert abs(len(report.outcomes) - expected) <= 1
        else:
            assert len(report.outcomes) == expected

    def test_registered_rows_are_compositions(self):
        rows = {
            name: (DRIVERS[name], STACKS["plain"]) for name in DRIVERS
        }
        rows["striped"] = (DRIVERS["engine"], STACKS["striped"])
        rows["tiered"] = (DRIVERS["engine"], STACKS["tiered"])
        for name, (driver, stack) in rows.items():
            workload = WORKLOADS[name]
            assert (workload.driver, workload.stack) == (driver, stack)
        assert sorted(WORKLOADS) == sorted(
            [*rows, "distributed", "elastic"]
        )

    def test_slot_and_world_defaults_come_from_the_registry(self):
        slots = {
            name: CrashSweepConfig(workload=name).spec().num_slots
            for name in WORKLOADS
        }
        assert slots == {name: 3 for name in WORKLOADS} | {"orchestrator": 4}
        worlds = {
            name: CrashSweepConfig(workload=name).spec().world_size
            for name in WORKLOADS
        }
        assert worlds == {name: 2 for name in WORKLOADS} | {"elastic": 4}


class TestHarnessMechanics:
    @pytest.mark.parametrize(
        "composition, points",
        (
            ("engine", 28),
            ("distributed", 28),
            (("streaming", "striped"), 13),
            (("one-chunk", "tiered"), 25),
        ),
        ids=(
            "engine", "distributed",
            "streaming-over-striped", "one-chunk-over-tiered",
        ),
    )
    def test_a_full_sweep_leaves_no_thread_behind(
        self, monkeypatch, composition, points
    ):
        """Every run stops the stacks it assembled: writer pools,
        pipelines, demoters and the coordinator's watcher are joined,
        not parked (the parent left two ``pccheck-writer`` daemons per
        stack per crash point)."""
        workload = (
            composition if isinstance(composition, str)
            else _register(monkeypatch, *composition)
        )
        before = set(threading.enumerate())
        report = sweep(CrashSweepConfig(workload=workload, steps=3))
        assert report.ok, render_text(report)
        assert len(report.outcomes) == points
        assert set(threading.enumerate()) <= before

    def test_count_crash_points_returns_full_trace(self):
        config = CrashSweepConfig(workload="engine", steps=2)
        total_ops, op_log = count_crash_points(config)
        assert total_ops == len(op_log)
        assert [op.index for op in op_log] == list(range(total_ops))

    def test_reproducer_command_carries_the_fault_mode(self):
        config = CrashSweepConfig(
            workload="streaming",
            steps=4,
            seed=5,
            torn_writes=True,
            target="commit-record",
            sanitize=False,
        )
        command = reproducer_command(config, 7)
        for fragment in (
            "pccheck-repro crashsweep",
            "--workload streaming",
            "--point 7",
            "--seed 5",
            "--torn",
            "--target commit-record",
            "--no-sanitize",
        ):
            assert fragment in command

    def test_single_point_reproducer_mode(self):
        config = CrashSweepConfig(workload="engine", steps=2)
        outcome = run_point(config, 4)
        assert outcome.point == 4
        assert outcome.crashed
        assert outcome.violations == []

    def test_progress_callback_is_driven(self):
        seen = []
        config = CrashSweepConfig(workload="engine", steps=1, stride=4)
        sweep(config, progress=lambda done, total: seen.append((done, total)))
        assert seen
        assert seen[-1][0] == seen[-1][1] == len(seen)

    def test_json_report_round_trips(self):
        config = CrashSweepConfig(workload="engine", steps=1, stride=6)
        report = sweep(config)
        payload = json.loads(render_json(report))
        assert payload["ok"] is True
        assert payload["points_swept"] == len(report.outcomes)
        assert payload["config"]["workload"] == "engine"


class TestCrashsweepCLI:
    def test_workload_choices_are_the_registry(self):
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        workload = next(
            action
            for action in subparsers.choices["crashsweep"]._actions
            if action.dest == "workload"
        )
        assert list(workload.choices) == sorted(WORKLOADS)

    def test_text_sweep_exits_zero(self, capsys):
        code = main(
            ["crashsweep", "--workload", "engine", "--steps", "2",
             "--stride", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "violations: 0" in out
        assert "OK" in out

    def test_json_format_parses(self, capsys):
        code = main(
            ["crashsweep", "--workload", "engine", "--steps", "1",
             "--stride", "5", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True

    def test_point_mode(self, capsys):
        code = main(
            ["crashsweep", "--workload", "engine", "--steps", "2",
             "--point", "3", "--torn", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "crash point 3" in out
        assert "invariants held" in out
