"""Tests for the checkpoint-region inspection tool."""

import pytest

from repro.core.engine import CheckpointEngine
from repro.core.inspect import inspect_device, inspect_file
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.storage.ssd import FileBackedSSD, InMemorySSD

PAYLOAD_CAPACITY = 512


def make_engine(num_slots=3, device=None):
    slot_size = PAYLOAD_CAPACITY + RECORD_SIZE
    geometry = Geometry(num_slots=num_slots, slot_size=slot_size)
    if device is None:
        device = InMemorySSD(capacity=geometry.total_size)
    layout = DeviceLayout.format(device, num_slots=num_slots,
                                 slot_size=slot_size)
    return CheckpointEngine(layout, writer_threads=2)


class TestInspectDevice:
    def test_unformatted_device(self):
        report = inspect_device(InMemorySSD(1 << 16))
        assert not report.formatted
        assert "NOT a formatted" in "\n".join(report.summary_lines())

    def test_fresh_region_has_blank_slots(self):
        engine = make_engine()
        report = inspect_device(engine.layout.device)
        assert report.formatted
        assert report.num_slots == 3
        assert all(slot.status == "blank" for slot in report.slots)
        assert report.recovery_choice is None

    def test_committed_checkpoint_is_reported(self):
        engine = make_engine()
        engine.checkpoint(b"state-one", step=7)
        report = inspect_device(engine.layout.device)
        assert report.commit_record is not None
        assert report.commit_record_trusted
        assert report.recovery_choice.step == 7
        assert report.recovery_source == "commit-record"
        assert len(report.valid_checkpoints) == 1

    def test_superseded_checkpoints_also_listed(self):
        engine = make_engine()
        engine.checkpoint(b"v1", step=1)
        engine.checkpoint(b"v2", step=2)
        report = inspect_device(engine.layout.device)
        steps = sorted(s.step for s in report.valid_checkpoints)
        assert steps == [1, 2]
        assert report.recovery_choice.step == 2

    def test_torn_commit_record_reported_with_slot_scan_fallback(self):
        engine = make_engine()
        engine.checkpoint(b"v1", step=1)
        layout = engine.layout
        layout.device.write(layout.commit_offset, b"\xff" * RECORD_SIZE)
        report = inspect_device(layout.device)
        assert report.commit_record is None
        assert report.recovery_choice.step == 1
        assert report.recovery_source == "slot-scan"

    def test_corrupt_payload_flagged(self):
        engine = make_engine()
        engine.checkpoint(b"v1", step=1)
        old = engine.committed()
        engine.checkpoint(b"v2", step=2)
        layout = engine.layout
        layout.device.write(layout.payload_offset(old.slot), b"XX")
        report = inspect_device(layout.device)
        statuses = {s.slot: s.status for s in report.slots}
        assert statuses[old.slot] == "corrupt-payload"
        assert report.recovery_choice.step == 2

    def test_summary_lines_cover_everything(self):
        engine = make_engine()
        engine.checkpoint(b"v1", step=3)
        text = "\n".join(inspect_device(engine.layout.device).summary_lines())
        assert "geometry: 3 slots" in text
        assert "commit record: counter=1" in text
        assert "recovery: step 3" in text


class TestInspectRobustness:
    """inspect must survive damaged regions an operator points it at."""

    def _format_file(self, tmp_path, name="region.pc", num_slots=2,
                     checkpoint=None):
        path = str(tmp_path / name)
        slot_size = PAYLOAD_CAPACITY + RECORD_SIZE
        geometry = Geometry(num_slots=num_slots, slot_size=slot_size)
        device = FileBackedSSD(path, capacity=geometry.total_size)
        layout = DeviceLayout.format(device, num_slots=num_slots,
                                     slot_size=slot_size)
        if checkpoint is not None:
            CheckpointEngine(layout, writer_threads=1).checkpoint(
                checkpoint, step=9
            )
        device.close()
        return path

    def test_truncated_mid_region(self, tmp_path):
        import os

        path = self._format_file(tmp_path, checkpoint=b"soon gone")
        size = os.path.getsize(path)
        os.truncate(path, size // 2)
        report = inspect_file(path)
        assert not report.formatted
        assert report.recovery_choice is None

    def test_truncated_below_superblock(self, tmp_path):
        import os

        path = self._format_file(tmp_path, checkpoint=b"soon gone")
        os.truncate(path, 16)  # not even a whole superblock header left
        report = inspect_file(path)
        assert not report.formatted
        assert "NOT a formatted" in "\n".join(report.summary_lines())

    def test_corrupt_slot_header(self, tmp_path):
        engine = make_engine()
        engine.checkpoint(b"only one", step=4)
        committed = engine.committed()
        layout = engine.layout
        layout.device.write(
            layout.slot_offset(committed.slot), b"\xab" * RECORD_SIZE
        )
        report = inspect_device(layout.device)
        statuses = {s.slot: s.status for s in report.slots}
        # A trashed header can no longer validate: the slot is not valid
        # and the commit record that points at it must not be trusted.
        assert statuses[committed.slot] != "valid"
        assert not report.commit_record_trusted
        assert report.recovery_choice is None

    def test_corrupt_header_falls_back_to_other_slot(self, tmp_path):
        engine = make_engine()
        engine.checkpoint(b"old", step=1)
        old = engine.committed()
        engine.checkpoint(b"new", step=2)
        new = engine.committed()
        layout = engine.layout
        layout.device.write(
            layout.slot_offset(new.slot), b"\xab" * RECORD_SIZE
        )
        report = inspect_device(layout.device)
        assert report.recovery_choice is not None
        assert report.recovery_choice.counter == old.counter
        assert report.recovery_source == "slot-scan"

    def test_zero_committed_checkpoints(self, tmp_path):
        path = self._format_file(tmp_path, checkpoint=None)
        report = inspect_file(path)
        assert report.formatted
        assert report.commit_record is None
        assert report.valid_checkpoints == []
        assert report.recovery_choice is None
        assert "recovery: NO valid checkpoint" in "\n".join(
            report.summary_lines()
        )


class TestInspectFile:
    def test_inspect_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "region.pc")
        slot_size = PAYLOAD_CAPACITY + RECORD_SIZE
        geometry = Geometry(num_slots=2, slot_size=slot_size)
        device = FileBackedSSD(path, capacity=geometry.total_size)
        layout = DeviceLayout.format(device, num_slots=2, slot_size=slot_size)
        CheckpointEngine(layout, writer_threads=2).checkpoint(b"on-disk",
                                                              step=11)
        device.close()
        report = inspect_file(path)
        assert report.recovery_choice.step == 11

    def test_inspect_empty_file(self, tmp_path):
        path = tmp_path / "empty.pc"
        path.touch()
        report = inspect_file(str(path))
        assert not report.formatted


class TestCliInspect:
    def test_cli_inspect_prints_report(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cli.pc")
        slot_size = PAYLOAD_CAPACITY + RECORD_SIZE
        geometry = Geometry(num_slots=2, slot_size=slot_size)
        device = FileBackedSSD(path, capacity=geometry.total_size)
        layout = DeviceLayout.format(device, num_slots=2, slot_size=slot_size)
        CheckpointEngine(layout, writer_threads=1).checkpoint(b"x", step=5)
        device.close()
        assert main(["inspect", path]) == 0
        out = capsys.readouterr().out
        assert "recovery: step 5" in out

    def test_cli_inspect_exit_code_without_checkpoint(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "blank.pc")
        slot_size = PAYLOAD_CAPACITY + RECORD_SIZE
        geometry = Geometry(num_slots=2, slot_size=slot_size)
        device = FileBackedSSD(path, capacity=geometry.total_size)
        DeviceLayout.format(device, num_slots=2, slot_size=slot_size)
        device.close()
        assert main(["inspect", path]) == 1

    def test_cli_reads_a_striped_region_by_its_base_path(self, tmp_path, capsys):
        from repro import open_checkpointer
        from repro.cli import main

        path = str(tmp_path / "striped.pc")
        with open_checkpointer(path, capacity_bytes=65536, stripe_devices=2,
                               stripe_size=4096) as ckpt:
            ckpt.checkpoint(b"across two members", step=7)
        assert main(["inspect", path]) == 0
        assert "recovery: step 7" in capsys.readouterr().out
        assert main(["recover-consistent", path]) == 0
        assert "globally consistent step: 7" in capsys.readouterr().out
        assert main(["inspect", str(tmp_path / "nothing-here")]) == 1
        assert "no checkpoint region" in capsys.readouterr().err
