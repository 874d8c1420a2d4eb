"""Checkpoint-region inspection: what exactly is on this device?

An operator recovering a training job wants to see every checkpoint a
region holds, its validity, and which one recovery would choose — before
touching anything.  :func:`inspect_device` produces that report, and
``pccheck-repro inspect <path>`` renders it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.layout import DeviceLayout
from repro.core.meta import RECORD_SIZE, CheckMeta, decode_commit_record
from repro.core.recovery import load_validated, try_recover
from repro.errors import LayoutError, StorageError
from repro.storage.device import PersistentDevice


@dataclass(frozen=True)
class SlotReport:
    """Status of one checkpoint slot."""

    slot: int
    status: str  # "valid" | "blank" | "corrupt-payload" | "oversized" | "unreadable"
    counter: Optional[int] = None
    step: Optional[int] = None
    payload_len: Optional[int] = None


@dataclass
class DeviceReport:
    """Full inspection result for one region."""

    device_name: str
    formatted: bool
    num_slots: int = 0
    slot_size: int = 0
    commit_record: Optional[CheckMeta] = None
    commit_record_trusted: bool = False
    slots: List[SlotReport] = field(default_factory=list)
    #: What :func:`repro.core.recovery.recover` would return.
    recovery_choice: Optional[CheckMeta] = None
    recovery_source: Optional[str] = None

    @property
    def valid_checkpoints(self) -> List[SlotReport]:
        """Slots holding complete, CRC-verified checkpoints."""
        return [s for s in self.slots if s.status == "valid"]

    def summary_lines(self) -> List[str]:
        """Human-readable report lines."""
        lines = [f"device: {self.device_name}"]
        if not self.formatted:
            lines.append("NOT a formatted PCcheck region")
            return lines
        lines.append(
            f"geometry: {self.num_slots} slots x {self.slot_size} bytes"
        )
        if self.commit_record is None:
            lines.append("commit record: blank or torn")
        else:
            trust = "verified" if self.commit_record_trusted else "UNTRUSTED"
            lines.append(
                f"commit record: counter={self.commit_record.counter} "
                f"slot={self.commit_record.slot} "
                f"step={self.commit_record.step} [{trust}]"
            )
        for slot in self.slots:
            detail = ""
            if slot.counter is not None:
                detail = (f" counter={slot.counter} step={slot.step} "
                          f"len={slot.payload_len}")
            lines.append(f"slot {slot.slot}: {slot.status}{detail}")
        if self.recovery_choice is None:
            lines.append("recovery: NO valid checkpoint")
        else:
            lines.append(
                f"recovery: step {self.recovery_choice.step} "
                f"(counter {self.recovery_choice.counter}, via "
                f"{self.recovery_source})"
            )
        return lines


def inspect_device(device: PersistentDevice) -> DeviceReport:
    """Inspect a formatted (or unformatted) checkpoint region."""
    report = DeviceReport(device_name=device.name, formatted=False)
    try:
        layout = DeviceLayout.open(device)
    except (LayoutError, StorageError):
        # Unformatted, or so truncated that even the superblock cannot be
        # read — either way there is nothing trustworthy on the device.
        return report
    report.formatted = True
    report.num_slots = layout.num_slots
    report.slot_size = layout.geometry.slot_size

    try:
        raw = device.read(layout.commit_offset, RECORD_SIZE)
        report.commit_record = decode_commit_record(raw)
    except StorageError:
        report.commit_record = None

    for slot in range(layout.num_slots):
        try:
            header = layout.read_slot_header(slot)
        except StorageError:
            report.slots.append(SlotReport(slot=slot, status="unreadable"))
            continue
        if header is None:
            report.slots.append(SlotReport(slot=slot, status="blank"))
            continue
        if header.payload_len > layout.payload_capacity:
            report.slots.append(
                SlotReport(slot=slot, status="oversized",
                           counter=header.counter, step=header.step,
                           payload_len=header.payload_len)
            )
            continue
        try:
            valid = load_validated(layout, header) is not None
        except StorageError:
            report.slots.append(
                SlotReport(slot=slot, status="unreadable",
                           counter=header.counter, step=header.step,
                           payload_len=header.payload_len)
            )
            continue
        report.slots.append(
            SlotReport(slot=slot,
                       status="valid" if valid else "corrupt-payload",
                       counter=header.counter,
                       step=header.step, payload_len=header.payload_len)
        )

    if report.commit_record is not None:
        pointed = next(
            (s for s in report.slots if s.slot == report.commit_record.slot),
            None,
        )
        report.commit_record_trusted = (
            pointed is not None
            and pointed.status == "valid"
            and pointed.counter == report.commit_record.counter
        )

    choice = try_recover(layout, max_attempts=1)
    if choice is not None:
        report.recovery_choice = choice.meta
        report.recovery_source = choice.source
    return report


def inspect_file(path: str) -> DeviceReport:
    """Inspect an on-disk region without modifying it: a region file or
    the base path of a striped region, opened by the opener recovery
    tooling shares (``open_existing_region``'s).  An empty file is an
    unformatted region; nothing at ``path`` raises
    :class:`~repro.errors.LayoutError` ("no checkpoint region")."""
    from repro.service.pool import _open_ssd  # service imports core

    try:
        device, _ = _open_ssd(path)
    except LayoutError:
        if not os.path.isfile(path):
            raise
        return DeviceReport(device_name=f"ssd:{path}", formatted=False)
    try:
        return inspect_device(device)
    finally:
        device.close()
