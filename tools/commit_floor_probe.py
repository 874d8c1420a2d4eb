"""A blocking one-chunk checkpoint against its own floor.

    python3 tools/commit_floor_probe.py [--dir D] [--size 256K]
                                        [--rounds 6] [--ops 250]

A blocking checkpoint of a payload that fits one staging chunk does a
fixed amount of real work: it copies the payload into a page-aligned
staging buffer, CRCs it, and makes four syscalls on the region file —
one O_DIRECT ``pwrite`` of the payload, a 64 B ``pwrite`` of the slot
header, a 64 B ``pwrite`` of the commit record, and one ``fsync``.
Everything else it spends is glue.  This probe measures the glue: it
opens a region in ``D`` the way the ``save_small`` benchmark does
(``observability="off"``) and times ``Checkpointer.checkpoint`` of
``--size`` bytes, then times a bare replay of that same work — the copy
(``copy_into``), ``payload_crc`` and the four syscalls — on a second
file of the region's size, at the region's own payload, header and
commit-record offsets, rotating over its slots as the engine does.
After one unmeasured round per side, the two sides alternate for
``--rounds`` rounds of ``--ops`` operations, swapping which goes first
each round, so drift on the machine lands on both alike.  It prints the
median microseconds of each side and their difference, the engine's
cost above its floor.
``make commit-floor-probe`` wraps this.
"""

from __future__ import annotations

import argparse
import mmap
import os
import statistics
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro import open_checkpointer  # noqa: E402
from repro.core.meta import RECORD_SIZE, payload_crc  # noqa: E402
from repro.storage.device import as_view, copy_into  # noqa: E402

sys.path.insert(0, str(ROOT / "tools"))
from odirect_probe import format_size, open_direct, parse_size  # noqa: E402


class Floor:
    """The engine's own work on one checkpoint, replayed bare."""

    def __init__(self, path: str, layout, size: int) -> None:
        geometry = layout.geometry
        self.payload_offsets = [layout.payload_offset(s)
                                for s in range(geometry.num_slots)]
        self.header_offsets = [layout.slot_offset(s)
                               for s in range(geometry.num_slots)]
        self.commit_offset = layout.commit_offset
        self.fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        os.truncate(self.fd, geometry.total_size)
        self.direct, self.why = open_direct(path)
        # Anonymous and page-aligned, as a staging buffer is; the whole
        # sectors of the payload go direct, a ragged tail buffered.
        self.staging = mmap.mmap(-1, -(-size // mmap.PAGESIZE) * mmap.PAGESIZE,
                                 flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        self.view = memoryview(self.staging)[:size]
        self.whole = size - size % 4096
        self.record = bytes(RECORD_SIZE)
        self.index = 0

    def checkpoint(self, payload: memoryview) -> None:
        slot = self.index % len(self.payload_offsets)
        self.index += 1
        copy_into(self.staging, 0, payload)
        payload_crc(self.view)
        offset = self.payload_offsets[slot]
        written = 0
        if self.direct is not None and self.whole:
            written = os.pwrite(self.direct, self.view[:self.whole], offset)
        if written < len(self.view):
            os.pwrite(self.fd, self.view[written:], offset + written)
        os.pwrite(self.fd, self.record, self.header_offsets[slot])
        os.pwrite(self.fd, self.record, self.commit_offset)
        os.fsync(self.fd)

    def close(self) -> None:
        for fd in (self.fd, self.direct):
            if fd is not None:
                os.close(fd)
        self.view.release()
        self.staging.close()


def timed(run, ops: int) -> List[float]:
    """Seconds of each of ``ops`` calls of ``run(op)``."""
    out = []
    for op in range(ops):
        start = time.perf_counter()
        run(op)
        out.append(time.perf_counter() - start)
    return out


def probe(directory: str, size: int, rounds: int, ops: int):
    """``(engine_s, floor_s, why_not_direct)``: per-op medians."""
    region = os.path.join(directory, "commit_floor_probe.region")
    floor_path = os.path.join(directory, "commit_floor_probe.floor")
    for path in (region, floor_path):
        if os.path.exists(path):
            os.remove(path)
    payload = np.random.default_rng(1).integers(0, 256, size, dtype=np.uint8)
    view = as_view(payload)
    ck = open_checkpointer(
        region, capacity_bytes=size, num_concurrent=2, writer_threads=2,
        num_chunks=4, observability="off",
    )
    floor = Floor(floor_path, ck.layout, size)
    step = [0]

    def engine_op(_op: int) -> None:
        step[0] += 1
        ck.checkpoint(payload, step=step[0])

    def floor_op(_op: int) -> None:
        floor.checkpoint(view)

    sides = {"engine": engine_op, "floor": floor_op}
    samples = {name: [] for name in sides}
    try:
        for run in sides.values():
            timed(run, max(ops // 4, 2 * ck.layout.num_slots))
        for index in range(rounds):
            order = list(sides) if index % 2 == 0 else list(sides)[::-1]
            for name in order:
                samples[name].extend(timed(sides[name], ops))
    finally:
        ck.close()
        floor.close()
        for path in (region, floor_path):
            if os.path.exists(path):
                os.remove(path)
    return (statistics.median(samples["engine"]),
            statistics.median(samples["floor"]), floor.why)


def render(directory: str, size: int, rounds: int, ops: int,
           engine: float, floor: float, why: str) -> str:
    return "\n".join([
        f"blocking {format_size(size)} checkpoint vs its bare replay "
        f"(copy, payload_crc, pwrite x3, fsync), in {directory}; "
        f"median of {rounds} alternated rounds of {ops}",
        f"O_DIRECT opened: {'yes' if not why else 'no (' + why + ')'}",
        "",
        "| engine | floor | engine - floor |",
        "|---|---|---|",
        f"| {engine * 1e6:.0f} us | {floor * 1e6:.0f} us "
        f"| {(engine - floor) * 1e6:+.0f} us |",
    ])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--dir", default=str(ROOT / ".bench_work"),
                        help="directory on the filesystem to probe")
    parser.add_argument("--size", default="256K",
                        help="payload size (K/M/G suffixes)")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--ops", type=int, default=250,
                        help="checkpoints per side per round")
    args = parser.parse_args(argv)
    size = parse_size(args.size)
    if size <= 0 or args.rounds <= 0 or args.ops <= 0:
        parser.error("size, rounds and ops must be positive")
    os.makedirs(args.dir, exist_ok=True)
    engine, floor, why = probe(args.dir, size, args.rounds, args.ops)
    print(render(args.dir, size, args.rounds, args.ops, engine, floor, why))
    return 0


if __name__ == "__main__":
    sys.exit(main())
