"""Direct probes of single layers, and the rooflines they are read against.

Each probe times calls into one public function over the workload's own
payload bytes, on real files in the run's work directory, and reports the
median of a few repetitions.  The ``roofline.*`` probes are the
denominators: the same bytes through a bare ``memoryview`` copy,
``zlib.crc32``, ``os.pwrite``+``os.fsync`` and ``os.pread`` — the
sandbox's software path, page cache warm, not a device's datasheet.
"""

from __future__ import annotations

import os
import zlib
from typing import Callable, Dict, List

import numpy as np

from bench.harness import clock, median
from bench.workloads.base import pread_all, pwrite_all
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE, payload_crc
from repro.core.snapshot import BytesSource
from repro.core.writer import ParallelWriter
from repro.storage.dram import PinnedBuffer
from repro.storage.ssd import SECTOR_SIZE, FileBackedSSD
from repro.storage.striped import STRIPE_HEADER_SIZE, StripedDevice

WRITER_THREADS = 2
STRIPE_SIZE = 1 << 20
MIN_REPS = 3
MAX_REPS = 200


def _median_seconds(operation: Callable[[], None], budget: float) -> float:
    """Median time of ``operation`` over 3..200 runs within ``budget``
    seconds; the first (cold) run is discarded."""
    operation()
    samples: List[float] = []
    deadline = clock() + budget
    while len(samples) < MIN_REPS or (clock() < deadline and len(samples) < MAX_REPS):
        t0 = clock()
        operation()
        samples.append(clock() - t0)
    return median(samples)


def _aligned_copy(view: memoryview) -> np.ndarray:
    """A sector-aligned copy of ``view`` (O_DIRECT constrains the user
    buffer's address, not just the file offset)."""
    raw = np.empty(len(view) + SECTOR_SIZE, dtype=np.uint8)
    skew = -raw.ctypes.data % SECTOR_SIZE
    aligned = raw[skew:skew + len(view)]
    aligned[:] = np.frombuffer(view, dtype=np.uint8)
    return aligned


def probe_layers(view: memoryview, chunk: int, work_dir: str,
                 budget: float) -> Dict[str, float]:
    """Every workload-independent per-layer metric, over ``view``.

    ``budget`` is the total seconds the probes may take beyond their
    minimum repetitions.
    """
    nbytes = len(view)
    each = budget / 10
    gbps = lambda seconds: nbytes / seconds / 1e9 if seconds else 0.0  # noqa: E731
    out: Dict[str, float] = {}

    # -- rooflines -----------------------------------------------------
    scratch = bytearray(nbytes)
    target = memoryview(scratch)

    def memcpy() -> None:
        target[:] = view

    out["roofline.memcpy_gbps"] = gbps(_median_seconds(memcpy, each))
    out["roofline.crc32_gbps"] = gbps(_median_seconds(lambda: zlib.crc32(view), each))
    roof_path = os.path.join(work_dir, "probe_roofline.bin")
    fd = os.open(roof_path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        def pwrite_fsync() -> None:
            pwrite_all(fd, view, 0)
            os.fsync(fd)

        out["roofline.pwrite_fsync_gbps"] = gbps(_median_seconds(pwrite_fsync, each))
        out["roofline.pread_gbps"] = gbps(
            _median_seconds(lambda: pread_all(fd, nbytes, 0), each))
    finally:
        os.close(fd)
        os.remove(roof_path)

    # -- snapshot / meta -----------------------------------------------
    source = BytesSource(view)
    staging = PinnedBuffer(0, chunk)

    def capture() -> None:
        for offset in range(0, nbytes, chunk):
            source.capture_chunk(offset, min(chunk, nbytes - offset), staging)

    out["snapshot.capture_gbps"] = gbps(_median_seconds(capture, each))
    out["meta.payload_crc_gbps"] = gbps(_median_seconds(lambda: payload_crc(view), each))

    # -- storage.ssd, core.writer, core.engine on one FileBackedSSD -----
    geometry = Geometry(num_slots=2, slot_size=nbytes + RECORD_SIZE)
    ssd_path = os.path.join(work_dir, "probe_ssd.bin")
    device = FileBackedSSD(ssd_path, capacity=geometry.total_size)
    try:
        def write_persist() -> None:
            device.write(0, view)
            device.persist(0, nbytes)

        out["ssd.write_persist_gbps"] = gbps(_median_seconds(write_persist, each))
        out["ssd.read_gbps"] = gbps(_median_seconds(lambda: device.read(0, nbytes), each))
        with ParallelWriter(device, WRITER_THREADS) as writer:
            out["writer.persist_gbps"] = gbps(
                _median_seconds(lambda: writer.persist(0, view), each))
        layout = DeviceLayout.format(device, num_slots=2,
                                     slot_size=nbytes + RECORD_SIZE)
        with CheckpointEngine(layout, writer_threads=WRITER_THREADS) as engine:
            seconds = _median_seconds(lambda: engine.checkpoint(view), each)
        out["engine.checkpoint_gbps"] = gbps(seconds)
        out["engine.checkpoint_p50_us"] = seconds * 1e6
    finally:
        device.close()
        os.remove(ssd_path)

    # -- storage.striped over unbuffered members ------------------------
    # Whole sectors only: a ragged tail legitimately takes the buffered
    # path and would hide a real fallback behind an expected one.
    aligned = memoryview(_aligned_copy(view[: nbytes // SECTOR_SIZE * SECTOR_SIZE]))
    share = -(-nbytes // 2 // STRIPE_SIZE) * STRIPE_SIZE
    paths = [os.path.join(work_dir, f"probe_stripe.s{i}") for i in range(2)]
    members = [FileBackedSSD(path, capacity=STRIPE_HEADER_SIZE + share,
                             unbuffered=True) for path in paths]
    striped = StripedDevice.create(members, stripe_size=STRIPE_SIZE)
    try:
        def striped_write() -> None:
            striped.write(0, aligned)
            striped.persist(0, len(aligned))

        before = [(m.direct_write_ops, m.fallback_write_ops) for m in members]
        seconds = _median_seconds(striped_write, each)
        out["striped.write_persist_gbps"] = len(aligned) / seconds / 1e9
        direct = sum(m.direct_write_ops - b[0] for m, b in zip(members, before))
        fallback = sum(m.fallback_write_ops - b[1] for m, b in zip(members, before))
        out["striped.direct_write_frac"] = (
            direct / (direct + fallback) if direct + fallback else 0.0)
        out["striped.direct_io_live"] = float(all(m.direct_io for m in members))
    finally:
        striped.close()
        for path in paths:
            os.remove(path)
    return out
