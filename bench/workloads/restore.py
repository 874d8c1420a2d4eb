"""``restore_large``: the read side of the same ``storage``/``core`` layers.

Phase A opens a region whose commit record is intact; phase B opens a copy
whose commit record the benchmark zeroed (through ``device.write`` +
``persist``), which forces the slot-scan fallback a crashed commit leaves
behind.  A block is one restore; every fourth one is a phase-B restore.
"""

from __future__ import annotations

import os
import shutil
import struct
import zlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from bench.harness import Block, Pair, clock, collect, median
from bench.tracing import Span, TracedDevice
from bench.workloads.base import Context, Workload, pread_all, ssd_layer_metrics
from repro import open_checkpointer
from repro.core.layout import DeviceLayout
from repro.core.meta import RECORD_SIZE
from repro.core.recovery import find_committed, recover
from repro.service.pool import open_existing_region
from repro.storage.ssd import FileBackedSSD

SAVES = 4
#: A restores per B restore.
A_PER_B = 3
EXPECTED_SOURCE = {"a": "commit-record", "b": "slot-scan"}


class RestoreWorkload(Workload):
    name = "restore_large"
    baseline_name = "pread"
    root_span = "restore"
    layer_spans = ("layout.open", "recovery.recover", "ssd.read")

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.payload_bytes = (128 << 20) // ctx.scale
        self.chunk = (16 << 20) // ctx.scale

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.ctx.seed)
        self.buf = rng.integers(0, 256, self.payload_bytes, dtype=np.uint8)

    # -- life cycle ----------------------------------------------------
    def build(self, traced: bool = False) -> None:
        self.traced = traced
        self.paths = {"a": self.path("region.pc"), "b": self.path("region_scan.pc")}
        with open_checkpointer(
            self.paths["a"], capacity_bytes=self.payload_bytes,
            num_concurrent=2, writer_threads=2, chunk_size=self.chunk,
            num_chunks=4, observability="off",
        ) as ck:
            for step in range(1, SAVES + 1):
                self.buf[:8] = np.frombuffer(struct.pack("<Q", step), dtype=np.uint8)
                ck.checkpoint(self.buf, step=step)
            self.expected_crc = zlib.crc32(self.buf)
            self.payload_offset = ck.layout.payload_offset(ck.latest().slot)
        shutil.copyfile(self.paths["a"], self.paths["b"])
        device, layout = open_existing_region(self.paths["b"])
        try:
            device.write(layout.commit_offset, bytes(RECORD_SIZE))
            device.persist(layout.commit_offset, RECORD_SIZE)
        finally:
            device.close()
        self.read_bytes = {"a": 0, "b": 0}
        self.recover_wall = {"a": 0.0, "b": 0.0}
        self.iterations = {"a": 0, "b": 0}
        self.turn = 0
        for phase in ("a", "a", "b"):
            self._restore(phase)

    def prepare_baseline(self) -> None:
        self.baseline_block(A_PER_B + 1)

    # -- one iteration -------------------------------------------------
    def _restore(self, phase: str) -> Tuple[float, bool]:
        """open → validated payload → close; returns (seconds, ok).

        The benchmark's own CRC comparison runs after the clock stops:
        ``recover`` has already validated the payload against its header.
        """
        path = self.paths[phase]
        recorder = self.ctx.recorder
        start = clock()
        if self.traced:
            with recorder.span("restore", phase=phase):
                device = TracedDevice(
                    FileBackedSSD(path, capacity=os.path.getsize(path)), recorder)
                try:
                    with recorder.span("layout.open"):
                        layout = DeviceLayout.open(device)
                    t0 = clock()
                    with recorder.span("recovery.recover"):
                        recovered = recover(layout)
                    self.recover_wall[phase] += clock() - t0
                    self.read_bytes[phase] += device.stats.bytes_read
                finally:
                    device.close()
        else:
            device, layout = open_existing_region(path)
            try:
                recovered = recover(layout)
            finally:
                device.close()
        elapsed = clock() - start
        self.iterations[phase] += 1
        ok = (recovered.source == EXPECTED_SOURCE[phase]
              and recovered.meta.step == SAVES
              and zlib.crc32(recovered.payload) == self.expected_crc)
        return elapsed, ok

    def _phase(self, turn: int) -> str:
        return "b" if turn % (A_PER_B + 1) == A_PER_B else "a"

    def system_block(self, ops: int) -> Block:
        latencies: List[float] = []
        scans: List[float] = []
        failed = 0
        for _ in range(ops):
            phase = self._phase(self.turn)
            self.turn += 1
            elapsed, ok = self._restore(phase)
            (scans if phase == "b" else latencies).append(elapsed)
            failed += not ok
        # Wall is the restores themselves; the bench's own CRC checks
        # between them are not the system's time.
        return Block(wall=sum(latencies) + sum(scans), ops=ops - failed,
                     attempted=ops, failed=failed, latencies=latencies,
                     extra={"scan": scans})

    def baseline_block(self, ops: int) -> Block:
        """A bare ``pread`` of the payload the next system block restores."""
        latencies = []
        for index in range(ops):
            path = self.paths[self._phase(self.turn + index)]
            t0 = clock()
            fd = os.open(path, os.O_RDONLY)
            try:
                data = pread_all(fd, self.payload_bytes, self.payload_offset)
            finally:
                os.close(fd)
            latencies.append(clock() - t0)
            del data
        return Block(wall=sum(latencies), ops=ops, latencies=latencies)

    def verify(self) -> Tuple[int, int]:
        # Every iteration already validated bytes, step and source; what
        # is left is that the two region files are still what we built.
        device, layout = open_existing_region(self.paths["a"])
        try:
            meta = find_committed(layout)
        finally:
            device.close()
        checks = [meta is not None and meta.step == SAVES]
        return len(checks), checks.count(False)

    # -- traced pass ---------------------------------------------------
    def mark(self) -> None:
        self.read_bytes = {"a": 0, "b": 0}
        self.recover_wall = {"a": 0.0, "b": 0.0}
        self.iterations = {"a": 0, "b": 0}

    def layer_metrics(self, reference: Sequence[Pair], traced: Sequence[Pair],
                      spans: Sequence[Span]) -> Dict[str, float]:
        restore = median(collect(reference))
        scan = median(collect(reference, "scan"))
        pread = median(collect(reference, baseline=True))
        restore_gbps = self.payload_bytes / restore / 1e9 if restore else 0.0
        pread_gbps = self.payload_bytes / pread / 1e9 if pread else 0.0
        iterations = self.iterations["a"] + self.iterations["b"]
        recover_wall = self.recover_wall["a"] + self.recover_wall["b"]
        recovers = {s.span_id for s in spans if s.name == "recovery.recover"}
        read_busy = sum(s.duration for s in spans
                        if s.name == "ssd.read" and s.parent in recovers)
        stats = {
            "write_ops": 0, "persist_ops": 0, "bytes_written": 0,
            "read_ops": sum(1 for s in spans if s.name == "ssd.read"),
            "bytes_read": self.read_bytes["a"] + self.read_bytes["b"],
        }
        out = {
            "restore_gbps": restore_gbps,
            "restore_scan_gbps": self.payload_bytes / scan / 1e9 if scan else 0.0,
            "roofline.restore_frac": restore_gbps / pread_gbps if pread_gbps else 0.0,
            "recovery.read_amp": self._read_amp("a"),
            "recovery.scan_read_amp": self._read_amp("b"),
            "recovery.self_s": (recover_wall - read_busy) / iterations if iterations else 0.0,
        }
        out.update(ssd_layer_metrics(spans, stats))
        out.update(self._direct_probes())
        return out

    def _direct_probes(self) -> Dict[str, float]:
        """Direct calls into ``core.layout``/``core.recovery`` on region A."""
        path = self.paths["a"]
        opens, finds, reads = [], [], []
        for _ in range(20):
            t0 = clock()
            device, layout = open_existing_region(path)
            opens.append(clock() - t0)
            device.close()
        device, layout = open_existing_region(path)
        try:
            for _ in range(3):
                t0 = clock()
                meta = find_committed(layout)
                finds.append(clock() - t0)
                t0 = clock()
                layout.read_payload(meta)
                reads.append(clock() - t0)
        finally:
            device.close()
        return {
            "layout.open_ms": median(opens) * 1e3,
            "recovery.find_committed_ms": median(finds) * 1e3,
            "layout.read_payload_gbps": self.payload_bytes / median(reads) / 1e9,
        }

    def probe_view(self) -> memoryview:
        return memoryview(self.buf)

    def probe_chunk(self) -> int:
        return self.chunk

    def _read_amp(self, phase: str) -> float:
        returned = self.iterations[phase] * self.payload_bytes
        return self.read_bytes[phase] / returned if returned else 0.0


def restore_large(ctx: Context) -> RestoreWorkload:
    return RestoreWorkload(ctx)
