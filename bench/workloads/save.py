"""``save_large`` and ``save_small``: one API, used two opposite ways.

``save_large`` keeps two 256 MiB checkpoints in flight, so the copy, the
CRC, the writer pool, ``pwrite`` and ``fsync`` do nearly all the work.
``save_small`` blocks on one 256 KiB checkpoint at a time, so slot
acquisition, thread hand-offs, the header write, the three fences and the
commit CAS dominate.  A datapath change should move the first and not the
second; an engine or hand-off change the reverse.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from bench.harness import Block, Pair, clock, collect, median, ops_per_second, quantile
from bench.tracing import Span, TracedDevice, TracedSource, busy_seconds, call_count
from bench.workloads.base import (
    Context,
    RegistryDelta,
    Workload,
    pipeline_layer_metrics,
    pwrite_all,
    ssd_layer_metrics,
    stats_delta,
    tag_slots,
)
from repro import open_checkpointer
from repro.core.layout import Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.recovery import recover
from repro.core.snapshot import BytesSource
from repro.service.pool import open_existing_region
from repro.storage.ssd import FileBackedSSD

NUM_CONCURRENT = 2
WRITER_THREADS = 2
NUM_CHUNKS = 4


class SaveWorkload(Workload):
    layer_spans = ("api.checkpoint_async", "snapshot.capture_chunk",
                   "ssd.write", "ssd.persist")

    def __init__(self, ctx: Context, *, name: str, payload: int, chunk: int,
                 blocking: bool, warmups: int, block_ops: int) -> None:
        super().__init__(ctx)
        self.name = name
        self.payload_bytes = payload
        self.chunk = chunk
        self.blocking = blocking
        self.warmups = warmups
        self.block_ops = block_ops
        self.step = 0
        self.ck = None
        self.roof_fd = -1

    # -- inputs --------------------------------------------------------
    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.ctx.seed)
        self.buf = rng.integers(0, 256, self.payload_bytes, dtype=np.uint8)
        self.view = memoryview(self.buf)

    def _stamp(self, step: int) -> None:
        self.buf[:8] = np.frombuffer(struct.pack("<Q", step), dtype=np.uint8)

    def _expected_crc(self, step: int) -> int:
        return zlib.crc32(self.view[8:], zlib.crc32(struct.pack("<Q", step)))

    # -- life cycle ----------------------------------------------------
    def build(self, traced: bool = False) -> None:
        self.region_path = self.path("region.pc")
        knobs = dict(capacity_bytes=self.payload_bytes,
                     num_concurrent=NUM_CONCURRENT,
                     writer_threads=WRITER_THREADS, chunk_size=self.chunk,
                     num_chunks=NUM_CHUNKS)
        if traced:
            capacity = Geometry(
                num_slots=NUM_CONCURRENT + 1,
                slot_size=self.payload_bytes + RECORD_SIZE,
            ).total_size
            device = TracedDevice(
                FileBackedSSD(self.region_path, capacity=capacity),
                self.ctx.recorder,
            )
            self.ck = open_checkpointer(device=device, observability="metrics",
                                        **knobs)
        else:
            self.ck = open_checkpointer(self.region_path, observability="off",
                                        **knobs)
        layout = self.ck.layout
        self.slot_offsets = [layout.payload_offset(slot)
                             for slot in range(layout.num_slots)]
        self.step = 0
        self.last_committed: Tuple[int, int] = (0, 0)  # (counter, step)
        # Warm-ups touch every slot, so the timed blocks never pay
        # first-touch page allocation.
        self.system_block(self.warmups)

    def prepare_baseline(self) -> None:
        """A file the size of the region, written at the slots' offsets."""
        self.roof_fd = os.open(self.path("roofline.bin"),
                               os.O_RDWR | os.O_CREAT, 0o644)
        os.truncate(self.roof_fd, self.ck.device.capacity)
        self.roof_index = 0
        self.baseline_block(len(self.slot_offsets))

    def teardown(self) -> None:
        if self.ck is not None:
            self.ck.close()
            self.ck = None
        if self.roof_fd >= 0:
            os.close(self.roof_fd)
            self.roof_fd = -1
        super().teardown()

    # -- blocks --------------------------------------------------------
    def _source(self, step: int):
        recorder = self.ctx.recorder
        if recorder is None:
            return self.buf
        return TracedSource(BytesSource(self.buf), recorder, step)

    def system_block(self, ops: int) -> Block:
        return self._blocking_block(ops) if self.blocking else self._async_block(ops)

    def _blocking_block(self, ops: int) -> Block:
        ck, recorder = self.ck, self.ctx.recorder
        latencies: List[float] = []
        committed = failed = 0
        start = clock()
        for _ in range(ops):
            self.step += 1
            step = self.step
            self._stamp(step)
            source = self._source(step)
            t0 = clock()
            try:
                result = ck.checkpoint(source, step=step)
            except Exception:  # noqa: BLE001 - a failed op is a counted outcome
                failed += 1
                continue
            t1 = clock()
            latencies.append(t1 - t0)
            # One checkpoint is outstanding at a time, so nothing may
            # supersede it.
            if result.committed:
                committed += 1
                self.last_committed = (result.counter, step)
            else:
                failed += 1
            if recorder is not None:
                recorder.add("request", t0, t1, ckpt=step, slot=result.slot)
        return Block(wall=clock() - start, ops=committed, attempted=ops,
                     failed=failed, latencies=latencies,
                     extra={"superseded": [0.0]})

    def _async_block(self, ops: int) -> Block:
        ck, recorder = self.ck, self.ctx.recorder
        settled: List[Tuple[int, float, object]] = []
        submitted: Dict[int, float] = {}
        api_block: List[float] = []
        update_stall: List[float] = []
        failed = 0
        start = clock()
        for _ in range(ops):
            self.step += 1
            step = self.step
            self._stamp(step)
            source = self._source(step)
            t0 = clock()
            try:
                handle = ck.checkpoint_async(source, step=step)
            except Exception:  # noqa: BLE001
                failed += 1
                continue
            t1 = clock()
            submitted[step] = t0
            api_block.append(t1 - t0)
            handle.add_done_callback(
                lambda h, step=step: settled.append((step, clock(), h)))
            update_stall.append(ck.wait_for_snapshots())
            if recorder is not None:
                recorder.add("api.checkpoint_async", t0, t1, ckpt=step)
                recorder.add("api.wait_for_snapshots", t1, clock(), ckpt=step)
        t2 = clock()
        try:
            ck.wait()
        except Exception:  # noqa: BLE001 - each failure is counted per handle
            pass
        wall = clock() - start
        if recorder is not None:
            recorder.add("api.wait", t2, start + wall)
        # Done-callbacks run just after waiters wake; give them a moment.
        deadline = clock() + 5.0
        while len(settled) < len(submitted) and clock() < deadline:
            time.sleep(0.0005)
        failed += len(submitted) - len(settled)
        latencies: List[float] = []
        results = []
        for step, when, handle in settled:
            try:
                result = handle.wait(0)
            except Exception:  # noqa: BLE001
                failed += 1
                continue
            latencies.append(when - submitted[step])
            results.append((step, result))
            if recorder is not None:
                recorder.add("request", submitted[step], when, ckpt=step,
                             slot=result.slot, committed=result.committed)
        for step, result in results:
            if result.committed and result.counter > self.last_committed[0]:
                self.last_committed = (result.counter, step)
        committed = sum(1 for _, r in results if r.committed)
        # A handle that did not commit must have lost to a newer commit.
        superseded = 0
        for _, result in results:
            if not result.committed:
                if result.counter < self.last_committed[0]:
                    superseded += 1
                else:
                    failed += 1
        return Block(wall=wall, ops=committed, attempted=ops, failed=failed,
                     latencies=latencies,
                     extra={"api_block": api_block,
                            "update_stall": update_stall,
                            "superseded": [float(superseded)]})

    def baseline_block(self, ops: int) -> Block:
        latencies = []
        start = clock()
        for _ in range(ops):
            offset = self.slot_offsets[self.roof_index % len(self.slot_offsets)]
            self.roof_index += 1
            t0 = clock()
            pwrite_all(self.roof_fd, self.view, offset)
            os.fsync(self.roof_fd)
            latencies.append(clock() - t0)
        return Block(wall=clock() - start, ops=ops, latencies=latencies)

    # -- correctness ---------------------------------------------------
    def verify(self) -> Tuple[int, int]:
        self.ck.close()
        self.ck = None
        _, want_step = self.last_committed
        device, layout = open_existing_region(self.region_path)
        try:
            recovered = recover(layout)
        finally:
            device.close()
        checks = [
            recovered.meta.step == want_step,
            zlib.crc32(recovered.payload) == self._expected_crc(want_step),
        ]
        return len(checks), checks.count(False)

    # -- traced pass ---------------------------------------------------
    def mark(self) -> None:
        self._registry_before = self.ck.metrics()
        self._stats_before = self.ck.device.stats.as_dict()

    def finish_spans(self, recorder) -> None:
        tag_slots(recorder.spans, self.ck.layout)

    def probe_view(self) -> memoryview:
        return self.view

    def probe_chunk(self) -> int:
        return self.chunk

    def layer_metrics(self, reference: Sequence[Pair], traced: Sequence[Pair],
                      spans: Sequence[Span]) -> Dict[str, float]:
        registry = RegistryDelta(self._registry_before, self.ck.metrics())
        commit = collect(reference)
        stats = stats_delta(self._stats_before, self.ck.device.stats.as_dict())
        dev_bytes, fences = stats["bytes_written"], stats["persist_ops"]
        # Committed and superseded alike wrote their payload and fenced.
        ckpts = sum(system.ops + sum(system.extra["superseded"])
                    for _, system in traced)
        rate = ops_per_second(reference)
        bare = ops_per_second(reference, baseline=True)
        out = {
            "save_gbps": rate * self.payload_bytes / 1e9,
            "roofline.save_frac": rate / bare if bare else 0.0,
            "commit_p50_ms": median(commit) * 1e3,
            "orchestrator.commit_p90_ms": quantile(commit, 0.90) * 1e3,
            "orchestrator.commit_p99_ms": quantile(commit, 0.99) * 1e3,
            "snapshot.capture_busy_s": busy_seconds(spans, "snapshot.capture_chunk"),
            "snapshot.capture_calls": call_count(spans, "snapshot.capture_chunk"),
            "ssd.write_amp": dev_bytes / (ckpts * self.payload_bytes) if ckpts else 0.0,
            "ssd.fences_per_ckpt": fences / ckpts if ckpts else 0.0,
            "storage_bytes_per_payload_byte":
                os.path.getsize(self.region_path) / self.payload_bytes,
        }
        if self.blocking:
            out["ckpt_per_s"] = rate
        else:
            out["orchestrator.api_block_s"] = median(collect(traced, "api_block"))
        out.update(pipeline_layer_metrics(registry))
        out.update(ssd_layer_metrics(spans, stats))
        return out


def save_large(ctx: Context) -> SaveWorkload:
    return SaveWorkload(
        ctx, name="save_large", payload=(256 << 20) // ctx.scale,
        chunk=(16 << 20) // ctx.scale, blocking=False, warmups=4, block_ops=4)


def save_small(ctx: Context) -> SaveWorkload:
    payload = (256 << 10) // ctx.scale
    return SaveWorkload(
        ctx, name="save_small", payload=payload, chunk=payload,
        blocking=True, warmups=50, block_ops=200)
