"""``service_mix``: admission, dispatch, pool leases and group commit.

Three dedicated 8 MiB tenants and five coalesced 128 KiB tenants share a
two-engine pool (one engine is held by the batcher, so the dedicated
tenants queue for the other).  One round submits one checkpoint per tenant
and waits for all eight tickets — a closed loop with eight requests
outstanding from a single generator thread.  The datapath is a small share
of the time here; ``service/pool.py`` and the batcher are most of it.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from bench.harness import Block, Pair, clock, collect, median, ops_per_second, quantile
from bench.tracing import Span, TracedDevice
from bench.workloads.base import (
    Context,
    RegistryDelta,
    Workload,
    pipeline_layer_metrics,
    ssd_layer_metrics,
    stats_delta,
)
from repro import CheckpointService, EnginePool, EngineSpec, TenantSpec
from repro.core.layout import Geometry
from repro.core.meta import RECORD_SIZE
from repro.obs.metrics import M
from repro.storage.ssd import FileBackedSSD

POOL_SIZE = 2
BIG_TENANTS = 3
SMALL_TENANTS = 5
WARMUP_ROUNDS = 10
ROUNDS_PER_BLOCK = 8
TICKET_TIMEOUT_S = 60.0


class ServiceWorkload(Workload):
    name = "service_mix"
    baseline_name = "memcpy"
    root_span = "service.ticket"
    layer_spans = ("service.checkpoint_async", "ssd.write", "ssd.persist")

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.big_bytes = (8 << 20) // ctx.scale
        self.small_bytes = (128 << 10) // ctx.scale
        self.round_bytes = (BIG_TENANTS * self.big_bytes
                            + SMALL_TENANTS * self.small_bytes)
        # One "operation" is one request; a round is eight of them.
        self.payload_bytes = self.round_bytes // (BIG_TENANTS + SMALL_TENANTS)
        self.service = None
        # A round costs ~50 ms whatever the payload (see README, findings),
        # so the smoke run shrinks the round counts, not just the bytes.
        self.warmup_rounds = WARMUP_ROUNDS if ctx.scale == 1 else 2
        rounds = ROUNDS_PER_BLOCK if ctx.scale == 1 else 2
        self.block_ops = rounds * (BIG_TENANTS + SMALL_TENANTS)

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.ctx.seed)
        self.tenants: List[Tuple[str, str, np.ndarray]] = []
        for index in range(BIG_TENANTS):
            self.tenants.append((
                f"big{index}", "big",
                rng.integers(0, 256, self.big_bytes, dtype=np.uint8)))
        for index in range(SMALL_TENANTS):
            self.tenants.append((
                f"small{index}", "small",
                rng.integers(0, 256, self.small_bytes, dtype=np.uint8)))

    def _spec(self, traced: bool) -> EngineSpec:
        return EngineSpec(
            capacity_bytes=self.big_bytes, backend="ssd",
            path=self.path("service.pc"), num_chunks=12,
            chunk_size=self.big_bytes, writer_threads=2,
            observability="metrics" if traced else "off",
        )

    # -- life cycle ----------------------------------------------------
    def build(self, traced: bool = False) -> None:
        spec = self._spec(traced)
        self.devices: List[TracedDevice] = []
        if traced:
            capacity = Geometry(
                num_slots=spec.num_concurrent + 1,
                slot_size=self.big_bytes + RECORD_SIZE,
            ).total_size
            self.devices = [
                TracedDevice(
                    FileBackedSSD(spec.member_path(i, POOL_SIZE), capacity=capacity),
                    self.ctx.recorder)
                for i in range(POOL_SIZE)
            ]
            pool = EnginePool(spec, POOL_SIZE, devices=self.devices)
            self.service = CheckpointService(pool, owns_pool=True)
        else:
            self.service = CheckpointService.create(spec, pool_size=POOL_SIZE)
        for name, kind, _ in self.tenants:
            if kind == "big":
                self.service.register(TenantSpec(
                    name=name, capacity_bytes=self.big_bytes, slots=1))
            else:
                self.service.register(TenantSpec(
                    name=name, capacity_bytes=self.small_bytes, coalesce=True))
        self.step = 0
        self.leak_report = None
        self.system_block(self.warmup_rounds * len(self.tenants))

    def prepare_baseline(self) -> None:
        self.scratch = memoryview(bytearray(self.big_bytes))
        self.baseline_block(len(self.tenants))

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        super().teardown()

    # -- blocks --------------------------------------------------------
    def system_block(self, ops: int) -> Block:
        service, recorder = self.service, self.ctx.recorder
        samples: Dict[str, List[float]] = {"big": [], "small": [], "admit": []}
        committed = failed = attempted = 0
        start = clock()
        for _ in range(ops // len(self.tenants)):
            self.step += 1
            step = self.step
            stamp = np.frombuffer(struct.pack("<Q", step), dtype=np.uint8)
            tickets = []
            for name, kind, buf in self.tenants:
                buf[:8] = stamp
                attempted += 1
                request = step * len(self.tenants) + len(tickets)
                t0 = clock()
                try:
                    ticket = service.checkpoint_async(name, buf, step=step)
                except Exception:  # noqa: BLE001 - a rejection is a failed op
                    failed += 1
                    continue
                t1 = clock()
                samples["admit"].append(t1 - t0)

                def settled(_ticket, t0=t0, kind=kind, request=request):
                    now = clock()
                    samples[kind].append(now - t0)
                    if recorder is not None:
                        recorder.add("service.ticket", t0, now, ckpt=request,
                                     kind=kind)

                ticket.add_done_callback(settled)
                if recorder is not None:
                    recorder.add("service.checkpoint_async", t0, t1,
                                 ckpt=request)
                tickets.append(ticket)
            for ticket in tickets:
                try:
                    result = ticket.result(TICKET_TIMEOUT_S)
                except Exception:  # noqa: BLE001
                    failed += 1
                    continue
                if result.committed:
                    committed += 1
                else:
                    failed += 1
        wall = clock() - start
        return Block(wall=wall, ops=committed, attempted=attempted,
                     failed=failed, latencies=samples["big"],
                     extra={"small": samples["small"], "admit": samples["admit"]})

    def baseline_block(self, ops: int) -> Block:
        """One copy of each request's bytes — the least a snapshot costs.

        Not ``pwrite+fsync`` as on the save workloads: a ticket's life here
        is queueing and timers, not I/O, so a denominator that follows the
        disk's mood (a small fsync swings ±40% with where the file landed)
        would make the ratio report the disk, not the service.  The
        latencies kept are the dedicated tenants', the counterpart of the
        system block's primary operation.
        """
        big = []
        start = clock()
        for _ in range(ops // len(self.tenants)):
            for _, kind, buf in self.tenants:
                t0 = clock()
                self.scratch[: len(buf)] = memoryview(buf)
                if kind == "big":
                    big.append(clock() - t0)
        return Block(wall=clock() - start, ops=ops, latencies=big)

    # -- correctness ---------------------------------------------------
    def verify(self) -> Tuple[int, int]:
        checks = []
        for name, kind, buf in self.tenants:
            latest = self.service.latest(name)
            checks.append(latest is not None and latest[0] == self.step)
            if kind == "small":
                entry = self.service.recover_coalesced(name)
                checks.append(
                    entry is not None and entry.step == self.step
                    and zlib.crc32(entry.payload) == zlib.crc32(buf))
        self.leak_report = self.service.close()
        self.service = None
        checks.append(self.leak_report["leaked_slots"] == 0)
        checks.append(self.leak_report["leaked_buffers"] == 0)
        return len(checks), checks.count(False)

    # -- traced pass ---------------------------------------------------
    def _device_stats(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for device in self.devices:
            for key, value in device.stats.as_dict().items():
                total[key] = total.get(key, 0) + value
        return total

    def mark(self) -> None:
        self._registry_before = self.service.metrics()
        self._stats_before = self._device_stats()

    def layer_metrics(self, reference: Sequence[Pair], traced: Sequence[Pair],
                      spans: Sequence[Span]) -> Dict[str, float]:
        registry = RegistryDelta(self._registry_before, self.service.metrics())
        stats = stats_delta(self._stats_before, self._device_stats())
        big = collect(reference)
        small = collect(reference, "small")
        requests = sum(system.attempted for _, system in traced)
        batches = registry.value(M.SERVICE_BATCHES)
        out = {
            "svc_big_commit_p50_ms": median(big) * 1e3,
            "svc_small_commit_p50_ms": median(small) * 1e3,
            "svc_goodput_mbps": ops_per_second(reference) * self.payload_bytes / 1e6,
            "service.admit_call_p50_us": median(collect(reference, "admit")) * 1e6,
            "service.big_commit_p90_ms": quantile(big, 0.90) * 1e3,
            "service.small_commit_p99_ms": quantile(small, 0.99) * 1e3,
            "service.rejected": registry.value(M.TENANT_REJECTED),
            "batching.entries_per_batch":
                registry.value(M.SERVICE_BATCH_ENTRIES) / batches if batches else 0.0,
            "batching.fences_per_request":
                stats["persist_ops"] / requests if requests else 0.0,
        }
        out.update(pipeline_layer_metrics(registry))
        out.update(ssd_layer_metrics(spans, stats))
        out.update(self._pool_probes())
        return out

    def post_verify_layers(self) -> Dict[str, float]:
        report = self.leak_report or {}
        return {
            "pool.leaked_slots": report.get("leaked_slots", 0),
            "pool.leaked_buffers": report.get("leaked_buffers", 0),
        }

    def probe_view(self) -> memoryview:
        return memoryview(self.tenants[0][2])

    def _pool_probes(self) -> Dict[str, float]:
        """Direct ``EnginePool`` calls: build cost, lease round-trip."""
        spec = EngineSpec(
            capacity_bytes=self.big_bytes, backend="ssd",
            path=self.path("pool_probe.pc"), num_chunks=12,
            chunk_size=self.big_bytes, writer_threads=2, observability="off",
        )
        builds, leases = [], []
        for _ in range(3):
            pool = EnginePool(spec, 1)
            t0 = clock()
            lease = pool.acquire(tag="bench-probe")  # first acquire builds
            builds.append(clock() - t0)
            lease.release()
            for _ in range(200):
                t0 = clock()
                pool.acquire(tag="bench-probe").release()
                leases.append(clock() - t0)
            pool.close()
            os.remove(spec.path)
        return {
            "pool.build_stack_ms": median(builds) * 1e3,
            "pool.acquire_release_p50_us": median(leases) * 1e6,
        }


def service_mix(ctx: Context) -> ServiceWorkload:
    return ServiceWorkload(ctx)
