"""Telemetry overhead guard on the demo workload, and the lookup count
behind it.

The figure of record is ``bench/``'s ``trace.overhead_frac`` on real
files (bench/README.md).  The guard here times the throttled demo
device at every level against ``"off"``: each run is lengthened until
the ``"off"`` denominator is at least half a second, so scheduler jitter
is a small part of it, and the levels are compared by the medians of
runs taken in rotating order, so slow drift biases none of them.

Beneath it, a counting registry checks that a steady-state checkpoint
looks no series up: every handle on the checkpoint path is bound when
its component is built or attached — and so is every pool, tenant and
batcher series a steady-state service request touches.  And the glue
itself is pinned: a blocking one-chunk checkpoint runs as one
straight-line function, so its Python call count is bounded and it
builds no ``Condition``, ``Event`` or ``Future``.
"""

import cProfile
import pstats
import statistics
import threading
from concurrent.futures import Future

import pytest

from repro import open_checkpointer
from repro.core.sanitize import ENV_VAR
from repro.core.snapshot import BytesSource
from repro.obs.driver import run_demo_workload
from repro.obs.metrics import M, MetricsRegistry
from repro.service.admission import TenantSpec
from repro.service.pool import EnginePool, EngineSpec, build_stack
from repro.service.service import CheckpointService

#: CI-safe bound: an order of magnitude above the 3 % budget, far
#: below what an accidental O(n) regression would produce.
GUARD_FRACTION = 0.30

#: Shortest ``"off"`` run the guard divides by.
MIN_DENOMINATOR_S = 0.5

ROUNDS = 3

KNOBS = dict(concurrent=4, payload_bytes=64 * 1024, persist_bandwidth=96e6)

LEVELS = ("off", "metrics", "full")


def _run(level, checkpoints, seed):
    return run_demo_workload(
        observability=level, checkpoints=checkpoints, seed=seed, **KNOBS
    )


class TestBenchObs:
    def test_report_structure_and_overhead_guard(self):
        # Warm every level once (thread pools, allocator, imports), then
        # size the run so the "off" denominator reaches its floor.
        for level in LEVELS:
            _run(level, 8, 11)
        checkpoints = 64
        while _run("off", checkpoints, 11).elapsed_seconds < MIN_DENOMINATOR_S:
            checkpoints *= 2
        times = {level: [] for level in LEVELS}
        runs = {}
        for round_index in range(ROUNDS):
            # Rotate the order so no level always runs first or last.
            order = LEVELS[round_index:] + LEVELS[:round_index]
            for level in order:
                runs[level] = _run(level, checkpoints, 11 + round_index)
                times[level].append(runs[level].elapsed_seconds)
        off = statistics.median(times["off"])
        assert off >= MIN_DENOMINATOR_S * 0.8, times
        for level in ("metrics", "full"):
            overhead = (statistics.median(times[level]) - off) / off
            assert overhead < GUARD_FRACTION, (level, overhead, times)

        full = runs["full"]
        assert full.committed > 0
        assert full.metrics.value(M.BYTES_PERSISTED) > 0
        assert len(full.tracer.to_chrome_trace()["traceEvents"]) > 0
        for stall in (M.SLOT_WAIT_SECONDS, M.BUFFER_WAIT_SECONDS,
                      M.UPDATE_STALL_SECONDS):
            assert full.metrics.value(stall) >= 0
        assert runs["off"].committed > 0


class _CountingRegistry(MetricsRegistry):
    """Counts series lookups (``_get``: label sort + registry lock)."""

    def __init__(self) -> None:
        super().__init__()
        self.lookups = 0

    def _get(self, *args, **kwargs):
        self.lookups += 1
        return super()._get(*args, **kwargs)


class TestBoundInstruments:
    @pytest.mark.parametrize("chunks", [1, 4], ids=["one-chunk", "4-chunk"])
    @pytest.mark.parametrize("level", ["off", "metrics"])
    def test_a_steady_state_checkpoint_looks_nothing_up(
        self, tmp_path, level, chunks
    ):
        """Blocking checkpoints on a real O_DIRECT region, the
        ``save_small`` shape (one chunk) and a pipelined one (four):
        once every series has been seen, twenty more checkpoints make
        zero registry lookups."""
        payload_bytes = 256 << 10
        registry = _CountingRegistry()
        stack = build_stack(
            EngineSpec(
                capacity_bytes=payload_bytes, backend="ssd",
                path=str(tmp_path / "region.pc"), observability=level,
                chunk_size=payload_bytes // chunks,
            ),
            metrics=registry,
        )
        try:
            payload = bytes(range(256)) * (payload_bytes // 256)
            for step in range(1, 4):
                stack.orchestrator.checkpoint_sync(BytesSource(payload), step)
            registry.lookups = 0
            for step in range(4, 24):
                result = stack.orchestrator.checkpoint_sync(
                    BytesSource(payload), step
                )
                assert result.committed
            assert registry.lookups == 0
            assert registry.value(M.COMMITS) == 23
        finally:
            stack.close()

    @pytest.mark.parametrize("coalesce", [False, True],
                             ids=["dedicated", "coalesced"])
    def test_a_steady_state_service_request_looks_nothing_up(self, coalesce):
        """Twenty requests through a ``pmem`` service once each series
        has been seen: the pool's ticket gauges, the tenant's counters
        and in-flight gauge, and the batcher's counters make zero
        lookups (only a rejection, with its ``reason=`` label, may)."""
        registry = _CountingRegistry()
        spec = EngineSpec(capacity_bytes=64 << 10, backend="pmem",
                          num_chunks=4, chunk_size=64 << 10)
        pool = EnginePool(spec, 2, metrics=registry)
        with CheckpointService(pool, owns_pool=True) as service:
            service.register(TenantSpec(name="t", capacity_bytes=4096,
                                        coalesce=coalesce))
            payload = bytes(range(256)) * 16
            for step in range(1, 4):
                service.checkpoint("t", payload, step=step, timeout=10)
            registry.lookups = 0
            for step in range(4, 24):
                result = service.checkpoint("t", payload, step=step,
                                            timeout=10)
                assert result.committed
            assert registry.lookups == 0
            assert registry.value(M.TENANT_COMMITS, tenant="t") == 23


#: Python calls (cProfile's ``total_calls``, C functions included) one
#: blocking 256 KiB checkpoint may make at ``observability="off"``,
#: from ``Checkpointer.checkpoint`` to its return.  153 on CPython 3.11;
#: the parent of the straight-line path made 367.
CALLS_PER_CHECKPOINT = 160


class TestBlockingCheckpointGlue:
    @pytest.fixture
    def checkpointer(self, tmp_path, monkeypatch):
        # The budget is the production path's: the runtime sanitizer's
        # shadow bookkeeping (REPRO_SANITIZE=1) adds calls of its own.
        monkeypatch.delenv(ENV_VAR, raising=False)
        payload_bytes = 256 << 10
        ck = open_checkpointer(
            str(tmp_path / "region.pc"), capacity_bytes=payload_bytes,
            num_concurrent=2, writer_threads=2, num_chunks=4,
            observability="off",
        )
        payload = bytearray(bytes(range(256)) * (payload_bytes // 256))
        for step in range(1, 6):  # warm-up: every slot written once
            ck.checkpoint(payload, step=step)
        yield ck, payload
        ck.close()

    def test_python_calls_per_checkpoint_are_bounded(self, checkpointer):
        ck, payload = checkpointer
        checkpoints = 20
        profile = cProfile.Profile()
        profile.enable()
        for step in range(10, 10 + checkpoints):
            ck.checkpoint(payload, step=step)
        profile.disable()
        calls = pstats.Stats(profile).total_calls / checkpoints
        assert calls <= CALLS_PER_CHECKPOINT, calls

    def test_no_condition_event_or_future_is_built(
        self, checkpointer, monkeypatch
    ):
        ck, payload = checkpointer
        built = []
        for cls in (threading.Condition, threading.Event, Future):
            init = cls.__init__

            def counting(self, *args, _init=init, _name=cls.__name__,
                         **kwargs):
                built.append(_name)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        for step in range(10, 30):
            assert ck.checkpoint(payload, step=step).committed
        assert built == []
