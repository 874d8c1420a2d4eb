"""Telemetry overhead guard on the demo workload.

The figure of record is ``bench/``'s ``trace.overhead_frac`` on real
files (bench/README.md); this test uses a loose bound on the throttled
demo device so CI timing noise can't flake it while still catching a
real regression (e.g. tracing growing a lock on the persist hot path).
"""

from repro.obs.driver import run_demo_workload
from repro.obs.metrics import M

#: CI-safe bound: an order of magnitude above the 3 % budget, far
#: below what an accidental O(n) regression would produce.
GUARD_FRACTION = 0.30

KNOBS = dict(
    checkpoints=8, concurrent=4, payload_bytes=64 * 1024,
    persist_bandwidth=96e6,
)


class TestBenchObs:
    def test_report_structure_and_overhead_guard(self):
        # Warm both paths once (thread pools, allocator, imports), then
        # alternate off/full so slow drift biases neither side.
        for level in ("off", "full"):
            run_demo_workload(observability=level, seed=11, **KNOBS)
        off_times, on_times = [], []
        for round_index in range(3):
            seed = 11 + round_index
            off = run_demo_workload(observability="off", seed=seed, **KNOBS)
            on = run_demo_workload(observability="full", seed=seed, **KNOBS)
            off_times.append(off.elapsed_seconds)
            on_times.append(on.elapsed_seconds)
        # Best-of-N: telemetry cost is a deterministic additive term,
        # scheduler jitter strictly additive noise.
        overhead = (min(on_times) - min(off_times)) / min(off_times)
        assert overhead < GUARD_FRACTION

        assert on.committed > 0
        assert on.metrics.value(M.BYTES_PERSISTED) > 0
        assert len(on.tracer.to_chrome_trace()["traceEvents"]) > 0
        for stall in (M.SLOT_WAIT_SECONDS, M.BUFFER_WAIT_SECONDS,
                      M.UPDATE_STALL_SECONDS):
            assert on.metrics.value(stall) >= 0
        assert off.committed > 0 and min(off_times) > 0
