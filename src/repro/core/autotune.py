"""Configuration auto-tuning — the tool of §3.4.

Given user constraints (DRAM budget M, storage budget S, max slowdown q)
and measured system parameters (iteration time t, checkpoint size m,
bandwidths), the tool finds:

* ``N*`` — the number of concurrent checkpoints minimising ``Tw / N``,
  where ``Tw(N)`` is the worst-case time from starting a checkpoint's
  GPU copy to its durable commit when N checkpoints contend; and
* ``f*`` — the minimum checkpoint interval keeping overhead below q
  (Eq. 3): ``f* = ceil(Tw / (N* · q · t))``.

``Tw(N)`` is measured empirically, like the paper's profiling round: a
probe callable runs checkpoints back-to-back at concurrency ``n`` and
reports the mean per-checkpoint wall time.  Two probes ship with the
library: :func:`functional_tw_probe` drives the real engine against a
bandwidth-throttled in-memory device, and the performance simulator
provides :func:`repro.sim.runner.simulated_tw_probe`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.config import SystemParameters, UserConstraints
from repro.errors import ConfigError

#: A probe maps a candidate concurrency N to a measured Tw in seconds.
TwProbe = Callable[[int], float]


def min_checkpoint_interval(
    tw: float, num_concurrent: int, max_slowdown: float, iteration_time: float
) -> int:
    """Eq. 3: the minimum interval f* (iterations) for overhead <= q."""
    if tw < 0:
        raise ConfigError(f"Tw must be >= 0, got {tw}")
    if num_concurrent < 1:
        raise ConfigError(f"N must be >= 1, got {num_concurrent}")
    if max_slowdown < 1.0:
        raise ConfigError(f"q must be >= 1, got {max_slowdown}")
    if iteration_time <= 0:
        raise ConfigError(f"t must be positive, got {iteration_time}")
    overhead_budget = max(max_slowdown - 1.0, 1e-9)
    f_star = math.ceil(tw / (num_concurrent * overhead_budget * iteration_time))
    return max(1, f_star)


def slots_for_interval(
    tw: float, interval: int, max_slowdown: float, iteration_time: float
) -> int:
    """Eq. 3 solved for N: the smallest concurrent-slot quota that lets a
    tenant checkpoint every ``interval`` iterations within its overhead
    budget.

    :func:`min_checkpoint_interval` maps (Tw, N) to the minimum interval
    f*; this is its inverse — the multi-tenant service uses it to turn a
    tenant's requested cadence into the number of engine slots it must be
    allotted (``N >= Tw / (f · (q-1) · t)``), so quotas come straight out
    of the paper's model instead of being guessed.  The returned N always
    satisfies ``min_checkpoint_interval(tw, N, q, t) <= interval``.
    """
    if tw < 0:
        raise ConfigError(f"Tw must be >= 0, got {tw}")
    if interval < 1:
        raise ConfigError(f"interval f must be >= 1, got {interval}")
    if max_slowdown < 1.0:
        raise ConfigError(f"q must be >= 1, got {max_slowdown}")
    if iteration_time <= 0:
        raise ConfigError(f"t must be positive, got {iteration_time}")
    overhead_budget = max(max_slowdown - 1.0, 1e-9)
    slots = math.ceil(tw / (interval * overhead_budget * iteration_time))
    return max(1, slots)


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a tuning run."""

    num_concurrent: int  # N*
    tw_seconds: float  # measured Tw at N*
    interval: int  # f*
    #: Tw measured for every candidate N, for sensitivity reporting.
    candidates: Dict[int, float]


def max_concurrency(system: SystemParameters, constraints: UserConstraints) -> int:
    """The storage-budget bound of Table 2: ``N <= S/m - 1``."""
    bound = constraints.storage_budget // system.checkpoint_size - 1
    if bound < 1:
        raise ConfigError(
            f"storage budget {constraints.storage_budget} cannot hold "
            f"two checkpoints of {system.checkpoint_size} bytes"
        )
    return bound


def tune(
    probe: TwProbe,
    system: SystemParameters,
    constraints: UserConstraints,
    max_candidates: int = 4,
) -> TuningResult:
    """Find N* and f* for a workload.

    Varies N in ``[1, min(S/m - 1, max_candidates)]``, measures Tw for
    each via ``probe``, and picks the N minimising Tw/N.  The paper
    observes 2–4 concurrent checkpoints already saturate storage
    bandwidth, so a small candidate cap keeps the profiling round cheap.
    """
    upper = min(max_concurrency(system, constraints), max_candidates)
    measurements: Dict[int, float] = {}
    best_n = 1
    best_objective = math.inf
    for candidate in range(1, upper + 1):
        tw = probe(candidate)
        if tw < 0:
            raise ConfigError(f"probe returned negative Tw {tw} for N={candidate}")
        measurements[candidate] = tw
        objective = tw / candidate
        if objective < best_objective:
            best_objective = objective
            best_n = candidate
    tw_star = measurements[best_n]
    interval = min_checkpoint_interval(
        tw_star, best_n, constraints.max_slowdown, system.iteration_time
    )
    return TuningResult(
        num_concurrent=best_n,
        tw_seconds=tw_star,
        interval=interval,
        candidates=measurements,
    )


def expected_runtime(
    total_iterations: int,
    iteration_time: float,
    interval: int,
    num_concurrent: int,
    tw: float,
) -> float:
    """The paper's runtime model (runtime_2 in §3.4).

    ``f·t + max(Tw, N·f·t) · (A/(f·N) - 1) + Tw`` — the first interval
    runs uncheckpointed, then groups of N intervals overlap with (or stall
    behind) one Tw, and the final checkpoint drains after training.
    """
    if interval < 1 or num_concurrent < 1:
        raise ConfigError("interval and concurrency must be >= 1")
    groups = total_iterations / (interval * num_concurrent)
    stride = max(tw, num_concurrent * interval * iteration_time)
    return interval * iteration_time + stride * max(groups - 1, 0) + tw


def functional_tw_probe(
    checkpoint_size: int,
    storage_bandwidth: float,
    writer_threads: int = 3,
    rounds: int = 3,
    issue_gap: Optional[float] = None,
) -> TwProbe:
    """Build a probe that measures Tw on the real engine.

    The probe formats a fresh bandwidth-throttled
    :class:`~repro.storage.ssd.InMemorySSD` with ``n + 1`` slots, then
    issues ``n × rounds`` checkpoints from ``n`` threads and reports the
    mean begin→commit wall time.  ``issue_gap`` (default: one payload's
    unthrottled persist time / n) spaces the issues like the paper's
    "initiates a checkpoint every t seconds" profiling round.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.core.engine import CheckpointEngine
    from repro.core.layout import RECORD_SIZE, DeviceLayout
    from repro.storage.ssd import InMemorySSD

    payload = bytes(checkpoint_size)

    def probe(candidate_n: int) -> float:
        slot_size = checkpoint_size + RECORD_SIZE
        num_slots = candidate_n + 1
        capacity = 2 * SLOT_REGION_PAD + num_slots * slot_size
        device = InMemorySSD(capacity, persist_bandwidth=storage_bandwidth)
        layout = DeviceLayout.format(device, num_slots=num_slots, slot_size=slot_size)
        engine = CheckpointEngine(layout, writer_threads=writer_threads)
        gap = issue_gap
        if gap is None:
            gap = checkpoint_size / storage_bandwidth / max(candidate_n, 1) / 2

        durations = []

        def one_checkpoint(index: int) -> float:
            time.sleep(gap * index)
            start = time.monotonic()
            engine.checkpoint(payload, step=index)
            return time.monotonic() - start

        try:
            with ThreadPoolExecutor(max_workers=candidate_n) as pool:
                futures = [
                    pool.submit(one_checkpoint, index)
                    for index in range(candidate_n * rounds)
                ]
                durations = [future.result() for future in futures]
        finally:
            engine.close()
            device.close()
        return sum(durations) / len(durations)

    return probe


#: Padding around the metadata area used when sizing probe devices.
SLOT_REGION_PAD: int = 8192
