"""Measurement machinery shared by every workload.

A run is a sequence of *pairs*: one baseline block (the bare operation —
``pwrite+fsync``, ``pread``, or the training loop without checkpointing —
over the same bytes) followed by one system block of the same operation
count.  Blocks are small and many, so one slow operation spoils one pair
of a few dozen, not the median.  Interleaving keeps the roofline and the system under the same
machine weather, so their ratio is steadier than either number alone; every
timing metric is the median over the pairs (or over all per-operation
latencies), never a single pass.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: Fewest pairs a run may report medians over, however short ``--seconds``.
MIN_PAIRS = 5


@dataclass
class Block:
    """What one timed block did."""

    wall: float
    #: Operations that reached their goal (committed / validated / stepped).
    ops: int
    attempted: int = 0
    failed: int = 0
    #: Per-operation latencies of the workload's primary operation, seconds.
    latencies: List[float] = field(default_factory=list)
    #: Named secondary samples (seconds or counts), e.g. ``"api_block"``.
    extra: Dict[str, List[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.attempted:
            self.attempted = self.ops


Pair = Tuple[Block, Block]  # (baseline, system)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def run_pairs(workload, seconds: float) -> List[Pair]:
    """Alternate baseline and system blocks for about ``seconds``.

    Every block holds the workload's fixed ``block_ops`` operations, so a
    faster machine runs more pairs, never differently shaped ones: how
    many requests overlap inside a block is part of what is measured.
    """
    ops = workload.block_ops
    deadline = clock() + seconds
    pairs: List[Pair] = []
    last = 0.0
    while len(pairs) < MIN_PAIRS or clock() + 0.5 * last < deadline:
        started = clock()
        baseline = workload.baseline_block(ops)
        system = workload.system_block(ops)
        pairs.append((baseline, system))
        last = clock() - started
    return pairs


def collect(pairs: Sequence[Pair], key: Optional[str] = None,
            baseline: bool = False) -> List[float]:
    """All primary latencies (or the ``key`` extras) across the pairs."""
    out: List[float] = []
    for base, system in pairs:
        block = base if baseline else system
        out.extend(block.latencies if key is None else block.extra.get(key, ()))
    return out


def ops_per_second(pairs: Sequence[Pair], baseline: bool = False) -> float:
    """Median over blocks of completed operations per wall second."""
    rates = []
    for base, system in pairs:
        block = base if baseline else system
        if block.wall > 0:
            rates.append(block.ops / block.wall)
    return median(rates)


def slowdown(pairs: Sequence[Pair]) -> float:
    """Median over pairs of system time per op ÷ baseline time per op."""
    ratios = []
    for base, system in pairs:
        if base.ops and system.ops and base.wall > 0:
            ratios.append((system.wall / system.ops) / (base.wall / base.ops))
    return median(ratios)


def latency_ratio(pairs: Sequence[Pair]) -> float:
    """Median operation latency ÷ median latency of the bare operation."""
    bare = median(collect(pairs, baseline=True))
    return median(collect(pairs)) / bare if bare else 0.0


def totals(pairs: Sequence[Pair]) -> Tuple[int, int]:
    attempted = sum(system.attempted for _, system in pairs)
    failed = sum(system.failed for _, system in pairs)
    return attempted, failed


def peak_rss_mib() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def filesystem_type(path: str) -> str:
    """Type of the mount holding ``path`` (longest prefix in /proc/mounts)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                prefix = mount if mount.endswith("/") else mount + "/"
                if (path == mount or path.startswith(prefix)) and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def git_sha(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def environment(root: str, work_dir: str) -> dict:
    import numpy

    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "filesystem": filesystem_type(work_dir),
        "kernel": platform.release(),
        "page_cache": "warm (left as the preceding writes left it)",
        "flush_policy": "os.fsync per fence, buffered files unless stated",
    }
