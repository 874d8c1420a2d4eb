"""One service round, on a timeline of its own syscalls.

    python3 tools/service_round_probe.py [--dir D] [--rounds 20]
                                         [--warmup 3]

Builds the ``service_mix`` benchmark's shape in ``D``: a two-engine
``CheckpointService`` over O_DIRECT region files with three dedicated
8 MiB tenants and five coalesced 128 KiB tenants (8 MiB staging chunks,
two writer threads, ``observability="off"``).  A round submits one
checkpoint per tenant and waits for all eight, as the benchmark's
closed loop does.  Every ``os.pwrite`` and ``os.fsync`` the process
makes is timed through a wrapper, so each round is a timeline of device
calls, and the probe prints the median over ``--rounds`` rounds (after
``--warmup`` unmeasured ones) of:

* the round's wall time;
* the time from the round's start to the first payload write (a
  ``pwrite`` larger than a slot header or commit record);
* the device-busy fraction: the union of the intervals in which a
  ``pwrite`` or an ``fsync`` was running, over the wall time;
* when the dedicated tenants' requests settle, in the order they
  settled, and when the last coalesced one settles.

The wrappers cost a few microseconds per call on every side alike; the
figures are for comparing trees on one box, not absolute.
``make service-round-probe`` wraps this.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro import CheckpointService, EngineSpec, TenantSpec  # noqa: E402
from repro.core.meta import RECORD_SIZE  # noqa: E402

POOL_SIZE = 2
BIG_TENANTS = 3
SMALL_TENANTS = 5
BIG = 8 << 20
SMALL = 128 << 10
TICKET_TIMEOUT_S = 60.0

#: ``(kind, start, end, nbytes)`` of every timed syscall.
Call = Tuple[str, float, float, int]


class SyscallClock:
    """Times every ``os.pwrite``/``os.fsync`` while installed."""

    def __init__(self) -> None:
        self.calls: List[Call] = []
        self._saved: Dict[str, object] = {}

    def _wrap(self, name: str, sizer):
        real = getattr(os, name)
        calls = self.calls

        def timed(*args):
            start = time.perf_counter()
            try:
                return real(*args)
            finally:
                calls.append((name, start, time.perf_counter(), sizer(args)))

        self._saved[name] = real
        setattr(os, name, timed)

    def __enter__(self) -> "SyscallClock":
        self._wrap("pwrite", lambda args: len(memoryview(args[1])))
        self._wrap("fsync", lambda args: 0)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for name, real in self._saved.items():
            setattr(os, name, real)


def busy_seconds(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def build(directory: str):
    spec = EngineSpec(
        capacity_bytes=BIG, backend="ssd",
        path=os.path.join(directory, "service_round_probe.pc"),
        num_chunks=12, chunk_size=BIG, writer_threads=2,
        observability="off",
    )
    service = CheckpointService.create(spec, pool_size=POOL_SIZE)
    rng = np.random.default_rng(1)
    tenants = []
    for index in range(BIG_TENANTS):
        name = f"big{index}"
        service.register(TenantSpec(name=name, capacity_bytes=BIG, slots=1))
        tenants.append((name, "big", rng.integers(0, 256, BIG, dtype=np.uint8)))
    for index in range(SMALL_TENANTS):
        name = f"small{index}"
        service.register(
            TenantSpec(name=name, capacity_bytes=SMALL, coalesce=True))
        tenants.append(
            (name, "small", rng.integers(0, 256, SMALL, dtype=np.uint8)))
    return service, tenants


def one_round(service, tenants, step: int) -> Tuple[float, Dict[str, list]]:
    """Submit one request per tenant and wait for all; returns the round
    start and each kind's settle times (perf_counter seconds)."""
    settled: Dict[str, list] = {"big": [], "small": []}
    lock = threading.Lock()
    tickets = []
    start = time.perf_counter()
    for name, kind, buf in tenants:
        ticket = service.checkpoint_async(name, buf, step=step)

        def done(_ticket, kind=kind):
            now = time.perf_counter()
            with lock:
                settled[kind].append(now)

        ticket.add_done_callback(done)
        tickets.append(ticket)
    for ticket in tickets:
        if not ticket.result(TICKET_TIMEOUT_S).committed:
            raise RuntimeError(f"step {step}: a request did not commit")
    return start, settled


def measure(calls: Sequence[Call], start: float, end: float,
            settled: Dict[str, list]) -> Dict[str, float]:
    """One round's figures, in milliseconds (busy: a fraction)."""
    mine = [c for c in calls if start <= c[1] < end]
    payload = [c[1] for c in mine if c[0] == "pwrite" and c[3] > RECORD_SIZE]
    wall = end - start
    row = {
        "wall_ms": wall * 1e3,
        "first_payload_write_ms": (min(payload) - start) * 1e3
        if payload else float("nan"),
        "device_busy_frac": busy_seconds(
            [(c[1], min(c[2], end)) for c in mine]) / wall,
        "small_last_settle_ms": (max(settled["small"]) - start) * 1e3,
    }
    for index, when in enumerate(sorted(settled["big"])):
        row[f"big{index + 1}_settle_ms"] = (when - start) * 1e3
    return row


def probe(directory: str, rounds: int, warmup: int) -> List[Dict[str, float]]:
    """Per-round figures of ``rounds`` measured rounds."""
    work = tempfile.mkdtemp(prefix="service_round_probe.", dir=directory)
    service, tenants = build(work)
    rows = []
    try:
        for step in range(1, warmup + 1):
            one_round(service, tenants, step)
        with SyscallClock() as clock:
            for step in range(warmup + 1, warmup + rounds + 1):
                start, settled = one_round(service, tenants, step)
                end = time.perf_counter()
                rows.append(measure(clock.calls, start, end, settled))
                clock.calls.clear()
    finally:
        service.close()
        shutil.rmtree(work, ignore_errors=True)
    return rows


def render(directory: str, rows: Sequence[Dict[str, float]]) -> str:
    lines = [
        f"service round ({BIG_TENANTS} x 8 MiB dedicated + {SMALL_TENANTS} "
        f"x 128 KiB coalesced, pool of {POOL_SIZE}) in {directory}; "
        f"median of {len(rows)} rounds",
        "",
        "| figure | median | q1 | q3 |",
        "|---|---|---|---|",
    ]
    for name in rows[0]:
        values = [row[name] for row in rows if name in row]
        if len(values) > 1:
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        else:
            q1 = med = q3 = values[0]
        digits = 3 if name.endswith("frac") else 2
        lines.append(f"| {name} | {med:.{digits}f} | {q1:.{digits}f} "
                     f"| {q3:.{digits}f} |")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--dir", default=str(ROOT / ".bench_work"),
                        help="directory on the filesystem to probe")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--warmup", type=int, default=3)
    args = parser.parse_args(argv)
    if args.rounds <= 0 or args.warmup < 0:
        parser.error("rounds must be positive, warmup non-negative")
    os.makedirs(args.dir, exist_ok=True)
    print(render(args.dir, probe(args.dir, args.rounds, args.warmup)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
