"""Buffered vs O_DIRECT ``pwrite`` + ``fsync`` on this box's filesystem.

    python3 tools/odirect_probe.py [--dir D] [--sizes 256K,8M,54M,256M]
                                   [--rounds 4]

A file-backed checkpoint region writes its payloads with O_DIRECT from
page-aligned staging buffers, huge-page backed once they stage 2 MiB.
This probe re-checks, on any box or filesystem, the measurements those
choices rest on: for each payload size it writes the same bytes to two
preallocated files in ``D``, one opened plainly and one opened
``O_DIRECT``, as writes of at most 16 MiB (the size rounded up to whole
pages) followed by one ``fsync``.  The bytes come from a plain anonymous
``mmap`` (4 KiB pages) and, for the ``O_DIRECT`` file, also from the
product's own staging buffer (a ``PinnedBuffer`` filled whole, so its
mapping is advised huge pages).  One unmeasured round per file
allocates its blocks; then the three modes alternate for ``--rounds``
rounds, reversing their order each round, so drift on the machine
lands on all alike.  It prints whether ``O_DIRECT`` opened, how much of
the staging buffer the kernel backed with huge pages, and two tables of
medians per size: the wall time, and the CPU time of the writing
thread.  The second shows what an idle box hides: pinning 4 KiB pages
costs CPU that, on a box busy copying and checksumming the next
checkpoint, the writes take from that work.
``make odirect-probe`` wraps this.
"""

from __future__ import annotations

import argparse
import mmap
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.storage.device import buffer_address  # noqa: E402
from repro.storage.dram import HUGE_PAGE_BYTES, PinnedBuffer  # noqa: E402

DEFAULT_SIZES = "256K,8M,54M,256M"
#: Largest single ``pwrite``: the writer pool's pieces are no larger.
PIECE = 16 << 20
_UNITS = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}

#: The ways a payload is written, in table order.
MODES = ("buffered", "O_DIRECT, 4 KiB pages", "O_DIRECT, huge pages")
#: ``(wall seconds, CPU seconds)`` of one write-and-fsync.
Timing = Tuple[float, float]
#: ``(size, per mode its median timing, None where O_DIRECT did not open)``.
Row = Tuple[int, List[Optional[Timing]]]


def parse_size(text: str) -> int:
    """``"256K"`` → 262144; a bare number is bytes."""
    text = text.strip().upper().removesuffix("IB").removesuffix("B")
    if text and text[-1] in _UNITS:
        return int(float(text[:-1]) * _UNITS[text[-1]])
    return int(text)


def format_size(nbytes: int) -> str:
    for unit, scale in (("GiB", 1 << 30), ("MiB", 1 << 20), ("KiB", 1 << 10)):
        if nbytes >= scale and nbytes % scale == 0:
            return f"{nbytes // scale} {unit}"
    return f"{nbytes} B"


def open_direct(path: str) -> Tuple[Optional[int], str]:
    """``(fd, "")`` for an ``O_DIRECT`` descriptor, or ``(None, why)``."""
    flag = getattr(os, "O_DIRECT", 0)
    if not flag:
        return None, "no O_DIRECT on this platform"
    try:
        return os.open(path, os.O_RDWR | os.O_CREAT | flag, 0o644), ""
    except OSError as exc:
        return None, f"open refused: {exc.strerror}"


def write_fsync(fd: int, source: memoryview) -> Timing:
    """Wall and thread CPU seconds to write ``source`` at offset 0 in
    pieces, then ``fsync``."""
    start, cpu = time.perf_counter(), time.thread_time()
    for lo in range(0, len(source), PIECE):
        piece = source[lo:lo + PIECE]
        if os.pwrite(fd, piece, lo) != len(piece):
            raise OSError(f"short write at {lo}")
    os.fsync(fd)
    return time.perf_counter() - start, time.thread_time() - cpu


def huge_page_share(mapping: mmap.mmap) -> Optional[float]:
    """Share of ``mapping`` the kernel backs with huge pages, from
    ``/proc/self/smaps`` (``None`` where there is none)."""
    address = buffer_address(memoryview(mapping))
    inside = False
    try:
        with open("/proc/self/smaps") as smaps:
            for line in smaps:
                head = line.split(None, 1)[0]
                if not head.endswith(":"):
                    lo, hi = (int(x, 16) for x in head.split("-"))
                    inside = lo <= address < hi
                elif inside and head == "AnonHugePages:":
                    return min(1.0, (int(line.split()[1]) << 10) / len(mapping))
    except OSError:
        pass
    return None


def probe(
    directory: str, sizes: Sequence[int], rounds: int
) -> Tuple[str, Optional[float], List[Row]]:
    """``(why_not_direct, huge_share, rows)``: per size, the median
    timing of each of :data:`MODES` (the two O_DIRECT ones ``None`` when
    ``O_DIRECT`` did not open; then ``why_not_direct`` says why, else it
    is empty).  ``huge_share`` is the staging buffer's huge-page share
    (:func:`huge_page_share`)."""
    paths = [os.path.join(directory, f"odirect_probe.{mode}")
             for mode in ("buffered", "direct")]
    largest = max(sizes)
    # Rounded up to whole sectors: O_DIRECT lengths must be.
    capacity = -(-largest // mmap.PAGESIZE) * mmap.PAGESIZE
    # The product's staging buffer, filled whole: at 2 MiB or more its
    # mapping is advised huge pages before the copy faults it in.
    staging = PinnedBuffer(0, -(-capacity // HUGE_PAGE_BYTES) * HUGE_PAGE_BYTES)
    while staging.used < staging.size:
        staging.append(os.urandom(min(PIECE, staging.size - staging.used)))
    small = mmap.mmap(-1, capacity)
    small.write(staging.data[:capacity])
    buffered = os.open(paths[0], os.O_RDWR | os.O_CREAT, 0o644)
    direct, why = open_direct(paths[1])
    rows: List[Row] = []
    try:
        for fd in (buffered, direct):
            if fd is not None:
                os.truncate(fd, capacity)
        sources = (memoryview(small), memoryview(staging.data))
        # (file, source) per mode in MODES order, as far as they opened.
        modes = [(buffered, 0)]
        if direct is not None:
            modes += [(direct, 0), (direct, 1)]
        for size in sizes:
            length = -(-size // mmap.PAGESIZE) * mmap.PAGESIZE
            for fd, source in modes[:2]:
                write_fsync(fd, sources[source][:length])  # allocates blocks
            runs: Dict[Tuple[int, int], List[Timing]] = {m: [] for m in modes}
            for index in range(rounds):
                for fd, source in modes if index % 2 == 0 else modes[::-1]:
                    runs[fd, source].append(
                        write_fsync(fd, sources[source][:length]))
            medians: List[Optional[Timing]] = [
                (statistics.median(wall for wall, _ in runs[m]),
                 statistics.median(cpu for _, cpu in runs[m]))
                for m in modes
            ]
            rows.append((size, medians + [None] * (len(MODES) - len(modes))))
        share = huge_page_share(staging.data)
    finally:
        for fd in (buffered, direct):
            if fd is not None:
                os.close(fd)
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
    return why, share, rows


def table(title: str, rows: Sequence[Row], pick: int) -> List[str]:
    """One Markdown table of each mode's ``timing[pick]`` per size."""
    lines = [
        title, "",
        f"| payload | {' | '.join(MODES)} | huge vs 4 KiB |",
        "|---|---|---|---|---|",
    ]
    for size, timings in rows:
        values = [None if t is None else t[pick] for t in timings]
        cells = ["n/a" if v is None else f"{v * 1e3:.3f} ms" for v in values]
        small, huge = values[1], values[2]
        change = ("n/a" if small is None or huge is None
                  else f"{(huge / small - 1) * 100:+.0f}%")
        lines.append(f"| {format_size(size)} | {' | '.join(cells)} | {change} |")
    return lines


def render(
    directory: str, rounds: int, why: str, share: Optional[float],
    rows: Sequence[Row],
) -> str:
    huge = "unknown" if share is None else f"{share:.0%}"
    return "\n".join([
        f"pwrite (<= {PIECE >> 20} MiB pieces) + fsync, in {directory}; "
        f"median of {rounds} alternated rounds",
        f"O_DIRECT opened: {'yes' if not why else 'no (' + why + ')'}",
        f"staging buffer on huge pages: {huge}",
        "",
        *table("wall time", rows, 0),
        "",
        *table("CPU time of the writing thread", rows, 1),
    ])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--dir", default=str(ROOT / ".bench_work"),
                        help="directory on the filesystem to probe")
    parser.add_argument("--sizes", default=DEFAULT_SIZES,
                        help="comma-separated payload sizes (K/M/G suffixes)")
    parser.add_argument("--rounds", type=int, default=4)
    args = parser.parse_args(argv)
    sizes = [parse_size(text) for text in args.sizes.split(",") if text.strip()]
    if not sizes or min(sizes) <= 0 or args.rounds <= 0:
        parser.error("sizes and rounds must be positive")
    os.makedirs(args.dir, exist_ok=True)
    why, share, rows = probe(args.dir, sizes, args.rounds)
    print(render(args.dir, args.rounds, why, share, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
