"""Buffered vs O_DIRECT ``pwrite`` + ``fsync`` on this box's filesystem.

    python3 tools/odirect_probe.py [--dir D] [--sizes 256K,8M,54M,256M]
                                   [--rounds 4]

A file-backed checkpoint region writes its payloads with O_DIRECT from
page-aligned staging buffers.  This probe re-checks, on any box or
filesystem, the measurement that choice rests on: for each payload size
it writes the same bytes from one page-aligned anonymous ``mmap`` to two
preallocated files in ``D``, one opened plainly and one opened
``O_DIRECT``, as writes of at most 16 MiB (the size rounded up to whole
pages) followed by one ``fsync``.  One unmeasured round per file
allocates its blocks; then the two modes alternate for ``--rounds``
rounds, swapping which goes first each round, so drift on the machine
lands on both alike.  It prints whether ``O_DIRECT`` opened and a table
of the median time per size.
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
DEFAULT_SIZES = "256K,8M,54M,256M"
#: Largest single ``pwrite``: the writer pool's pieces are no larger.
PIECE = 16 << 20
_UNITS = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


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


def write_fsync(fd: int, source: memoryview) -> float:
    """Seconds to write ``source`` at offset 0 in pieces, then ``fsync``."""
    start = time.perf_counter()
    for lo in range(0, len(source), PIECE):
        piece = source[lo:lo + PIECE]
        if os.pwrite(fd, piece, lo) != len(piece):
            raise OSError(f"short write at {lo}")
    os.fsync(fd)
    return time.perf_counter() - start


def probe(
    directory: str, sizes: Sequence[int], rounds: int
) -> Tuple[str, List[Tuple[int, float, Optional[float]]]]:
    """``(why_not_direct, rows)``: per size, the median buffered and
    O_DIRECT seconds (``None`` when ``O_DIRECT`` did not open; then
    ``why_not_direct`` says why, else it is empty)."""
    paths = [os.path.join(directory, f"odirect_probe.{mode}")
             for mode in ("buffered", "direct")]
    largest = max(sizes)
    # Rounded up to whole sectors: O_DIRECT lengths must be.
    capacity = -(-largest // mmap.PAGESIZE) * mmap.PAGESIZE
    source = mmap.mmap(-1, capacity)
    for _ in range(0, capacity, PIECE):
        source.write(os.urandom(min(PIECE, capacity - source.tell())))
    buffered = os.open(paths[0], os.O_RDWR | os.O_CREAT, 0o644)
    direct, why = open_direct(paths[1])
    rows = []
    try:
        for fd in (buffered, direct):
            if fd is not None:
                os.truncate(fd, capacity)
        whole = memoryview(source)
        for size in sizes:
            view = whole[:-(-size // mmap.PAGESIZE) * mmap.PAGESIZE]
            fds = [fd for fd in (buffered, direct) if fd is not None]
            for fd in fds:
                write_fsync(fd, view)  # allocates the file's blocks
            times: Dict[int, List[float]] = {fd: [] for fd in fds}
            for index in range(rounds):
                for fd in fds if index % 2 == 0 else fds[::-1]:
                    times[fd].append(write_fsync(fd, view))
            rows.append((
                size,
                statistics.median(times[buffered]),
                statistics.median(times[direct]) if direct is not None
                else None,
            ))
    finally:
        for fd in (buffered, direct):
            if fd is not None:
                os.close(fd)
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
    return why, rows


def render(
    directory: str, rounds: int, why: str,
    rows: Sequence[Tuple[int, float, Optional[float]]],
) -> str:
    lines = [
        f"pwrite (<= {PIECE >> 20} MiB pieces) + fsync from a page-aligned "
        f"mmap, in {directory}; median of {rounds} alternated rounds",
        f"O_DIRECT opened: {'yes' if not why else 'no (' + why + ')'}",
        "",
        "| payload | buffered | O_DIRECT | change |",
        "|---|---|---|---|",
    ]
    for size, plain, direct in rows:
        if direct is None:
            cells = "n/a | n/a"
        else:
            cells = f"{direct * 1e3:.3f} ms | {(direct / plain - 1) * 100:+.0f}%"
        lines.append(f"| {format_size(size)} | {plain * 1e3:.3f} ms | {cells} |")
    return "\n".join(lines)


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
    why, rows = probe(args.dir, sizes, args.rounds)
    print(render(args.dir, args.rounds, why, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
