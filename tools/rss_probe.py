"""Which stage of a benchmark run sets its ``peak_rss_mib``.

    python3 tools/rss_probe.py [--workload restore_large] [--seconds T]
                               [--dir D] [--smoke]

Drives one workload of the gated benchmark (``python3 -m bench``)
through ``bench.workloads``' public life cycle, in the order
``bench/cli.py`` runs an untraced measurement: the imports,
``make_inputs``, ``build``, ``prepare_baseline``, the alternating
baseline and system blocks (``--seconds`` of them, by default
``run_seconds`` of ``BENCHMARK.json``), and ``verify``.
After each stage it prints the process's peak resident set
(``ru_maxrss``, what the benchmark reports as ``peak_rss_mib`` right
after the blocks) and its current resident set (``/proc/self/statm``),
then names the stage that raised the peak most.  A stage whose current
RSS stays high after it returned is holding memory the next stage pays
on top of.

``--smoke`` divides the payloads by 64, as the benchmark's own smoke
run does.  The payload bytes come from seed 0, ``bench/cli.py``'s
default: the seed picks bytes, not sizes, so the peak does not depend
on it.  Region files go to a directory under ``--dir`` that is
removed afterwards.  Run it in a fresh process: the peak is the
process's, so anything that ran before in the same interpreter counts.
``make rss-probe`` wraps this.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

#: The stage after which the benchmark reads ``peak_rss_mib``.
MEASURED_STAGE = "blocks"
SMOKE_SCALE = 64
SMOKE_SECONDS = 0.6
SEED = 0

#: ``(stage, peak MiB, current MiB, seconds)`` per stage.
Row = Tuple[str, float, float, float]


def peak_rss_mib() -> float:
    """The process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mib() -> float:
    """The process's resident set now (0 where there is no procfs)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as statm:
            pages = int(statm.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / float(1 << 20)


def _imports() -> None:
    import repro  # noqa: F401
    import repro.baselines.pccheck  # noqa: F401
    import repro.training  # noqa: F401
    import bench.harness  # noqa: F401
    import bench.workloads  # noqa: F401


def probe(workload_name: str, seconds: float, scale: int,
          work_dir: str) -> List[Row]:
    """Run the stages; one row per stage, the interpreter's first."""
    rows: List[Row] = [("start", peak_rss_mib(), current_rss_mib(), 0.0)]

    def stage(name: str, run: Callable[[], object]) -> None:
        started = time.perf_counter()
        run()
        rows.append((name, peak_rss_mib(), current_rss_mib(),
                     time.perf_counter() - started))

    stage("imports", _imports)
    from bench import harness
    from bench.workloads import FACTORIES
    from bench.workloads.base import Context

    workload = FACTORIES[workload_name](
        Context(seed=SEED, scale=scale, work_dir=work_dir))
    try:
        stage("make_inputs", workload.make_inputs)
        stage("build", workload.build)
        stage("prepare_baseline", workload.prepare_baseline)
        outcome = {}
        stage(MEASURED_STAGE, lambda: outcome.update(
            failed=harness.totals(harness.run_pairs(workload, seconds))[1]))
        stage("verify", lambda: outcome.update(
            failed=outcome["failed"] + workload.verify()[1]))
    finally:
        workload.teardown()
    if outcome["failed"]:
        raise RuntimeError(f"{workload_name}: {outcome['failed']} operations "
                           "or checks failed")
    return rows


def render(workload_name: str, rows: Sequence[Row]) -> str:
    lines = [
        f"workload {workload_name}: peak and current RSS after each stage "
        f"(the benchmark reads peak_rss_mib after '{MEASURED_STAGE}')",
        "",
        "| stage | peak MiB | +peak MiB | current MiB | seconds |",
        "|---|---:|---:|---:|---:|",
    ]
    previous = 0.0
    rises = []
    for name, peak, current, seconds in rows:
        lines.append(f"| {name} | {peak:.1f} | {peak - previous:+.1f} "
                     f"| {current:.1f} | {seconds:.3f} |")
        rises.append((peak - previous, name))
        previous = peak
    rise, name = max(rises[1:])
    measured = dict((row[0], row[1]) for row in rows)[MEASURED_STAGE]
    lines += [
        "",
        f"peak_rss_mib as the benchmark reads it: {measured:.1f} MiB",
        f"largest rise of the peak: {name} ({rise:+.1f} MiB)",
    ]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="restore_large",
                        help="one workload of BENCHMARK.json")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time in the blocks stage (default: run_seconds "
                        f"of BENCHMARK.json, or {SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--dir", default=str(ROOT / ".bench_work"),
                        help="where region files live while the probe runs")
    parser.add_argument("--smoke", action="store_true",
                        help=f"payloads /{SMOKE_SCALE}")
    args = parser.parse_args(argv)
    from bench.defs import Definition  # reads BENCHMARK.json, imports nothing

    definition = Definition.load()
    if args.workload not in definition.workloads:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{', '.join(definition.workloads)}")
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else definition.run_seconds
    if seconds <= 0:
        parser.error("seconds must be positive")
    work_dir = os.path.join(args.dir, f"rss-probe-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        rows = probe(args.workload, seconds,
                     SMOKE_SCALE if args.smoke else 1, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(render(args.workload, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
