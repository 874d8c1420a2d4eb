"""Alternated parent/change pairs of benchmark workloads.

    python3 tools/bench_pairs.py --ref REF --workload "W1 W2" --seeds "1 2 3"

checks ``REF`` out with ``git worktree add --detach`` into a temporary
directory and, for each workload in turn and each seed, runs ``python3
-m bench --workload W --seed S --trace 0`` once in that tree and once
in this one, each for the benchmark's ``run_seconds``.  Both sides keep
their region files in this tree's ``.bench_work/`` and their outputs in
``.bench_out/pairs/``, so they write to the same directory on the same
filesystem.  Which side
runs first alternates from seed to seed, so drift on the machine lands
on both sides alike.  Every run's end-to-end metrics
(``BENCHMARK.json``'s ``end_to_end``) and failed-operation count are
printed as they finish, then, per workload and metric, the median and
quartiles of each side and how many pairs the change won; the exit
status is 1 when any run failed an operation.  The worktree is removed
on exit.  ``make bench-pairs`` wraps this.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out" / "pairs"

Run = Dict[str, float]


def end_to_end_metrics() -> List[Tuple[str, str]]:
    """``(name, better)`` for every end-to-end metric of the benchmark."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    base: Sequence[Run], change: Sequence[Run],
    metrics: Sequence[Tuple[str, str]],
) -> Dict[str, dict]:
    """Per metric: each side's quartiles and the pairs the change won.

    ``base[i]`` and ``change[i]`` are the two runs of seed ``i``; a pair
    is won when the change is strictly better in the metric's direction.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same, non-zero number of runs per side")
    summary = {}
    for name, better in metrics:
        base_values = [run[name] for run in base]
        change_values = [run[name] for run in change]
        sign = 1 if better == "lower" else -1
        won = sum(
            sign * (c - b) < 0 for b, c in zip(base_values, change_values)
        )
        summary[name] = {
            "base": quartiles(base_values),
            "change": quartiles(change_values),
            "won": won,
            "pairs": len(base),
        }
    return summary


def run_bench(tree: Path, workload: str, seed: int) -> Run:
    """One untraced run in ``tree``; its metric values plus ``failed``.

    ``python3 -m bench`` exits 1 when an operation failed but still
    prints its result, so the status is not checked: only a run that
    printed no result raises, with its stderr.
    """
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(seed), "--trace", "0",
               "--dir", str(WORK_DIR), "--out", str(OUT_DIR)]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(
            f"{tree}: seed {seed} printed no result (exit {proc.returncode})"
            f":\n{proc.stderr}"
        ) from None
    run = {name: m["value"] for name, m in result["metrics"].items()}
    run["failed"] = result["failed"]
    return run


@contextmanager
def worktree(ref: str) -> Iterator[Path]:
    """A detached checkout of ``ref``, removed on exit."""
    tree = Path(tempfile.mkdtemp(prefix="bench-pairs-")) / "tree"
    subprocess.run(["git", "worktree", "add", "--detach", str(tree), ref],
                   cwd=ROOT, check=True, capture_output=True)
    try:
        yield tree
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                       cwd=ROOT, check=False, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)
        os.rmdir(tree.parent)


def format_summary(summary: Dict[str, dict]) -> str:
    lines = [f"{'metric':<14} {'base median (q1-q3)':<28} "
             f"{'change median (q1-q3)':<28} won"]
    for name, row in summary.items():
        cells = [f"{m:.4g} ({q1:.4g}-{q3:.4g})"
                 for q1, m, q3 in (row["base"], row["change"])]
        lines.append(f"{name:<14} {cells[0]:<28} {cells[1]:<28} "
                     f"{row['won']}/{row['pairs']}")
    return "\n".join(lines)


def compare(
    base_tree: Path, change_tree: Path, workloads: Sequence[str],
    seeds: Sequence[int],
) -> int:
    """Alternate the two trees over every seed of each workload in turn,
    printing every run and then each workload's summary; returns the
    number of failed operations over all runs."""
    metrics = end_to_end_metrics()
    names = [name for name, _ in metrics]
    failed = 0
    for workload in workloads:
        base: List[Run] = []
        change: List[Run] = []
        for index, seed in enumerate(seeds):
            order = [("base", base_tree, base), ("change", change_tree, change)]
            if index % 2:
                order.reverse()
            for side, tree, runs in order:
                run = run_bench(tree, workload, seed)
                runs.append(run)
                values = " ".join(f"{name}={run[name]:.4g}" for name in names)
                print(f"{workload} seed {seed} {side:<6} {values} "
                      f"failed={run['failed']}", flush=True)
        base_failed = sum(run["failed"] for run in base)
        change_failed = sum(run["failed"] for run in change)
        print(f"== {workload}")
        print(format_summary(summarize(base, change, metrics)))
        print(f"failed operations: base {base_failed}, "
              f"change {change_failed}", flush=True)
        failed += base_failed + change_failed
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", required=True,
                        help="git ref of the base side")
    parser.add_argument("--workload", required=True,
                        help='whitespace-separated workloads, e.g. '
                             '"save_large service_mix"')
    parser.add_argument("--seeds", required=True,
                        help='whitespace-separated seeds, e.g. "1 2 3"')
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split()]
    with worktree(args.ref) as base_tree:
        failed = compare(base_tree, ROOT, args.workload.split(), seeds)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
