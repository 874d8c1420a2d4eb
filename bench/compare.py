"""Compare two ``results.json`` files written by ``python3 -m bench``.

    python3 bench/compare.py A.json B.json [--symmetric]

``A`` is the reference (the parent commit, or the first of two same-code
runs) and ``B`` what is judged against it.  For every workload and
end-to-end metric it prints both values, the relative difference and the
bound from ``BENCHMARK.json``, and exits non-zero when ``B`` is worse than
``A`` by more than the bound, when more operations failed in ``B``, or when
a metric that is an exact count differs.  ``--symmetric`` also fails on a
*better* reading beyond the bound: two runs of the same commit must agree
in both directions.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

DEFINITION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Per-layer metrics that count operations or bytes with one request
#: outstanding at a time, so they must repeat exactly: (workload, metric).
EXACT_COUNTS = (
    ("save_small", "ssd.write_amp"),
    ("save_small", "ssd.fences_per_ckpt"),
    ("save_small", "storage_bytes_per_payload_byte"),
    ("save_large", "storage_bytes_per_payload_byte"),
    ("restore_large", "recovery.read_amp"),
    ("restore_large", "recovery.scan_read_amp"),
)


def relative_worsening(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of
    ``before``; negative when it is better."""
    if before == 0:
        return 0.0
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def compare(a: dict, b: dict, definition: dict, symmetric: bool) -> int:
    problems = 0
    for workload in (w["name"] for w in definition["workloads"]):
        in_a = a["workloads"].get(workload)
        in_b = b["workloads"].get(workload)
        if in_a is None or in_b is None:
            print(f"{workload}: missing from {'A' if in_a is None else 'B'}")
            problems += 1
            continue
        print(f"{workload}")
        for metric in definition["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            before = in_a["end_to_end"][name]["value"]
            after = in_b["end_to_end"][name]["value"]
            worse = relative_worsening(before, after, metric["better"])
            verdict = "ok"
            if worse > bound:
                verdict = "WORSE beyond bound"
            elif symmetric and -worse > bound:
                verdict = "DIFFERS beyond bound"
            problems += verdict != "ok"
            print(f"  {name:<16} A {before:>12.6g}  B {after:>12.6g} "
                  f"{metric['unit']:<6} worse by {worse:+8.2%}  "
                  f"bound {bound:.0%}  {verdict}")
        if in_b["failed"] > in_a["failed"]:
            print(f"  failed operations rose: {in_a['failed']} -> {in_b['failed']}")
            problems += 1
        for exact_workload, name in EXACT_COUNTS:
            if exact_workload != workload:
                continue
            before = in_a["per_layer"][name]["value"]
            after = in_b["per_layer"][name]["value"]
            same = before == after
            problems += not same
            print(f"  {name:<32} A {before!r}  B {after!r}  "
                  f"{'exact' if same else 'EXACT COUNT DIFFERS'}")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="reference results.json")
    parser.add_argument("b", help="results.json judged against it")
    parser.add_argument("--symmetric", action="store_true",
                        help="same-code agreement: fail in either direction")
    args = parser.parse_args(argv)
    with open(args.a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(args.b, encoding="utf-8") as handle:
        b = json.load(handle)
    with open(DEFINITION, encoding="utf-8") as handle:
        definition = json.load(handle)
    problems = compare(a, b, definition, args.symmetric)
    print(f"{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
