"""The one command.

``python3 -m bench --workload W --seed S --seconds T --trace 0|1``
    runs one workload in this (fresh) process and prints, as its last line
    of standard output, the result object ``BENCHMARK.json``'s contract
    asks for: every end-to-end metric with ``--trace 0``, every per-layer
    metric with ``--trace 1``.

``python3 -m bench --seed S --out DIR [--smoke]``
    runs all five workloads, each in its own subprocess, untraced then
    traced, writes ``DIR/results.json`` and one ``trace_<workload>.json``
    per workload, and appends one line to ``bench/history.jsonl`` (never
    under ``--smoke``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Dict, Optional, Sequence

from bench.defs import ROOT, Definition

SRC = ROOT / "src"
HISTORY_PATH = ROOT / "bench" / "history.jsonl"
#: Builds per run; set-up time is their median.
SETUP_BUILDS = 5
#: How a traced run splits ``--seconds``: an untraced reference phase, the
#: traced phase, and a budget for the direct layer probes.
REFERENCE_SHARE, TRACED_SHARE, PROBE_SHARE = 0.3, 0.4, 0.3
#: The ungated absolute numbers behind the gated ratios (per-layer
#: metrics); history keeps them so the trajectory has real units.
ABSOLUTE_NAMES = (
    "save_gbps", "commit_p50_ms", "ckpt_per_s", "restore_gbps",
    "restore_scan_gbps", "train_slowdown", "train_steps_per_s",
    "svc_big_commit_p50_ms", "svc_small_commit_p50_ms", "svc_goodput_mbps",
    "storage_bytes_per_payload_byte",
)
SMOKE_SECONDS = 0.6
SMOKE_SCALE = 64


def _import_stack() -> float:
    """Put ``src/`` on the path, import the program; seconds it took."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: {SRC}/repro not found — run from a checkout that "
              "holds the program under test", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import repro  # noqa: F401
    import repro.training  # noqa: F401
    import repro.baselines.pccheck  # noqa: F401
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# one workload, in this process


def _say(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<40} {value:>14.6g} {unit:<8} {note}".rstrip())


def run_workload(definition: Definition, name: str, seed: int, seconds: float,
                 trace: bool, scale: int, work_root: str, out_dir: str) -> dict:
    import_s = _import_stack()
    from bench import harness
    from bench.workloads import FACTORIES
    from bench.workloads.base import Context

    work_dir = os.path.join(work_root, f"{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    workload = FACTORIES[name](Context(seed=seed, scale=scale, work_dir=work_dir))
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"
          f"  payload/{scale}")
    tally = Tally()
    try:
        workload.make_inputs()
        builds = [_timed_build(workload)]
        workload.prepare_baseline()
        if trace:
            values = _traced_run(workload, seconds, tally, out_dir)
        else:
            pairs = harness.run_pairs(workload, seconds)
            rss = harness.peak_rss_mib()
            tally.add(*harness.totals(pairs))
            tally.add(*workload.verify())
        # The remaining set-ups run after the measurement, so their page
        # cache traffic and heap growth cannot reach the numbers above;
        # set-up time is the median of all of them.
        for _ in range(SETUP_BUILDS - 1):
            workload.teardown()
            builds.append(_timed_build(workload))
        build_s = harness.median(builds)
        if trace:
            values["setup.import_s"] = import_s
            values["setup.build_s"] = build_s
            values["fail_frac"] = tally.failed / tally.attempted
            metrics = definition.package(values, definition.per_layer)
            for metric in definition.per_layer:
                if metric in values:
                    _say(metric, metrics[metric]["value"], metrics[metric]["unit"])
            print(f"  ({len(metrics) - len(values)} per-layer metrics this "
                  "workload does not exercise read 0)")
        else:
            values = _end_to_end(workload, pairs, import_s + build_s, rss)
            metrics = definition.package(values, definition.end_to_end)
    finally:
        workload.teardown()
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"  operations+checks attempted {tally.attempted}, failed {tally.failed}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


class Tally:
    """Operations and correctness checks attempted, and how many failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += int(failed)


def _timed_build(workload) -> float:
    started = time.perf_counter()
    workload.build(traced=False)
    return time.perf_counter() - started


def _traced_run(workload, seconds: float, tally: "Tally", out_dir: str) -> Dict[str, float]:
    """Reference phase, traced phase, direct probes; the per-layer values."""
    from bench import harness, layers, tracing

    reference = harness.run_pairs(workload, seconds * REFERENCE_SHARE)
    tally.add(*harness.totals(reference))
    tally.add(*workload.verify())
    workload.teardown()

    recorder = workload.ctx.recorder = tracing.SpanRecorder()
    workload.build(traced=True)
    workload.prepare_baseline()
    recorder.clear()  # the warm-ups' spans
    workload.mark()
    traced = harness.run_pairs(workload, seconds * TRACED_SHARE)
    tally.add(*harness.totals(traced))
    workload.finish_spans(recorder)
    spans = recorder.spans
    tracing.resolve_parents(spans, workload.root_span)
    values = workload.layer_metrics(reference, traced, spans)
    values["orchestrator.unattributed_frac"] = tracing.unattributed_frac(
        spans, workload.root_span, workload.layer_spans)
    values["trace.overhead_frac"] = _overhead(reference, traced)
    tally.add(*workload.verify())
    values.update(workload.post_verify_layers())
    workload.ctx.recorder = None

    tally.add(1, not _check_forwarding(workload.ctx.work_dir))
    probes = layers.probe_layers(
        workload.probe_view(), workload.probe_chunk(), workload.ctx.work_dir,
        budget=seconds * PROBE_SHARE)
    # A live O_DIRECT descriptor that payload writes fall off is the
    # silent degradation this probe exists to catch.
    tally.add(1, probes["striped.direct_io_live"] == 1.0
              and probes["striped.direct_write_frac"] < 1.0)
    values.update(probes)
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace_{workload.name}.json")
    tracing.write_chrome_trace(spans, trace_path)
    print(f"  trace: {len(spans)} spans -> {trace_path}")
    return values


def _end_to_end(workload, pairs, setup_s: float, rss: float) -> Dict[str, float]:
    """The gated metrics, and beside them the absolute numbers they are
    ratios of (printed, and kept per-layer by the traced run)."""
    from bench import harness

    latencies = harness.collect(pairs)
    rate = harness.ops_per_second(pairs)
    roofline = harness.ops_per_second(pairs, baseline=True)
    values = {
        "setup_s": setup_s,
        "peak_rss_mib": rss,
        "op_latency_x": harness.latency_ratio(pairs),
        "slowdown": harness.slowdown(pairs),
    }
    blocks = f"n={len(pairs)} blocks"
    bare = workload.baseline_name
    _say("setup_s", setup_s, "s", f"(imports + median of {SETUP_BUILDS} builds)")
    _say("peak_rss_mib", rss, "MiB")
    _say("op_latency_x", values["op_latency_x"], "ratio",
         f"p50 {harness.median(latencies) * 1e3:.4g} ms / {bare} p50 "
         f"{harness.median(harness.collect(pairs, baseline=True)) * 1e3:.4g} ms "
         f"(n={len(latencies)} operations)")
    _say("slowdown", values["slowdown"], "ratio",
         f"{rate:.6g} ops/s {workload.describe_rate(rate)} | roofline ({bare}) "
         f"{roofline:.6g} ops/s {workload.describe_rate(roofline)} | fraction "
         f"{1 / values['slowdown'] if values['slowdown'] else 0:.3f} ({blocks})")
    return values


def _overhead(reference, traced) -> float:
    """How much slower the traced phase ran, each phase read against its
    own interleaved baseline so that drift between the phases cancels."""
    from bench import harness

    plain = harness.slowdown(reference)
    return harness.slowdown(traced) / plain - 1.0 if plain else 0.0


def _check_forwarding(work_dir: str) -> bool:
    from bench import tracing
    from repro.storage.ssd import SECTOR_SIZE, FileBackedSSD

    path = os.path.join(work_dir, "forwarding_probe.bin")
    try:
        tracing.assert_forwards(
            lambda: FileBackedSSD(path, capacity=4 * SECTOR_SIZE, unbuffered=True))
    except AssertionError as exc:
        print(f"  FAILED wrapper forwarding: {exc}")
        return False
    finally:
        if os.path.exists(path):
            os.remove(path)
    return True


# ----------------------------------------------------------------------
# all workloads, one subprocess each


def _child(workload: str, trace: int, args) -> dict:
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--out", args.out, "--dir", args.dir]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                          text=True, check=False)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        lines.pop()  # the machine-readable line; results.json keeps it
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print("\n".join(lines), flush=True)
    return result


def run_all(definition: Definition, args) -> int:
    from bench import harness

    os.makedirs(args.out, exist_ok=True)
    os.makedirs(args.dir, exist_ok=True)
    env = harness.environment(str(ROOT), args.dir)
    print("environment:", json.dumps(env, sort_keys=True))
    print("note: these are this sandbox's software-path numbers (page cache "
          "warm, fsync per fence), not a device's.")
    results: Dict[str, dict] = {}
    failed = 0
    for workload in definition.workloads:
        untraced = _child(workload, 0, args)
        traced = _child(workload, 1, args)
        results[workload] = {
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
        }
        failed += results[workload]["failed"]
    document = {"seed": args.seed, "seconds": args.seconds,
                "smoke": bool(args.smoke), "env": env, "workloads": results}
    with open(os.path.join(args.out, "results.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    if not args.smoke:
        line = {
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "git_sha": env["git_sha"], "seed": args.seed, "env": env,
            "workloads": {
                name: {
                    **{metric: entry["value"]
                       for metric, entry in result["end_to_end"].items()},
                    **{metric: result["per_layer"][metric]["value"]
                       for metric in ABSOLUTE_NAMES
                       if result["per_layer"].get(metric, {}).get("value")},
                }
                for name, result in results.items()
            },
        }
        with open(HISTORY_PATH, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"results: {os.path.join(args.out, 'results.json')}  failed: {failed}")
    return 1 if failed else 0


# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run only this workload, in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".bench_out"),
                        help="where results.json and trace files go")
    parser.add_argument("--dir", default=str(ROOT / ".bench_work"),
                        help="where region files live while a run lasts")
    parser.add_argument("--smoke", action="store_true",
                        help="payloads /64, sub-second phases; checks "
                        "plumbing, never written to history")
    args = parser.parse_args(argv)
    definition = Definition.load()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else definition.run_seconds
    if args.workload is None:
        return run_all(definition, args)
    if args.workload not in definition.workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {definition.workloads}")
    result = run_workload(
        definition, args.workload, args.seed, args.seconds, bool(args.trace),
        SMOKE_SCALE if args.smoke else 1, args.dir, args.out)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
