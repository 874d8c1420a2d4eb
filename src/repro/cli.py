"""Command-line entry point: regenerate any table or figure.

Usage::

    pccheck-repro list
    pccheck-repro fig8 --out results/
    pccheck-repro all --out results/
    pccheck-repro tune --model opt_1_3b

Each figure command prints the result table and, with ``--out``, writes a
CSV named after the figure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.csvout import write_csv
from repro.analysis.figures import FIGURES, generate
from repro.analysis.tables import render_table


def _run_figure(name: str, out_dir: Optional[str]) -> None:
    data = generate(name)
    print(render_table(data.columns, data.rows, title=data.title))
    if out_dir:
        path = write_csv(
            os.path.join(out_dir, f"{data.name}.csv"), data.columns, data.rows
        )
        print(f"\nwrote {path}")


def _run_tune(model: str, slowdown: float) -> None:
    from repro.core.autotune import tune
    from repro.core.config import SystemParameters, UserConstraints
    from repro.sim.hardware import A2_HIGHGPU_1G
    from repro.sim.runner import simulated_tw_probe
    from repro.sim.workloads import get_workload

    workload = get_workload(model)
    machine = A2_HIGHGPU_1G
    system = SystemParameters(
        pcie_bandwidth=machine.pcie_bandwidth,
        storage_bandwidth=machine.storage.write_bandwidth,
        iteration_time=workload.iteration_time,
        checkpoint_size=int(workload.partition_bytes),
    )
    constraints = UserConstraints(
        dram_budget=int(2 * workload.partition_bytes),
        storage_budget=int(8 * workload.partition_bytes),
        max_slowdown=slowdown,
    )
    result = tune(simulated_tw_probe(model, machine=machine), system, constraints)
    print(f"model            : {model}")
    print(f"optimal N*       : {result.num_concurrent}")
    print(f"measured Tw      : {result.tw_seconds:.2f} s")
    print(f"min interval f*  : {result.interval} iterations (q = {slowdown})")
    print("candidates       : "
          + ", ".join(f"N={n}: Tw={tw:.2f}s" for n, tw in result.candidates.items()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pccheck-repro",
        description="Regenerate the PCcheck paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available figures and tables")
    all_parser = sub.add_parser("all", help="run every figure and table")
    all_parser.add_argument("--out", default=None, help="CSV output directory")
    for name in FIGURES:
        figure_parser = sub.add_parser(name, help=f"regenerate {name}")
        figure_parser.add_argument("--out", default=None,
                                   help="CSV output directory")
    tune_parser = sub.add_parser("tune", help="run the §3.4 auto-tuner")
    tune_parser.add_argument("--model", default="opt_1_3b")
    tune_parser.add_argument("--slowdown", type=float, default=1.05)
    inspect_parser = sub.add_parser(
        "inspect", help="report every checkpoint in a region"
    )
    inspect_parser.add_argument(
        "path", help="region file, or the base path of a striped region"
    )
    rc_parser = sub.add_parser(
        "recover-consistent",
        help="find the newest globally consistent step across every "
        "rank's region file (§4.1)",
    )
    rc_parser.add_argument(
        "paths", nargs="+",
        help="one region file (or striped base path) per rank, in rank order",
    )
    rc_parser.add_argument(
        "--out", default=None,
        help="directory to write the recovered payloads "
        "(rank<k>.step<S>.bin)",
    )
    rc_parser.add_argument(
        "--world-size", type=int, default=None,
        help="re-partition the recovered sharded checkpoint onto this "
        "many ranks (elastic recovery; default: the writer world)",
    )
    rc_parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format",
    )
    lint_parser = sub.add_parser(
        "lint",
        help="run the concurrency-invariant linter (per-file rules "
        "PC001-PC008, whole-program rules PC009-PC011); exits 0 clean, "
        "1 findings, 2 usage error",
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories"
    )
    lint_parser.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format",
    )
    lint_parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint_parser.add_argument(
        "--no-project", action="store_true",
        help="per-file rules only; skip the whole-program pass",
    )
    lint_parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="subtract known findings in FILE; only new ones count",
    )
    lint_parser.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="snapshot current findings to FILE and exit 0",
    )
    lint_parser.add_argument(
        "--cache", default=None, metavar="FILE",
        help="persist the project index across runs (content-hash "
        "incremental)",
    )
    lint_parser.add_argument(
        "--warn-unused-suppressions", action="store_true",
        help="report pclint directives that silenced nothing",
    )
    for verb, help_text in (
        ("metrics", "run an instrumented demo workload and print its "
                    "metrics registry"),
        ("trace", "run an instrumented demo workload and emit its "
                  "Chrome trace_event JSON"),
    ):
        obs_parser = sub.add_parser(verb, help=help_text)
        obs_parser.add_argument(
            "--checkpoints", type=int, default=8,
            help="checkpoints to push through the pipeline",
        )
        obs_parser.add_argument(
            "--concurrent", type=int, default=4,
            help="N, the concurrent-checkpoint limit",
        )
        obs_parser.add_argument(
            "--payload-kib", type=int, default=64,
            help="checkpoint payload size in KiB",
        )
        obs_parser.add_argument("--seed", type=int, default=0)
        obs_parser.add_argument(
            "--out", default=None,
            help="write the output to this file instead of stdout",
        )
        if verb == "metrics":
            obs_parser.add_argument(
                "--format", choices=["prom", "json"], default="prom",
                help="exposition format",
            )
    serve_parser = sub.add_parser(
        "serve",
        help="run the multi-tenant checkpoint-service demo: a mixed "
        "tenant fleet with per-tenant quotas, admission control, and "
        "cross-tenant group commit over one engine pool",
    )
    serve_parser.add_argument(
        "--tenants", type=int, default=8,
        help="total tenants (half dedicated, half coalesced)",
    )
    serve_parser.add_argument(
        "--rounds", type=int, default=6,
        help="checkpoints each tenant submits",
    )
    serve_parser.add_argument(
        "--pool-size", type=int, default=3,
        help="engines in the shared pool",
    )
    serve_parser.add_argument(
        "--payload-kib", type=int, default=1024,
        help="dedicated-tenant checkpoint payload size in KiB",
    )
    serve_parser.add_argument("--seed", type=int, default=1234)
    serve_parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format",
    )
    sweep_parser = sub.add_parser(
        "crashsweep",
        help="sweep a crash across every device op of a workload and "
        "verify the §4.1 recovery guarantee at each point",
    )
    from repro.analysis.crashsweep.workloads import WORKLOADS

    sweep_parser.add_argument(
        "--workload", default="engine", choices=sorted(WORKLOADS),
        help="which checkpointing workload to crash",
    )
    sweep_parser.add_argument(
        "--steps", type=int, default=3,
        help="checkpoints the workload attempts",
    )
    sweep_parser.add_argument(
        "--slots", type=int, default=None,
        help="checkpoint slots (default: per-workload)",
    )
    sweep_parser.add_argument(
        "--payload-capacity", type=int, default=None,
        help="payload bytes per checkpoint (default: per-workload, 512 "
        "but for one-chunk-streamed)",
    )
    sweep_parser.add_argument("--writer-threads", type=int, default=2)
    sweep_parser.add_argument(
        "--world-size", type=int, default=None,
        help="writer ranks for multi-rank workloads "
        "(default: 2 distributed, 4 elastic)",
    )
    sweep_parser.add_argument(
        "--device", default="ssd", choices=["ssd", "pmem"]
    )
    sweep_parser.add_argument(
        "--stride", type=int, default=1,
        help="sweep every stride-th crash point",
    )
    sweep_parser.add_argument(
        "--max-points", type=int, default=None,
        help="cap on swept points (evenly subsampled)",
    )
    sweep_parser.add_argument(
        "--point", type=int, default=None,
        help="run exactly one crash point (reproducer mode)",
    )
    sweep_parser.add_argument(
        "--seed", type=int, default=None,
        help="rng seed for cache-line survival and torn-write cuts",
    )
    sweep_parser.add_argument(
        "--torn", action="store_true",
        help="tear the write at the crash op (durable prefix only)",
    )
    sweep_parser.add_argument(
        "--target", default=None, choices=["commit-record"],
        help="sweep only ops touching this structure",
    )
    sweep_parser.add_argument(
        "--format", choices=["text", "json"], default="text"
    )
    sweep_parser.add_argument(
        "--no-sanitize", action="store_true",
        help="disable the runtime invariant sanitizer during the sweep",
    )
    sim_parser = sub.add_parser(
        "sim",
        help="run the calibrated throughput simulator for one workload "
        "and print every strategy's slowdown at the given interval",
    )
    sim_parser.add_argument(
        "--workload", default="opt_1_3b",
        help="simulated training workload (see repro.sim.workloads)",
    )
    sim_parser.add_argument(
        "--interval", type=int, default=10,
        help="checkpoint every N iterations",
    )
    sim_parser.add_argument(
        "--strategy", default=None,
        help="run only this strategy (default: all simulated strategies)",
    )
    sim_parser.add_argument(
        "--iterations", type=int, default=None,
        help="simulated iterations (default: enough for steady state)",
    )
    sim_parser.add_argument("--out", default=None,
                            help="CSV output directory")
    return parser


def _run_crashsweep(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.crashsweep import (
        CrashSweepConfig,
        render_json,
        render_point,
        render_text,
        run_point,
        sweep,
    )

    config = CrashSweepConfig(
        workload=args.workload,
        steps=args.steps,
        num_slots=args.slots,
        payload_capacity=args.payload_capacity,
        writer_threads=args.writer_threads,
        device=args.device,
        seed=args.seed,
        torn_writes=args.torn,
        stride=args.stride,
        max_points=args.max_points,
        target=args.target,
        sanitize=not args.no_sanitize,
        world_size=args.world_size,
    )
    if args.point is not None:
        outcome = run_point(config, args.point)
        if args.format == "json":
            print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
        else:
            print(render_point(outcome))
        return 1 if outcome.violations else 0
    report = sweep(config)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


def _run_sim(args: argparse.Namespace) -> int:
    from repro.errors import PCcheckError
    from repro.sim.runner import run_throughput
    from repro.strategies import simulated_strategies

    names = [args.strategy] if args.strategy else simulated_strategies()
    columns = ["strategy", "interval", "throughput_it_s", "slowdown",
               "mean_tw_s", "checkpoints"]
    rows = []
    for name in names:
        try:
            result = run_throughput(
                args.workload, name, args.interval,
                num_iterations=args.iterations,
            )
        except PCcheckError as exc:
            print(f"sim: {exc}", file=sys.stderr)
            return 1
        rows.append([
            name,
            args.interval,
            f"{result.throughput:.3f}",
            f"{result.slowdown:.4f}",
            f"{result.mean_tw:.4f}",
            result.checkpoints,
        ])
    print(render_table(
        columns, rows,
        title=f"simulated throughput — {args.workload}",
    ))
    if args.out:
        path = write_csv(
            os.path.join(args.out, f"sim_{args.workload}.csv"),
            columns, rows,
        )
        print(f"\nwrote {path}")
    return 0


def _run_recover_consistent(args: argparse.Namespace) -> int:
    import json

    from repro.core.recovery import recover_consistent
    from repro.errors import PCcheckError
    from repro.service.pool import open_existing_region

    devices = []
    try:
        try:
            layouts = []
            for path in args.paths:
                device, layout = open_existing_region(path)
                devices.append(device)
                layouts.append(layout)
            result = recover_consistent(layouts, world_size=args.world_size)
        except PCcheckError as exc:
            print(f"recover-consistent: {exc}", file=sys.stderr)
            return 1
        written = []
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            for rank, payload in enumerate(result.payloads):
                out_path = os.path.join(
                    args.out, f"rank{rank}.step{result.step}.bin"
                )
                with open(out_path, "wb") as fh:
                    fh.write(payload)
                written.append(out_path)
        if args.format == "json":
            print(json.dumps({
                "step": result.step,
                "world_size": result.world_size,
                "writer_world": result.writer_world,
                "resharded": result.resharded,
                "writers": [
                    {
                        "rank": rank,
                        "counter": meta.counter,
                        "slot": meta.slot,
                        "payload_len": meta.payload_len,
                        "source": source,
                    }
                    for rank, (meta, source) in enumerate(
                        zip(result.metas, result.sources)
                    )
                ],
                "payload_lens": [len(p) for p in result.payloads],
                "written": written,
            }, indent=2, sort_keys=True))
        else:
            print(f"globally consistent step: {result.step}")
            for rank, (meta, source) in enumerate(
                zip(result.metas, result.sources)
            ):
                print(
                    f"writer rank {rank}: counter={meta.counter} "
                    f"slot={meta.slot} len={meta.payload_len} via {source}"
                )
            if result.resharded:
                print(
                    f"re-partitioned {result.writer_world}-writer "
                    f"checkpoint onto {result.world_size} ranks:"
                )
                for rank, payload in enumerate(result.payloads):
                    print(f"reader rank {rank}: len={len(payload)}")
            for out_path in written:
                print(f"wrote {out_path}")
        return 0
    finally:
        for device in devices:
            device.close()


def _run_serve(args: argparse.Namespace) -> int:
    import json

    from repro.service.driver import render_report, run_service_demo

    report = run_service_demo(
        tenants=args.tenants,
        rounds=args.rounds,
        capacity_bytes=args.payload_kib * 1024,
        pool_size=args.pool_size,
        seed=args.seed,
    )
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print(render_report(report))
    leaks = report["leak_report"]
    clean = (
        not leaks["leaked_slots"]
        and not leaks["leaked_buffers"]
        and not leaks["unreleased_buffers"]
        and not report["dedicated_superseded"]
    )
    return 0 if clean else 1


def _run_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs.driver import run_demo_workload

    run = run_demo_workload(
        checkpoints=args.checkpoints,
        concurrent=args.concurrent,
        payload_bytes=args.payload_kib * 1024,
        observability="full" if args.command == "trace" else "metrics",
        seed=args.seed,
    )
    for line in run.summary_lines():
        print(f"# {line}", file=sys.stderr)
    if args.command == "trace":
        text = json.dumps(run.tracer.to_chrome_trace(), indent=2)
    elif args.format == "json":
        text = run.metrics.to_json()
    else:
        text = run.metrics.to_prometheus()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(FIGURES):
            print(name)
        return 0
    if args.command == "tune":
        _run_tune(args.model, args.slowdown)
        return 0
    if args.command == "inspect":
        from repro.core.inspect import inspect_file
        from repro.errors import PCcheckError

        try:
            report = inspect_file(args.path)
        except PCcheckError as exc:
            print(f"inspect: {exc}", file=sys.stderr)
            return 1
        for line in report.summary_lines():
            print(line)
        return 0 if report.recovery_choice is not None else 1
    if args.command == "recover-consistent":
        return _run_recover_consistent(args)
    if args.command == "lint":
        from repro.analysis.static.runner import run_lint

        return run_lint(
            args.paths,
            report_format=args.format,
            select=args.select,
            project=not args.no_project,
            baseline=args.baseline,
            write_baseline=args.write_baseline,
            cache=args.cache,
            warn_unused_suppressions=args.warn_unused_suppressions,
        )
    if args.command == "serve":
        return _run_serve(args)
    if args.command in ("metrics", "trace"):
        return _run_obs(args)
    if args.command == "crashsweep":
        return _run_crashsweep(args)
    if args.command == "sim":
        return _run_sim(args)
    if args.command == "all":
        for name in sorted(FIGURES):
            _run_figure(name, args.out)
            print()
        return 0
    _run_figure(args.command, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
