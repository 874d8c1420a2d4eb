"""Smoke test of the benchmark itself: ``python -m pytest bench/``.

Lives outside tier-1's ``testpaths``; it runs the whole command under
``--smoke`` (payloads /64, sub-second phases) and checks plumbing, not
performance: every workload and metric ``BENCHMARK.json`` names comes out,
with the declared unit, and the definition file stays inside the limits
the benchmark contract sets.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def definition() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench-out")
    work = tmp_path_factory.mktemp("bench-work")
    history = ROOT / "bench" / "history.jsonl"
    before = history.read_bytes() if history.exists() else None
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--seed", "7",
         "--out", str(out), "--dir", str(work)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    after = history.read_bytes() if history.exists() else None
    assert after == before, "smoke numbers must never reach history.jsonl"
    with open(out / "results.json", encoding="utf-8") as handle:
        results = json.load(handle)
    results["_out"] = str(out)
    results["_stdout"] = done.stdout
    return results


def test_definition_meets_contract(definition):
    assert set(definition) == {"command", "paths", "run_seconds", "workloads",
                               "end_to_end", "per_layer"}
    assert definition["paths"] == ["bench"]
    assert 1 <= definition["run_seconds"] <= 60
    assert 2 <= len(definition["workloads"]) <= 8
    assert 1 <= len(definition["end_to_end"]) <= 16
    assert 1 <= len(definition["per_layer"]) <= 128
    names = []
    for workload in definition["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in definition["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in definition["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in definition["end_to_end"] + definition["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names), "a name is used once"
    setup = [m for m in definition["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in definition["end_to_end"])


def test_every_workload_and_metric_is_reported(definition, smoke):
    assert smoke["smoke"] is True
    for workload in definition["workloads"]:
        result = smoke["workloads"][workload["name"]]
        assert result["failed"] == 0
        for group in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in definition[group]}
            reported = result[group]
            assert set(reported) == set(declared), (workload["name"], group)
            for name, entry in reported.items():
                assert entry["unit"] == declared[name]
                assert isinstance(entry["value"], (int, float))
        for name, entry in result["end_to_end"].items():
            assert entry["value"] > 0, (workload["name"], name)


def test_each_workload_moves_its_own_layers(smoke):
    """The interaction table's first column: a workload's own layer
    metrics are non-zero where the README says it exercises them."""
    expect = {
        "save_large": ["save_gbps", "snapshot.capture_calls", "ssd.write_amp",
                       "roofline.save_frac", "orchestrator.stage_persist_s"],
        "save_small": ["ckpt_per_s", "ssd.fences_per_ckpt", "commit_p50_ms"],
        "restore_large": ["restore_gbps", "restore_scan_gbps",
                          "recovery.read_amp", "roofline.restore_frac"],
        "train_loop": ["train_slowdown", "train.tw_p50_ms",
                       "train.serialize_gbps"],
        "service_mix": ["svc_big_commit_p50_ms", "svc_small_commit_p50_ms",
                        "batching.entries_per_batch", "pool.build_stack_ms"],
    }
    for workload, names in expect.items():
        layers = smoke["workloads"][workload]["per_layer"]
        for name in names:
            assert layers[name]["value"] > 0, (workload, name)
        assert layers["roofline.pwrite_fsync_gbps"]["value"] > 0
        assert layers["striped.direct_write_frac"]["value"] in (0.0, 1.0)
        assert layers["fail_frac"]["value"] == 0


def test_one_trace_file_per_workload(definition, smoke):
    for workload in definition["workloads"]:
        path = Path(smoke["_out"]) / f"trace_{workload['name']}.json"
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        assert events, workload["name"]
        assert {"name", "ts", "dur", "ph", "args"} <= set(events[0])


def test_wrapper_forwards_the_device_protocol(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from bench.tracing import TracedDevice, assert_forwards
    from repro.storage.ssd import SECTOR_SIZE, FileBackedSSD

    path = str(tmp_path / "probe.bin")
    assert_forwards(lambda: FileBackedSSD(path, capacity=4 * SECTOR_SIZE,
                                          unbuffered=True))

    class Forgetful(TracedDevice):
        preferred_align = 1  # what a hand-forwarded wrapper forgets

    with pytest.raises(AssertionError, match="preferred_align"):
        assert_forwards(lambda: FileBackedSSD(path, capacity=4 * SECTOR_SIZE,
                                              unbuffered=True), wrap=Forgetful)


def test_compare_agrees_with_itself(smoke, tmp_path):
    results = Path(smoke["_out"]) / "results.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"), str(results),
         str(results), "--symmetric"],
        capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode == 0, done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only the benchmark must fail, not print numbers."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "save_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
