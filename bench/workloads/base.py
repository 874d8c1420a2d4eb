"""What every workload provides to the harness."""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from bench.harness import Block, Pair
from bench.tracing import Span, SpanRecorder


@dataclass
class Context:
    seed: int
    #: Payload divisor: 1 for a real run, 64 under ``--smoke``.
    scale: int
    work_dir: str
    #: Set for the traced pass only.
    recorder: Optional[SpanRecorder] = None


class Workload:
    """One set of inputs, driven through the public API.

    Life cycle (all on the one generator thread): ``make_inputs`` once;
    ``build``/``teardown`` several times (set-up time is the median of the
    builds); ``prepare_baseline`` once, untimed — the roofline's files are
    the benchmark's set-up, not the program's; then alternating
    ``baseline_block``/``system_block``; ``verify`` closes the stack and
    checks what it left on disk.
    """

    name = ""
    #: Payload bytes one primary operation moves (for GB/s beside ops/s).
    payload_bytes = 0
    #: Which roofline the baseline block measures.
    baseline_name = "pwrite+fsync"
    #: Trace: the span that brackets one request, and the spans that count
    #: as a visible layer doing work on its behalf.
    root_span = "request"
    layer_spans: Tuple[str, ...] = ()
    #: Operations in one timed block (and in the baseline block beside it).
    block_ops = 1

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    # -- life cycle ----------------------------------------------------
    def make_inputs(self) -> None:
        raise NotImplementedError

    def build(self, traced: bool = False) -> None:
        raise NotImplementedError

    def prepare_baseline(self) -> None:
        """Make (and first-touch) whatever ``baseline_block`` needs."""

    def system_block(self, ops: int) -> Block:
        raise NotImplementedError

    def baseline_block(self, ops: int) -> Block:
        raise NotImplementedError

    def verify(self) -> Tuple[int, int]:
        """Close the stack, re-read what it persisted; ``(checks, failed)``."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release everything ``build`` made and delete its files."""
        shutil.rmtree(self.ctx.work_dir, ignore_errors=True)
        os.makedirs(self.ctx.work_dir, exist_ok=True)

    def describe_rate(self, ops_per_s: float) -> str:
        """An operation rate in the unit a reader expects."""
        return f"= {ops_per_s * self.payload_bytes / 1e9:.4g} GB/s payload"

    # -- traced pass ---------------------------------------------------
    def mark(self) -> None:
        """Called after the traced build's warm-ups: remember counters so
        per-layer numbers cover the timed phase only."""

    def finish_spans(self, recorder: SpanRecorder) -> None:
        """Amend the recorded spans before analysis (e.g. tag device
        operations with the slot they touched)."""

    def post_verify_layers(self) -> Dict[str, float]:
        """Per-layer numbers only known once ``verify`` closed the stack."""
        return {}

    def probe_view(self) -> memoryview:
        """The payload bytes the direct layer probes run over."""
        raise NotImplementedError

    def probe_chunk(self) -> int:
        """Staging-chunk size the capture probe uses."""
        return len(self.probe_view())

    def layer_metrics(
        self, reference: Sequence[Pair], traced: Sequence[Pair],
        spans: Sequence[Span],
    ) -> Dict[str, float]:
        """This workload's own per-layer metrics (names from BENCHMARK.json)."""
        return {}

    def path(self, name: str) -> str:
        return os.path.join(self.ctx.work_dir, name)


# ----------------------------------------------------------------------
# helpers shared by the workloads


def pwrite_all(fd: int, view: memoryview, offset: int) -> None:
    written = 0
    while written < len(view):
        written += os.pwrite(fd, view[written:], offset + written)


def pread_all(fd: int, length: int, offset: int) -> bytes:
    chunks = []
    got = 0
    while got < length:
        chunk = os.pread(fd, length - got, offset + got)
        if not chunk:
            raise OSError(f"short read at {offset + got}")
        chunks.append(chunk)
        got += len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


class RegistryDelta:
    """Difference of two ``metrics("snapshot")`` documents."""

    def __init__(self, before: dict, after: dict) -> None:
        self._before = before
        self._after = after

    @staticmethod
    def _total(snapshot: dict, name: str, field: str, labels: dict) -> float:
        entry = snapshot.get(name)
        if entry is None:
            return 0.0
        total = 0.0
        for series in entry["series"]:
            if all(series["labels"].get(k) == v for k, v in labels.items()):
                total += float(series.get(field, 0.0))
        return total

    def value(self, name: str, field: str = "value", **labels: str) -> float:
        """Change in a counter (``field="value"``) or in a histogram's
        ``"sum"``/``"count"``, summed over the series matching ``labels``."""
        return (self._total(self._after, name, field, labels)
                - self._total(self._before, name, field, labels))

    def mean(self, name: str, **labels: str) -> float:
        count = self.value(name, "count", **labels)
        return self.value(name, "sum", **labels) / count if count else 0.0


def pipeline_layer_metrics(registry: RegistryDelta) -> Dict[str, float]:
    """What the stack's own registry says about the checkpoint pipeline:
    commit ratio, the three Figure-6 stalls, mean seconds per stage."""
    from repro.obs.metrics import M

    commits = registry.value(M.COMMITS)
    finished = commits + registry.value(M.SUPERSEDED)
    return {
        "engine.commit_ratio": commits / finished if finished else 0.0,
        "engine.slot_wait_s": registry.value(M.SLOT_WAIT_SECONDS),
        "dram.buffer_wait_s": registry.value(M.BUFFER_WAIT_SECONDS),
        "orchestrator.update_stall_s": registry.value(M.UPDATE_STALL_SECONDS),
        "orchestrator.stage_capture_s": registry.mean(M.STAGE_SECONDS, stage="capture"),
        "orchestrator.stage_persist_s": registry.mean(M.STAGE_SECONDS, stage="persist"),
        "orchestrator.stage_commit_s": registry.mean(M.STAGE_SECONDS, stage="commit"),
    }


def stats_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


def ssd_layer_metrics(spans: Sequence[Span], stats: Dict[str, int]) -> Dict[str, float]:
    """The ``ssd.*`` busy times (wrapped device) and counts (device.stats)."""
    from bench.tracing import busy_seconds

    return {
        "ssd.write_busy_s": busy_seconds(spans, "ssd.write"),
        "ssd.persist_busy_s": busy_seconds(spans, "ssd.persist"),
        "ssd.read_busy_s": busy_seconds(spans, "ssd.read"),
        "ssd.write_ops": stats["write_ops"],
        "ssd.persist_ops": stats["persist_ops"],
        "ssd.read_ops": stats["read_ops"],
        "ssd.write_bytes": stats["bytes_written"],
        "ssd.read_bytes": stats["bytes_read"],
    }


def tag_slots(spans: Sequence[Span], layout) -> None:
    """Give every ``ssd.*`` span that touched a slot the slot's index, so
    it can join the request that held that slot."""
    first = layout.slot_offset(0)
    size = layout.geometry.slot_size
    for span in spans:
        if span.name.startswith("ssd.") and span.args["offset"] >= first:
            span.args["slot"] = (span.args["offset"] - first) // size
