"""``train_loop``: the paper's headline — what checkpointing costs training.

Two trainers built from the same seed run the same steps in alternating
blocks: one with no strategy (the baseline), one checkpointing through
``PCcheckStrategy`` on a real file every five steps.  Compute, capture and
the writer pool compete for the same two cores and the GIL, so a change
that speeds ``save_large`` by burning more CPU shows up here as a *worse*
slowdown.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from bench.harness import Block, Pair, clock, collect, median, ops_per_second, slowdown
from bench.tracing import Span, TracedDevice
from bench.workloads.base import (
    Context,
    RegistryDelta,
    Workload,
    pipeline_layer_metrics,
    ssd_layer_metrics,
    stats_delta,
    tag_slots,
)
from repro.baselines.pccheck import PCcheckStrategy
from repro.core.autotune import min_checkpoint_interval
from repro.core.config import PCcheckConfig
from repro.core.layout import Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.recovery import recover
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service.pool import open_existing_region
from repro.storage.ssd import FileBackedSSD
from repro.training import MLP, Adam, SyntheticRegression, Trainer, mse
from repro.training.state import deserialize_state

INTERVAL = 5
NUM_CONCURRENT = 2
WRITER_THREADS = 2
#: The serialized header grows with the step's digit count.
PAYLOAD_SLACK = 4096
MAX_SLOWDOWN_Q = 1.05
#: Steps between a block's last checkpoint and its end (see ``build``).
PHASE = INTERVAL - 1


class TrainWorkload(Workload):
    name = "train_loop"
    baseline_name = "train loop without checkpointing"
    layer_spans = ("ssd.write", "ssd.persist")
    #: One checkpoint interval per block.
    block_ops = INTERVAL

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        hidden = 2048 if ctx.scale == 1 else 256
        self.sizes = [256, hidden, hidden, 16]
        self.strategy = None
        self.device = None

    def describe_rate(self, ops_per_s: float) -> str:
        return "(training steps)"

    def make_inputs(self) -> None:
        # The inputs are the seeded model, optimizer and batches; they are
        # rebuilt by every ``build`` so each starts from step 0.
        pass

    def _trainer(self, strategy, marks: List[float]) -> Trainer:
        seed = self.ctx.seed
        model = MLP(self.sizes, np.random.default_rng(seed))
        data = SyntheticRegression(batch_size=64, in_dim=256, out_dim=16, seed=seed)

        def timed_mse(predictions, targets):
            # Called once per step: consecutive marks bracket an iteration.
            marks.append(clock())
            return mse(predictions, targets)

        return Trainer(model, Adam(model), data, strategy=strategy,
                       checkpoint_interval=INTERVAL, loss_fn=timed_mse)

    # -- life cycle ----------------------------------------------------
    def build(self, traced: bool = False) -> None:
        self.region_path = self.path("train.pc")
        self.plain_marks: List[float] = []
        self.ckpt_marks: List[float] = []
        self.plain = self._trainer(None, self.plain_marks)
        self.payload_bytes = len(self.plain.serialized_state())
        capacity = self.payload_bytes + PAYLOAD_SLACK
        config = PCcheckConfig(num_concurrent=NUM_CONCURRENT,
                               writer_threads=WRITER_THREADS, interval=INTERVAL)
        device = FileBackedSSD(
            self.region_path,
            capacity=Geometry(num_slots=config.num_slots,
                              slot_size=capacity + RECORD_SIZE).total_size,
        )
        self.registry = self.tracer = None
        if traced:
            device = TracedDevice(device, self.ctx.recorder)
            self.registry = MetricsRegistry()
            self.tracer_epoch = time.monotonic()
            self.tracer = Tracer()
        self.device = device
        self.strategy = PCcheckStrategy(device, capacity, config=config,
                                        metrics=self.registry, tracer=self.tracer)
        self.ckpt = self._trainer(self.strategy, self.ckpt_marks)
        self.losses_equal = True
        # Warm-ups: first-touch every slot and let numpy's pools settle.
        # Both trainers run the same steps, so they stay comparable.
        # ``Trainer.train`` drains at the end of every call.  Starting the
        # blocks PHASE steps past a checkpoint puts that many steps of
        # compute between a block's last checkpoint and its drain, so the
        # drain finds the checkpoint finished — as it would be in a long
        # run that never drains — instead of measuring an un-overlapped one
        # per block.
        steps = (NUM_CONCURRENT + 1) * INTERVAL + PHASE
        self.baseline_block(steps)
        self.system_block(steps)

    def teardown(self) -> None:
        if self.strategy is not None:
            self.strategy.close()
            self.strategy = None
        if self.device is not None:
            self.device.close()
            self.device = None
        super().teardown()

    # -- blocks --------------------------------------------------------
    @staticmethod
    def _iterations(marks: List[float], since: int) -> List[float]:
        window = marks[since:]
        return [b - a for a, b in zip(window, window[1:])]

    def baseline_block(self, ops: int) -> Block:
        since = len(self.plain_marks)
        report = self.plain.train(ops)
        self.plain_losses = report.losses
        return Block(wall=report.wall_seconds, ops=report.steps_run,
                     latencies=self._iterations(self.plain_marks, since))

    def system_block(self, ops: int) -> Block:
        """The same steps the baseline block just ran, with checkpoints."""
        since = len(self.ckpt_marks)
        stats = self.strategy.stats
        stall0 = stats.total_stall_seconds
        block0 = stats.checkpoint_block_seconds
        started0 = stats.checkpoints_started
        try:
            report = self.ckpt.train(ops)
        except Exception:  # noqa: BLE001 - counted, and visible as failed
            return Block(wall=0.0, ops=0, attempted=ops, failed=ops)
        # Checkpointing must not perturb arithmetic: bit-identical losses.
        same = report.losses == self.plain_losses
        self.losses_equal = self.losses_equal and same
        calls = stats.checkpoints_started - started0
        iterations = self._iterations(self.ckpt_marks, since)
        return Block(
            wall=report.wall_seconds, ops=report.steps_run, attempted=ops,
            failed=0 if same else ops,
            # The operation a training job feels is the iteration that
            # takes the checkpoint: the slowest of the interval.  (The
            # median iteration sits on the edge between the two or three
            # perturbed iterations and the undisturbed ones, and flips.)
            latencies=[max(iterations)],
            extra={
                "iteration": iterations,
                "stall": [stats.total_stall_seconds - stall0],
                "api_block": [(stats.checkpoint_block_seconds - block0) / calls]
                if calls else [],
            },
        )

    # -- correctness ---------------------------------------------------
    def verify(self) -> Tuple[int, int]:
        want = self.ckpt.step // INTERVAL * INTERVAL
        latest = self.strategy.latest_recoverable_step()
        self.strategy.close()
        self.strategy = None
        self.device.close()
        self.device = None
        device, layout = open_existing_region(self.region_path)
        try:
            recovered = recover(layout)
        finally:
            device.close()
        state = deserialize_state(recovered.payload)
        checks = [latest == want, state.step == want,
                  recovered.meta.step == want, self.losses_equal]
        return len(checks), checks.count(False)

    # -- traced pass ---------------------------------------------------
    def mark(self) -> None:
        self._registry_before = self.registry.snapshot()
        self._stats_before = self.device.stats.as_dict()
        self._requests_before = len(self.tracer.spans("checkpoint"))
        self._marks_before = len(self.ckpt_marks)

    def finish_spans(self, recorder) -> None:
        """Bring in what only the stack can tell us: when each checkpoint
        request began and was acknowledged (the public ``Tracer``'s root
        spans), and the step boundaries from the loss-function marks."""
        # Tracer times are ``time.monotonic() - epoch``; perf_counter and
        # monotonic read the same clock on Linux.
        shift = self.tracer_epoch + (clock() - time.monotonic())
        for root in self.tracer.spans("checkpoint")[self._requests_before:]:
            if root.end is not None:
                recorder.add("request", root.start + shift, root.end + shift,
                             ckpt=root.args.get("step"),
                             slot=root.args.get("slot"))
        window = self.ckpt_marks[self._marks_before:]
        for begin, end in zip(window, window[1:]):
            recorder.add("train.step", begin, end)
        tag_slots(recorder.spans, self.strategy.layout)

    def probe_view(self) -> memoryview:
        return memoryview(self.ckpt.serialized_state())

    def layer_metrics(self, reference: Sequence[Pair], traced: Sequence[Pair],
                      spans: Sequence[Span]) -> Dict[str, float]:
        registry = RegistryDelta(self._registry_before, self.registry.snapshot())
        stats = stats_delta(self._stats_before, self.device.stats.as_dict())
        base_iter = median(collect(reference, baseline=True))
        ckpt_wall = sum(system.wall for _, system in reference)
        stall = sum(collect(reference, "stall"))
        tw = median([s.duration for s in spans if s.name == "request"])
        serialize = []
        for _ in range(5):
            t0 = clock()
            self.ckpt.serialized_state()
            serialize.append(clock() - t0)
        out = {
            "train_slowdown": slowdown(reference),
            "train_steps_per_s": ops_per_second(reference),
            "train.base_iter_p50_ms": base_iter * 1e3,
            "train.ckpt_iter_p50_ms": median(collect(reference, "iteration")) * 1e3,
            "train.ckpt_step_p50_ms": median(collect(reference)) * 1e3,
            "train.serialize_gbps": self.payload_bytes / median(serialize) / 1e9,
            "train.stall_frac": stall / ckpt_wall if ckpt_wall else 0.0,
            "train.tw_p50_ms": tw * 1e3,
            # Eq. 3 from the measured Tw, t and N at q = 1.05, to set
            # beside the interval of 5 this workload uses.
            "train.eq3_min_interval": min_checkpoint_interval(
                tw, NUM_CONCURRENT, MAX_SLOWDOWN_Q, base_iter) if base_iter else 0.0,
            "orchestrator.api_block_s": median(collect(traced, "api_block")),
        }
        out.update(pipeline_layer_metrics(registry))
        out.update(ssd_layer_metrics(spans, stats))
        return out


def train_loop(ctx: Context) -> TrainWorkload:
    return TrainWorkload(ctx)
