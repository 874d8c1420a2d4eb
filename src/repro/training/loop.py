"""The training loop with checkpoint hooks.

One :class:`Trainer` drives any model/optimizer/dataset triple and any
:class:`~repro.baselines.base.CheckpointStrategy`, reproducing the
T → U → (C → P) structure of the paper's Figures 3–7:

* **T** — forward + backward on batch ``step`` (deterministic per step,
  so a resumed run replays the exact remaining batches);
* ``strategy.before_update()`` — the consistency stall: asynchronous
  snapshots must finish before weights change;
* **U** — the optimizer update;
* every ``interval`` steps, ``strategy.checkpoint(state_source(), step)``
  — a snapshot source over the *live* arrays, copied nowhere on the
  training thread; ``before_update()`` is what makes the aliasing safe.

The trainer also supports failure injection (raise at a chosen step) and
resuming from a recovered payload, which together form the functional
recovery experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol, Tuple

import numpy as np

from repro.baselines.base import CheckpointStrategy
from repro.errors import TrainingError
from repro.obs.metrics import M, MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.training.losses import softmax_cross_entropy
from repro.training.module import Module
from repro.training.optim import Optimizer
from repro.training.state import (
    TrainingState,
    TrainingStateSource,
    capture_state,
    live_state,
    restore_state,
    serialize_state,
)


class BatchSource(Protocol):
    """Deterministic, index-addressable batch provider."""

    def batch(self, index: int) -> Tuple[np.ndarray, np.ndarray]: ...


LossFn = Callable[[np.ndarray, np.ndarray], Tuple[float, np.ndarray]]


@dataclass
class TrainReport:
    """What a training run did and what it cost."""

    steps_run: int
    final_step: int
    losses: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    checkpoint_stall_seconds: float = 0.0

    @property
    def throughput(self) -> float:
        """Iterations per second including checkpoint overhead."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.steps_run / self.wall_seconds


class FailureInjection(Exception):
    """Raised by the trainer at an injected failure point."""


class Trainer:
    """Checkpoint-aware training loop."""

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        data: BatchSource,
        strategy: Optional[CheckpointStrategy] = None,
        checkpoint_interval: int = 10,
        loss_fn: LossFn = softmax_cross_entropy,
        adaptive=None,
        monitor=None,
        scheduler=None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        """``adaptive`` (an
        :class:`~repro.core.adaptive.AdaptiveIntervalController`) replaces
        the fixed ``checkpoint_interval`` with the §3.4 feedback loop;
        ``monitor`` (a :class:`~repro.training.monitor.TrainingMonitor`)
        captures per-checkpoint parameter/gradient statistics;
        ``metrics``/``tracer`` put training iterations on the same
        timeline as the checkpoint pipeline's telemetry."""
        if checkpoint_interval < 1:
            raise TrainingError(
                f"checkpoint interval must be >= 1, got {checkpoint_interval}"
            )
        self.model = model
        self.optimizer = optimizer
        self.data = data
        self.strategy = strategy
        self.interval = checkpoint_interval
        self.loss_fn = loss_fn
        self.adaptive = adaptive
        self.monitor = monitor
        self.scheduler = scheduler
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if monitor is not None and metrics is not None:
            bind = getattr(monitor, "bind_metrics", None)
            if bind is not None:
                bind(metrics)
        self.step = 0

    # ------------------------------------------------------------------
    # state management

    def capture(self) -> TrainingState:
        """Snapshot (copy) the full training state at the current step;
        the result may be held across updates."""
        return capture_state(self.model, self.optimizer, step=self.step,
                             scheduler=self.scheduler)

    def serialized_state(self) -> bytes:
        """The bytes a checkpoint of the current state persists (a
        private copy; may be held across updates).  Serialized straight
        from the live arrays: the encoding's one join is the copy."""
        return serialize_state(
            live_state(self.model, self.optimizer, step=self.step,
                       scheduler=self.scheduler)
        )

    def state_source(self) -> TrainingStateSource:
        """A zero-copy snapshot source over the *live* state.

        Yields exactly the bytes :meth:`serialized_state` would, but
        builds only the header: its segments are views of the parameter
        and optimizer arrays themselves, so the engine's staging copy is
        the first and only copy.  Valid until the next weight update —
        call ``strategy.before_update()`` / ``wait_for_snapshots()``
        before stepping the optimizer, as :meth:`train_step` does.
        """
        return TrainingStateSource(
            live_state(self.model, self.optimizer, step=self.step,
                       scheduler=self.scheduler)
        )

    def resume_from(self, state: TrainingState) -> None:
        """Restore model + optimizer (+ schedule) and continue from
        ``state.step``."""
        if self.strategy is not None:
            # Restoring overwrites the live arrays in place, so it passes
            # the same T→U gate as an optimizer update.
            self.strategy.before_update()
        restore_state(state, self.model, self.optimizer,
                      scheduler=self.scheduler)
        self.step = state.step

    # ------------------------------------------------------------------
    # training

    def train_step(self) -> float:
        """One T → before_update → U iteration; returns the loss."""
        inputs, targets = self.data.batch(self.step)
        self.model.zero_grad()
        outputs = self.model(inputs)
        loss, grad = self.loss_fn(outputs, targets)
        self.model.backward(grad)
        if self.strategy is not None:
            self.strategy.before_update()
        if self.scheduler is not None:
            self.scheduler.step()
        self.optimizer.step()
        self.step += 1
        return loss

    def train(
        self,
        num_steps: int,
        fail_at_step: Optional[int] = None,
    ) -> TrainReport:
        """Run ``num_steps`` iterations, checkpointing every ``interval``.

        ``fail_at_step`` raises :class:`FailureInjection` *before* running
        that global step, simulating a preemption; already scheduled
        checkpoints are left in whatever durable state they reached.
        """
        start_step = self.step
        losses: List[float] = []
        started = time.monotonic()
        while self.step < start_step + num_steps:
            if fail_at_step is not None and self.step >= fail_at_step:
                raise FailureInjection(f"injected failure at step {self.step}")
            iter_started = time.monotonic()
            loss = self.train_step()
            iter_seconds = max(time.monotonic() - iter_started, 1e-9)
            losses.append(loss)
            if self.metrics is not None:
                self.metrics.inc(M.TRAIN_STEPS)
                self.metrics.observe(M.TRAIN_ITERATION_SECONDS, iter_seconds)
                self.metrics.set_gauge(M.TRAIN_LOSS, loss)
            if self.monitor is not None:
                self.monitor.capture(self.model, step=self.step, loss=loss)
            if self.adaptive is not None:
                self.adaptive.observe_iteration(iter_seconds)
                due = self.adaptive.should_checkpoint()
            else:
                due = self.step % self.interval == 0
            if self.strategy is not None and due:
                checkpoint_started = time.monotonic()
                self.tracer.instant("checkpoint_request", step=self.step)
                self.strategy.checkpoint(self.state_source(), step=self.step)
                if self.adaptive is not None:
                    # The blocking part of the call approximates the
                    # visible checkpoint cost; strategies report full Tw
                    # via their own stats when available.
                    self.adaptive.observe_checkpoint(
                        time.monotonic() - checkpoint_started
                    )
        if self.strategy is not None:
            self.strategy.drain()
        wall = time.monotonic() - started
        stall = (
            self.strategy.stats.total_stall_seconds if self.strategy else 0.0
        )
        return TrainReport(
            steps_run=self.step - start_step,
            final_step=self.step,
            losses=losses,
            wall_seconds=wall,
            checkpoint_stall_seconds=stall,
        )
