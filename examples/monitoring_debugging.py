#!/usr/bin/env python3
"""Monitoring and debugging training dynamics (§2.1's second use case).

Frequent checkpoints exist for debugging as much as for fault tolerance:
tools like SageMaker Debugger and Cockpit capture parameter/gradient
statistics every few steps.  This example trains a small transformer LM
while:

* a :class:`TrainingMonitor` captures loss, parameter norms and gradient
  norms at every step and flags anomalies;
* an :class:`AdaptiveIntervalController` re-derives the checkpoint
  interval from live measurements (the §3.4 extension);
* PCcheck persists the training state — *gated on monitor health*, so a
  diverging run stops publishing checkpoints and the last good state
  stays recoverable.

Midway we sabotage the run with an exploding learning rate, watch the
monitor catch it, and roll back to the last healthy checkpoint.

Usage::

    python examples/monitoring_debugging.py
"""

import numpy as np

from repro.baselines import build_strategy
from repro.baselines.base import CheckpointStrategy
from repro.core.adaptive import AdaptiveIntervalController
from repro.core.recovery import recover
from repro.obs import M, MetricsRegistry
from repro.storage.ssd import InMemorySSD
from repro.training.data import SyntheticTokens
from repro.training.loop import Trainer
from repro.training.models import TransformerLM
from repro.training.monitor import TrainingMonitor
from repro.training.optim import Adam
from repro.training.state import deserialize_state


class HealthGatedStrategy(CheckpointStrategy):
    """Skip checkpoints while the monitor is reporting anomalies.

    A derailed model state is worse than a stale one: persisting it
    would overwrite the recovery point with garbage.
    """

    name = "health-gated"

    def __init__(self, inner: CheckpointStrategy,
                 monitor: TrainingMonitor) -> None:
        super().__init__()
        self.inner = inner
        self.monitor = monitor
        self.skipped = []

    def before_update(self) -> None:
        self.inner.before_update()

    def checkpoint(self, state, step: int) -> None:
        # ``state`` is a snapshot source over the live weights; it is
        # only forwarded, and before_update() above forwards the gate
        # that keeps the inner strategy's capture ahead of the update.
        recent_anomaly = any(a.step >= step - 2 for a in self.monitor.anomalies)
        if recent_anomaly:
            self.skipped.append(step)
            return
        self.inner.checkpoint(state, step)

    def drain(self) -> None:
        self.inner.drain()

    def close(self) -> None:
        self.inner.close()


def make_trainer(monitor=None, adaptive=None, strategy=None, seed=0):
    model = TransformerLM(np.random.default_rng(seed), vocab_size=64,
                          dim=32, num_heads=2, num_layers=2, max_seq=16)
    optimizer = Adam(model, lr=2e-3)
    data = SyntheticTokens(batch_size=4, seq_len=12, vocab_size=64, seed=seed)
    return Trainer(model, optimizer, data, strategy=strategy,
                   monitor=monitor, adaptive=adaptive)


def main() -> None:
    # One registry for the whole run: the monitor mirrors its per-step
    # health records into it, so training anomalies and checkpoint
    # telemetry land on a single timeline.
    registry = MetricsRegistry()
    monitor = TrainingMonitor(grad_norm_threshold=35.0, loss_spike_ratio=4.0)
    monitor.bind_metrics(registry)
    adaptive = AdaptiveIntervalController(
        num_concurrent=2, max_slowdown=1.25, initial_interval=5,
        adjust_every=10,
    )
    capacity = len(make_trainer().serialized_state()) + 1024
    inner = build_strategy("pccheck", InMemorySSD, capacity)
    strategy = HealthGatedStrategy(inner, monitor)
    trainer = make_trainer(monitor=monitor, adaptive=adaptive,
                           strategy=strategy)

    print("=== healthy training, monitored every step ===")
    trainer.train(25)
    strategy.drain()
    losses = monitor.series("loss")
    print(f"  loss: {losses[0][1]:.3f} -> {losses[-1][1]:.3f} over "
          f"{len(losses)} steps")
    print(f"  adaptive interval after warmup: f = {adaptive.interval}")
    print(f"  anomalies so far: {len(monitor.anomalies)}")

    print("\n=== sabotage: crank the learning rate 1000x ===")
    trainer.optimizer.lr *= 1000
    trainer.train(6)
    strategy.drain()
    assert monitor.anomalies, "the monitor should have caught the divergence"
    for anomaly in monitor.anomalies[:3]:
        print(f"  step {anomaly.step}: {anomaly.kind} — {anomaly.detail}")
    print(f"  checkpoints withheld while unhealthy: steps "
          f"{strategy.skipped}")

    print("\n=== roll back past the detection lag ===")
    # Divergence predates its detection: the spike is flagged a couple of
    # steps after the bad updates began.  PCcheck's N+1 retained slots
    # keep the recent *history* of checkpoints on the device, so we can
    # scan them and pick one safely before the first anomaly.
    from repro.core.recovery import load_validated, valid_checkpoints

    first_bad = monitor.anomalies[0].step
    margin = 3  # detection lag allowance
    on_device = sorted(valid_checkpoints(inner.layout), key=lambda m: m.step)
    print(f"  checkpoints still on the device: steps "
          f"{[m.step for m in on_device]} (first anomaly: {first_bad})")
    safe = [m for m in on_device if m.step <= first_bad - margin]
    assert safe, "no checkpoint predates the divergence safely"
    chosen = safe[-1]
    payload = load_validated(inner.layout, chosen)  # CRC-checked view
    state = deserialize_state(payload)
    print(f"  rolling back to step {state.step}")
    healthy = make_trainer(seed=0)
    healthy.resume_from(state)
    report = healthy.train(10)
    print(f"  post-rollback losses: {report.losses[0]:.3f} -> "
          f"{report.losses[-1]:.3f} (finite and sane)")
    assert all(np.isfinite(loss) for loss in report.losses)
    assert report.losses[0] < 10

    grad_series = monitor.series("grad_norm")
    peak_step, peak = max(grad_series, key=lambda pair: pair[1])
    print(f"\n  monitor log: gradient norm peaked at {peak:.3g} "
          f"(step {peak_step}); serialized log is "
          f"{len(monitor.to_bytes())} bytes and rides inside checkpoints.")
    print(f"  registry view: {int(registry.value(M.MONITOR_RECORDS))} "
          f"records mirrored, anomalies by kind = "
          + ", ".join(
              f"{series['labels']['kind']}={int(series['value'])}"
              for series in registry.snapshot()
              .get(M.TRAIN_ANOMALIES, {"series": []})["series"]
          ))
    strategy.close()
    print("done.")


if __name__ == "__main__":
    main()
