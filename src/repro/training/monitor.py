"""Training monitoring — the debugging use case of §2.1.

Frequent checkpoints exist not only for fault tolerance: "checkpoints
are also commonly used for debugging model training dynamics, such as
accuracy divergence" — tools like SageMaker Debugger and Cockpit capture
parameter/gradient statistics every few steps and need the checkpoint
path to be cheap.  This module provides that capture layer:

* :class:`TensorStats` — summary statistics of one tensor (norms,
  moments, extrema, NaN/Inf counts);
* :class:`MonitorRecord` — one step's snapshot: loss, parameter stats,
  gradient stats;
* :class:`TrainingMonitor` — collects records from a live model, detects
  divergence (NaN/Inf, exploding gradients, loss spikes), and serializes
  its log so it can ride along inside PCcheck checkpoints.

The records are tiny (statistics, not tensors), so even per-iteration
monitoring adds negligible payload — the heavy lifting stays with the
concurrent checkpoint engine.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import TrainingError
from repro.obs.metrics import M, MetricsRegistry
from repro.training.module import Module


@dataclass(frozen=True)
class TensorStats:
    """Summary statistics of one tensor."""

    l2_norm: float
    mean: float
    std: float
    abs_max: float
    nan_count: int
    inf_count: int

    @classmethod
    def of(cls, tensor: np.ndarray) -> "TensorStats":
        """Compute statistics for ``tensor``."""
        finite = tensor[np.isfinite(tensor)]
        if finite.size:
            l2 = float(np.sqrt((finite.astype(np.float64) ** 2).sum()))
            mean = float(finite.mean())
            std = float(finite.std())
            abs_max = float(np.abs(finite).max())
        else:
            l2 = mean = std = abs_max = 0.0
        return cls(
            l2_norm=l2,
            mean=mean,
            std=std,
            abs_max=abs_max,
            nan_count=int(np.isnan(tensor).sum()),
            inf_count=int(np.isinf(tensor).sum()),
        )

    @property
    def healthy(self) -> bool:
        """No NaNs or Infs present."""
        return self.nan_count == 0 and self.inf_count == 0


@dataclass
class MonitorRecord:
    """One monitoring snapshot at a training step."""

    step: int
    loss: Optional[float]
    parameters: Dict[str, TensorStats] = field(default_factory=dict)
    gradients: Dict[str, TensorStats] = field(default_factory=dict)

    @property
    def global_grad_norm(self) -> float:
        """L2 norm of the full gradient (across all parameters)."""
        return float(
            np.sqrt(sum(stats.l2_norm**2 for stats in self.gradients.values()))
        )

    @property
    def healthy(self) -> bool:
        """Loss finite, no NaN/Inf in parameters or gradients."""
        if self.loss is not None and not np.isfinite(self.loss):
            return False
        return all(
            stats.healthy
            for group in (self.parameters, self.gradients)
            for stats in group.values()
        )


@dataclass(frozen=True)
class Anomaly:
    """A detected training-dynamics problem."""

    step: int
    kind: str  # "non-finite" | "exploding-gradient" | "loss-spike"
    detail: str


class TrainingMonitor:
    """Capture and analyse training dynamics snapshots."""

    def __init__(
        self,
        grad_norm_threshold: float = 1e3,
        loss_spike_ratio: float = 10.0,
        history_limit: Optional[int] = None,
    ) -> None:
        if grad_norm_threshold <= 0:
            raise TrainingError("gradient norm threshold must be positive")
        if loss_spike_ratio <= 1.0:
            raise TrainingError("loss spike ratio must exceed 1")
        self._grad_threshold = grad_norm_threshold
        self._spike_ratio = loss_spike_ratio
        self._history_limit = history_limit
        self._metrics: Optional[MetricsRegistry] = None
        self.records: List[MonitorRecord] = []
        self.anomalies: List[Anomaly] = []

    def bind_metrics(self, metrics: MetricsRegistry) -> "TrainingMonitor":
        """Mirror per-step health records into ``metrics``.

        Once bound, every :meth:`capture` updates the training gauges
        (loss, global gradient norm) and counters (records, anomalies by
        kind) in the shared registry, so checkpoint stalls and training
        anomalies land on one timeline.  Returns ``self`` for chaining.
        """
        self._metrics = metrics
        return self

    # ------------------------------------------------------------------
    # capture

    def capture(
        self, model: Module, step: int, loss: Optional[float] = None,
        include_gradients: bool = True,
    ) -> MonitorRecord:
        """Snapshot the model's parameter (and gradient) statistics."""
        record = MonitorRecord(step=step, loss=loss)
        for name, param in model.named_parameters():
            record.parameters[name] = TensorStats.of(param.data)
            if include_gradients:
                record.gradients[name] = TensorStats.of(param.grad)
        self._analyse(record)
        self.records.append(record)
        if self._history_limit and len(self.records) > self._history_limit:
            del self.records[0]
        if self._metrics is not None:
            self._metrics.inc(M.MONITOR_RECORDS)
            if record.loss is not None and np.isfinite(record.loss):
                self._metrics.set_gauge(M.TRAIN_LOSS, record.loss)
            self._metrics.set_gauge(
                M.TRAIN_GRAD_NORM, record.global_grad_norm
            )
        return record

    def _note(self, anomaly: Anomaly) -> None:
        self.anomalies.append(anomaly)
        if self._metrics is not None:
            self._metrics.inc(M.TRAIN_ANOMALIES, kind=anomaly.kind)

    def _analyse(self, record: MonitorRecord) -> None:
        if not record.healthy:
            self._note(
                Anomaly(record.step, "non-finite",
                        "NaN/Inf in loss, parameters, or gradients")
            )
        grad_norm = record.global_grad_norm
        if grad_norm > self._grad_threshold:
            self._note(
                Anomaly(record.step, "exploding-gradient",
                        f"global gradient norm {grad_norm:.3g} exceeds "
                        f"{self._grad_threshold:.3g}")
            )
        if record.loss is not None and np.isfinite(record.loss):
            previous = [
                r.loss for r in self.records[-5:]
                if r.loss is not None and np.isfinite(r.loss)
            ]
            if previous:
                baseline = float(np.median(previous))
                if baseline > 0 and record.loss > self._spike_ratio * baseline:
                    self._note(
                        Anomaly(record.step, "loss-spike",
                                f"loss {record.loss:.4g} is >"
                                f"{self._spike_ratio}x the recent median "
                                f"{baseline:.4g}")
                    )

    # ------------------------------------------------------------------
    # queries

    def series(self, metric: str, parameter: Optional[str] = None) -> List[tuple]:
        """A (step, value) series for plotting/inspection.

        ``metric`` is ``"loss"``, ``"grad_norm"``, or a
        :class:`TensorStats` field name (then ``parameter`` selects whose).
        """
        out = []
        for record in self.records:
            if metric == "loss":
                value = record.loss
            elif metric == "grad_norm":
                value = record.global_grad_norm
            else:
                if parameter is None:
                    raise TrainingError(
                        f"metric {metric!r} needs a parameter name"
                    )
                stats = record.parameters.get(parameter)
                if stats is None:
                    continue
                value = getattr(stats, metric)
            if value is not None:
                out.append((record.step, value))
        return out

    def latest(self) -> Optional[MonitorRecord]:
        """The most recent record."""
        return self.records[-1] if self.records else None

    # ------------------------------------------------------------------
    # serialization (rides inside checkpoints)

    def to_bytes(self) -> bytes:
        """Serialize the full log to JSON bytes."""
        payload = {
            "records": [
                {
                    "step": record.step,
                    "loss": record.loss,
                    "parameters": {k: asdict(v) for k, v in
                                   record.parameters.items()},
                    "gradients": {k: asdict(v) for k, v in
                                  record.gradients.items()},
                }
                for record in self.records
            ],
            "anomalies": [asdict(anomaly) for anomaly in self.anomalies],
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, raw: bytes, **kwargs) -> "TrainingMonitor":
        """Restore a monitor log serialized with :meth:`to_bytes` (any
        buffer — a recovered payload is a read-only view)."""
        try:
            payload = json.loads(bytes(raw))
        except json.JSONDecodeError as exc:
            raise TrainingError("unparsable monitor log") from exc
        monitor = cls(**kwargs)
        for entry in payload.get("records", []):
            record = MonitorRecord(step=entry["step"], loss=entry["loss"])
            record.parameters = {
                k: TensorStats(**v) for k, v in entry["parameters"].items()
            }
            record.gradients = {
                k: TensorStats(**v) for k, v in entry["gradients"].items()
            }
            monitor.records.append(record)
        monitor.anomalies = [
            Anomaly(**entry) for entry in payload.get("anomalies", [])
        ]
        return monitor
