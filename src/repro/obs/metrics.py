"""The metrics registry — PCcheck's quantitative telemetry backbone.

PCcheck's argument is quantitative: goodput under stalls (the T→U wait
of Figure 6, the ``Tw > N · f · t`` stall condition), the Eq. 3 interval
bound and the Eq. 4 recovery bound.  Every stage of the
③-capture/④-persist/commit pipeline therefore reports into one
:class:`MetricsRegistry`, the *single source of truth* for

* counters — monotone totals (commits, bytes persisted, stall seconds
  by class: update / slot / buffer);
* gauges — last-value samples (free-slot occupancy, latest loss);
* histograms — latency and size distributions (per-stage seconds,
  per-device-op seconds/bytes).

Instruments are identified by a metric *name* plus optional label
key/values, mirroring the Prometheus data model, and every instrument is
thread-safe: writer threads, capture/persist stages, and the training
thread all report concurrently.  :meth:`MetricsRegistry.snapshot` takes
a consistent point-in-time copy; :meth:`MetricsRegistry.to_prometheus`
and :meth:`MetricsRegistry.to_json` render the standard expositions.

The canonical metric names live in the ``M`` namespace class below so a
grep for ``M.SLOT_WAIT_SECONDS`` finds every producer and consumer;
``docs/OBSERVABILITY.md`` is the human-readable catalogue.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

#: Label set rendered into instrument keys: ``(("device", "ssd:x"), ...)``.
LabelSet = Tuple[Tuple[str, str], ...]


class M:
    """Canonical metric names (the catalogue of docs/OBSERVABILITY.md)."""

    # -- engine / commit protocol (Listing 1) --------------------------
    CHECKPOINTS_REQUESTED = "pccheck_checkpoints_requested_total"
    COMMITS = "pccheck_commits_total"
    SUPERSEDED = "pccheck_superseded_total"
    ABORTED = "pccheck_aborted_total"
    DANGLING = "pccheck_dangling_total"
    CAS_RETRIES = "pccheck_commit_cas_retries_total"
    BYTES_PERSISTED = "pccheck_bytes_persisted_total"
    BYTES_COPIED = "pccheck_bytes_copied_total"
    FREE_SLOTS = "pccheck_free_slots"
    # -- distributed coordination (§4.1 rank-0 round) ------------------
    HELD_SLOTS = "pccheck_held_slots"
    HELD_SLOTS_RECLAIMED = "pccheck_held_slots_reclaimed_total"
    BARRIER_WAIT_SECONDS = "pccheck_barrier_wait_seconds"  # label: rank=
    BARRIER_ROUND_SECONDS = "pccheck_barrier_round_seconds"
    BARRIER_ROUNDS_COMPLETED = "pccheck_barrier_rounds_completed_total"
    BARRIER_ROUNDS_FAILED = "pccheck_barrier_rounds_failed_total"
    BARRIER_ROUNDS_INFLIGHT = "pccheck_barrier_rounds_inflight"
    # -- the three stall classes (Figure 6 / §3.2) ---------------------
    UPDATE_STALL_SECONDS = "pccheck_update_stall_seconds_total"
    SLOT_WAIT_SECONDS = "pccheck_slot_wait_seconds_total"
    BUFFER_WAIT_SECONDS = "pccheck_buffer_wait_seconds_total"
    # -- pipeline stage latency (③ capture / ④ persist / commit) -------
    STAGE_SECONDS = "pccheck_stage_seconds"  # label: stage=
    CHECKPOINT_SECONDS = "pccheck_checkpoint_seconds"  # request → ack
    # Seconds of per-chunk CRC compute that genuinely ran WHILE the
    # writer pool was persisting the same chunk's bytes — the proof the
    # submit/CRC/reap pipeline overlaps CPU work with device writes
    # instead of serializing them.
    PIPELINE_OVERLAP_SECONDS = "pccheck_pipeline_overlap_seconds_total"
    # -- storage devices ----------------------------------------------
    DEVICE_OPS = "pccheck_device_ops_total"  # labels: device=, op=
    DEVICE_OP_BYTES = "pccheck_device_op_bytes_total"
    DEVICE_OP_SECONDS = "pccheck_device_op_seconds"
    # Writes of >= one sector on an unbuffered FileBackedSSD, by the
    # path they took (label: device=): O_DIRECT, or the buffered fallback.
    DEVICE_DIRECT_WRITES = "pccheck_device_direct_writes_total"
    DEVICE_FALLBACK_WRITES = "pccheck_device_fallback_writes_total"
    CRASHES_INJECTED = "pccheck_crashes_injected_total"
    TRANSIENT_FAULTS = "pccheck_transient_faults_total"
    # -- recovery (§4.2, Eq. 4) ---------------------------------------
    RECOVERY_SECONDS = "pccheck_recovery_seconds"
    RECOVERY_BYTES = "pccheck_recovery_bytes_total"
    RECOVERY_ATTEMPTS = "pccheck_recovery_attempts_total"
    # -- tiered / remote storage (TierCheck-style demotion) ------------
    TIER_DEMOTIONS = "pccheck_tier_demotions_total"  # label: tier=
    TIER_DEMOTION_BYTES = "pccheck_tier_demotion_bytes_total"  # label: tier=
    TIER_DEMOTION_SECONDS = "pccheck_tier_demotion_seconds"
    TIER_DEMOTION_FAILURES = (
        "pccheck_tier_demotion_failures_total"  # labels: tier=, reason=
    )
    TIER_DEMOTION_QUEUE = "pccheck_tier_demotion_queue"
    TIER_DEMOTION_SKIPPED = "pccheck_tier_demotion_skipped_total"
    TIER_RECOVERY_ATTEMPTS = (
        "pccheck_tier_recovery_attempts_total"  # labels: tier=, outcome=
    )
    REMOTE_PUTS = "pccheck_remote_puts_total"
    REMOTE_PUT_BYTES = "pccheck_remote_put_bytes_total"
    REMOTE_GETS = "pccheck_remote_gets_total"
    REMOTE_FAILURES = "pccheck_remote_failures_total"
    # -- multi-tenant service / engine pool ----------------------------
    TENANT_REQUESTS = "pccheck_tenant_requests_total"  # label: tenant=
    TENANT_COMMITS = "pccheck_tenant_commits_total"  # label: tenant=
    TENANT_SUPERSEDED = "pccheck_tenant_superseded_total"  # label: tenant=
    TENANT_REJECTED = "pccheck_tenant_rejected_total"  # labels: tenant=, reason=
    TENANT_QUEUED = "pccheck_tenant_queued_total"  # label: tenant=
    TENANT_BYTES = "pccheck_tenant_bytes_total"  # label: tenant=
    TENANT_QUEUE_SECONDS = "pccheck_tenant_queue_seconds"  # label: tenant=
    TENANT_INFLIGHT = "pccheck_tenant_inflight"  # label: tenant=
    SERVICE_BATCHES = "pccheck_service_batches_total"
    SERVICE_BATCH_ENTRIES = "pccheck_service_batch_entries"
    SERVICE_TENANTS = "pccheck_service_tenants"
    SERVICE_DISPATCH_PARKED = "pccheck_service_dispatch_parked_total"
    POOL_ENGINES_BUILT = "pccheck_pool_engines_built"
    POOL_ENGINES_LEASED = "pccheck_pool_engines_leased"
    POOL_ACQUIRE_WAIT_SECONDS = "pccheck_pool_acquire_wait_seconds_total"
    # -- training loop / monitor --------------------------------------
    TRAIN_STEPS = "pccheck_train_steps_total"
    TRAIN_ITERATION_SECONDS = "pccheck_train_iteration_seconds"
    TRAIN_LOSS = "pccheck_train_loss"
    TRAIN_GRAD_NORM = "pccheck_train_grad_norm"
    TRAIN_ANOMALIES = "pccheck_train_anomalies_total"  # label: kind=
    MONITOR_RECORDS = "pccheck_monitor_records_total"


#: Default latency buckets: 1 µs .. ~67 s, powers of 4 (seconds).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    1e-6 * 4**k for k in range(13)
)

#: Default size buckets: 64 B .. 4 GiB, powers of 8 (bytes).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = tuple(64.0 * 8**k for k in range(9))


def _labelset(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotone total.  ``inc`` never accepts negative deltas."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ConfigError(
                f"counter {self.name} cannot decrease (inc({amount}))"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> dict:
        """Point-in-time exposition entry."""
        return {"labels": dict(self.labels), "value": self.value}


class Gauge:
    """A last-value sample (free slots, current loss, ...)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> dict:
        return {"labels": dict(self.labels), "value": self.value}


class Histogram:
    """A fixed-bucket distribution with sum/count/min/max.

    Buckets are upper bounds (``le`` in Prometheus terms); an implicit
    +Inf bucket catches the tail.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigError(
                f"histogram {name} needs ascending, non-empty buckets"
            )
        self.name = name
        self.labels = labels
        self._bounds: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self._bounds) + 1)  # +Inf tail
        self._lock = threading.Lock()
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self._bounds)
        for i, bound in enumerate(self._bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def sample(self) -> dict:
        with self._lock:
            return {
                "labels": dict(self.labels),
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
                "buckets": [
                    {"le": bound, "count": count}
                    for bound, count in zip(self._bounds, self._counts)
                ]
                + [{"le": float("inf"), "count": self._counts[-1]}],
            }


class MetricsRegistry:
    """Thread-safe home of every instrument in one checkpointer stack.

    One registry per :class:`~repro._api.Checkpointer` (or per test):
    the engine, orchestrator, devices, recovery path, and training loop
    all report into the same instance, so a single snapshot shows the
    whole pipeline.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, LabelSet], object] = {}

    # ------------------------------------------------------------------
    # instrument accessors (create on first use)

    def _get(self, cls, name: str, labels: Dict[str, str], **kwargs):
        key = (name, _labelset(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, key[1], **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise ConfigError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {cls.__name__}"
                )
            return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # ------------------------------------------------------------------
    # convenience write paths

    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Increment the counter ``name`` (created on first use)."""
        self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        self.histogram(name, **labels).observe(value)

    @contextmanager
    def timer(self, name: str, **labels: str) -> Iterator[None]:
        """Time a block into the histogram ``name``."""
        start = time.monotonic()
        try:
            yield
        finally:
            self.observe(name, time.monotonic() - start, **labels)

    # ------------------------------------------------------------------
    # read paths

    def value(self, name: str, default: float = 0.0, **labels: str) -> float:
        """Current value of a counter/gauge, or ``default`` if absent."""
        key = (name, _labelset(labels))
        with self._lock:
            instrument = self._instruments.get(key)
        if instrument is None:
            return default
        return instrument.value  # type: ignore[union-attr]

    def names(self) -> List[str]:
        with self._lock:
            return sorted({name for name, _ in self._instruments})

    def snapshot(self) -> dict:
        """Point-in-time copy: ``{name: {"type": ..., "series": [...]}}``."""
        with self._lock:
            instruments = list(self._instruments.values())
        out: Dict[str, dict] = {}
        for instrument in instruments:
            entry = out.setdefault(
                instrument.name, {"type": instrument.kind, "series": []}
            )
            entry["series"].append(instrument.sample())
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot as a JSON document."""

        def _finite(obj):
            if isinstance(obj, float) and obj == float("inf"):
                return "+Inf"
            raise TypeError(f"unserializable {obj!r}")

        return json.dumps(
            self.snapshot(), indent=indent, sort_keys=True, default=_finite
        )

    def to_prometheus(self) -> str:
        """Prometheus text exposition (v0.0.4)."""
        lines: List[str] = []
        snapshot = self.snapshot()
        for name in sorted(snapshot):
            entry = snapshot[name]
            lines.append(f"# TYPE {name} {entry['type']}")
            for series in entry["series"]:
                labels = series["labels"]
                if entry["type"] == "histogram":
                    cumulative = 0
                    for bucket in series["buckets"]:
                        cumulative += bucket["count"]
                        le = bucket["le"]
                        le_text = "+Inf" if le == float("inf") else repr(le)
                        lines.append(
                            f"{name}_bucket"
                            f"{_prom_labels(labels, le=le_text)} {cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{_prom_labels(labels)} {series['sum']!r}"
                    )
                    lines.append(
                        f"{name}_count{_prom_labels(labels)} {series['count']}"
                    )
                else:
                    lines.append(
                        f"{name}{_prom_labels(labels)} {series['value']!r}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_labels(labels: Dict[str, str], **extra: str) -> str:
    merged = {**labels, **extra}
    if not merged:
        return ""
    inner = ",".join(
        f'{key}="{_escape(value)}"' for key, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace(
        "\n", r"\n"
    )
