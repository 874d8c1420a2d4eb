"""Observability for the PCcheck stack: metrics registry + lifecycle tracing.

Two cooperating pieces (see ``docs/OBSERVABILITY.md``):

* :class:`~repro.obs.metrics.MetricsRegistry` — thread-safe counters,
  gauges and histograms covering the whole ③-capture/④-persist/commit
  pipeline (per-stage latency, bytes persisted, the three stall classes
  of Figure 6, free-slot occupancy, CAS retries, recovery time), with
  snapshot, JSON, and Prometheus-text exposition;
* :class:`~repro.obs.trace.Tracer` — per-checkpoint lifecycle spans
  (``request → capture[chunk] → persist[chunk] → commit → ack`` plus
  recovery), exported as Chrome ``trace_event`` JSON for
  ``chrome://tracing`` / Perfetto.

``repro.obs.driver`` runs an instrumented demo workload behind the
``pccheck-repro metrics`` / ``pccheck-repro trace`` CLI verbs.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    M,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    STATUS_ABORTED,
    STATUS_COMMITTED,
    STATUS_DANGLING,
    STATUS_SUPERSEDED,
    Tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "Histogram",
    "M",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "STATUS_ABORTED",
    "STATUS_COMMITTED",
    "STATUS_DANGLING",
    "STATUS_SUPERSEDED",
    "Tracer",
]
