"""Admission control for the multi-tenant checkpoint service.

Each tenant registers a :class:`TenantSpec` — who they are, how big
their checkpoints are, and either an explicit concurrency quota or the
cadence they intend to checkpoint at.  :func:`derive_quota` turns the
spec into a :class:`TenantQuota` using the paper's own model: Eq. 3
solved for N (:func:`repro.core.autotune.slots_for_interval`) maps a
requested interval ``f`` to the number of concurrent checkpoint slots
the tenant needs to stay inside its overhead budget ``q``; the DRAM
budget defaults to the Table 1 staging footprint (up to ``2m``).

At submission time the service consults :class:`TenantAccount` — the
tenant's live accounting — for one of three outcomes:

* **dispatch**: inflight checkpoints < slot quota and staged bytes fit
  the DRAM budget — run now;
* **queue**: over quota but the tenant's bounded backlog has room —
  backpressure, the request waits its turn;
* **reject**: the backlog is full too —
  :class:`~repro.errors.AdmissionRejected` with a machine-readable
  ``reason`` (also a metric label).

Shared-capacity exhaustion (every pooled engine leased) surfaces
separately as :class:`~repro.errors.ServiceSaturated`, so callers can
tell "you are over *your* budget" from "the service is full".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Deque, Optional

from repro.core.autotune import slots_for_interval
from repro.errors import AdmissionRejected, ConfigError
from repro.obs.metrics import M, MetricsRegistry

#: ``reason=`` values used in rejections and the TENANT_REJECTED metric.
REASON_UNREGISTERED = "unregistered"
REASON_PAYLOAD_TOO_LARGE = "payload_too_large"
REASON_BACKLOG_FULL = "backlog_full"
REASON_POOL_EXHAUSTED = "pool_exhausted"
REASON_DRAM_EXHAUSTED = "dram_exhausted"
REASON_CAPACITY = "capacity"
REASON_CLOSED = "closed"

#: Admission outcomes (returned by :meth:`TenantAccount.admit`).
DISPATCH = "dispatch"
QUEUE = "queue"


@dataclass(frozen=True)
class TenantQuota:
    """A tenant's derived resource envelope."""

    #: Concurrent checkpoints the tenant may have in flight (Eq. 3's N).
    slots: int
    #: Bytes the tenant may have staged/in flight at once (Table 1's M).
    dram_bytes: int
    #: Requests that may wait in the tenant's backlog beyond the quota.
    max_queue: int


@dataclass(frozen=True)
class TenantSpec:
    """What a tenant declares when joining the service.

    Quota sources, in precedence order:

    1. ``slots`` — an explicit concurrency quota;
    2. ``interval`` + ``tw_seconds`` + ``iteration_time`` (and optionally
       ``max_slowdown``) — the Eq. 3 derivation: "I checkpoint every
       ``f`` iterations of ``t`` seconds, my measured Tw is this, keep my
       overhead under ``q``";
    3. neither — the service's ``default_slots``.

    ``coalesce=True`` marks a *small* tenant whose checkpoints should be
    group-committed with other small tenants into one covering fence
    instead of occupying a pooled engine per request.
    """

    name: str
    capacity_bytes: int
    slots: Optional[int] = None
    interval: Optional[int] = None
    tw_seconds: Optional[float] = None
    iteration_time: Optional[float] = None
    max_slowdown: float = 1.05
    dram_bytes: Optional[int] = None
    max_queue: int = 4
    coalesce: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise ConfigError("tenant name must be non-empty")
        if self.capacity_bytes <= 0:
            raise ConfigError(
                f"tenant {self.name!r}: capacity must be positive, "
                f"got {self.capacity_bytes}"
            )
        if self.slots is not None and self.slots < 1:
            raise ConfigError(
                f"tenant {self.name!r}: slot quota must be >= 1, "
                f"got {self.slots}"
            )
        if self.max_queue < 0:
            raise ConfigError(
                f"tenant {self.name!r}: max_queue must be >= 0, "
                f"got {self.max_queue}"
            )
        if self.dram_bytes is not None and self.dram_bytes < self.capacity_bytes:
            raise ConfigError(
                f"tenant {self.name!r}: DRAM budget {self.dram_bytes} "
                f"cannot stage even one {self.capacity_bytes}-byte checkpoint"
            )
        interval_args = (self.interval, self.tw_seconds, self.iteration_time)
        if any(a is not None for a in interval_args) and not all(
            a is not None for a in interval_args
        ):
            raise ConfigError(
                f"tenant {self.name!r}: deriving a quota from a cadence "
                "needs interval, tw_seconds, and iteration_time together"
            )


def derive_quota(spec: TenantSpec, *, default_slots: int = 1) -> TenantQuota:
    """Resolve a spec into concrete numbers (see :class:`TenantSpec`)."""
    if spec.slots is not None:
        slots = spec.slots
    elif spec.interval is not None:
        slots = slots_for_interval(
            spec.tw_seconds,
            spec.interval,
            spec.max_slowdown,
            spec.iteration_time,
        )
    else:
        slots = default_slots
    if spec.dram_bytes is not None:
        dram = spec.dram_bytes
    else:
        # Table 1: PCcheck's DRAM staging footprint ranges m..2m; give
        # each tenant the paper's default upper bound, bounded below by
        # what its slot quota can actually use.
        dram = min(2, slots) * spec.capacity_bytes
    return TenantQuota(slots=slots, dram_bytes=dram, max_queue=spec.max_queue)


class TenantAccount:
    """Live accounting for one admitted tenant.

    All mutation happens under the service's lock; this class just keeps
    the arithmetic and the admission decision in one testable place.
    Its ``tenant=``-labelled series in ``metrics`` are bound here, once,
    so a request looks none of them up (rejections, which add a
    ``reason=`` label, still do).
    """

    def __init__(
        self, spec: TenantSpec, quota: TenantQuota, metrics: MetricsRegistry
    ) -> None:
        self.spec = spec
        self.quota = quota
        tenant = spec.name
        self.m = SimpleNamespace(
            requests=metrics.counter(M.TENANT_REQUESTS, tenant=tenant),
            queued=metrics.counter(M.TENANT_QUEUED, tenant=tenant),
            bytes=metrics.counter(M.TENANT_BYTES, tenant=tenant),
            commits=metrics.counter(M.TENANT_COMMITS, tenant=tenant),
            superseded=metrics.counter(M.TENANT_SUPERSEDED, tenant=tenant),
            queue_seconds=metrics.counter(
                M.TENANT_QUEUE_SECONDS, tenant=tenant
            ),
            inflight=metrics.gauge(M.TENANT_INFLIGHT, tenant=tenant),
        )
        #: Checkpoints dispatched and not yet retired.
        self.inflight = 0
        #: Payload bytes of those dispatched checkpoints.
        self.inflight_bytes = 0
        #: Bounded backlog of admitted-but-waiting requests.
        self.backlog: Deque = deque()
        #: Totals for :meth:`stats` (metrics carry the same, labelled).
        self.requests = 0
        self.commits = 0
        self.superseded = 0
        self.rejections = 0
        self.failures = 0
        #: (step, counter) of the tenant's newest committed checkpoint.
        self.latest: Optional[tuple] = None

    @property
    def name(self) -> str:
        return self.spec.name

    def has_headroom(self, nbytes: int) -> bool:
        """True when one more ``nbytes`` checkpoint fits the quota now."""
        return (
            self.inflight < self.quota.slots
            and self.inflight_bytes + nbytes <= self.quota.dram_bytes
        )

    def admit(self, nbytes: int) -> str:
        """Decide a request's fate: ``DISPATCH``, ``QUEUE``, or raise.

        Does not mutate accounting — the caller applies the decision
        (so a rejection has no side effects to unwind).
        """
        if nbytes > self.spec.capacity_bytes:
            raise AdmissionRejected(
                f"tenant {self.name!r}: payload of {nbytes} bytes exceeds "
                f"the declared capacity of {self.spec.capacity_bytes}",
                tenant=self.name,
                reason=REASON_PAYLOAD_TOO_LARGE,
            )
        if self.has_headroom(nbytes):
            return DISPATCH
        if len(self.backlog) < self.quota.max_queue:
            return QUEUE
        raise AdmissionRejected(
            f"tenant {self.name!r}: over quota ({self.inflight}/"
            f"{self.quota.slots} in flight, {self.inflight_bytes}/"
            f"{self.quota.dram_bytes} bytes staged) and the backlog of "
            f"{self.quota.max_queue} is full",
            tenant=self.name,
            reason=REASON_BACKLOG_FULL,
        )

    def stats(self) -> dict:
        """Point-in-time accounting snapshot (not thread-safe; call under
        the service lock, as the service's ``tenant_stats`` does)."""
        return {
            "tenant": self.name,
            "coalesced": self.spec.coalesce,
            "quota_slots": self.quota.slots,
            "quota_dram_bytes": self.quota.dram_bytes,
            "max_queue": self.quota.max_queue,
            "inflight": self.inflight,
            "inflight_bytes": self.inflight_bytes,
            "backlog": len(self.backlog),
            "requests": self.requests,
            "commits": self.commits,
            "superseded": self.superseded,
            "rejections": self.rejections,
            "failures": self.failures,
            "latest": self.latest,
        }
