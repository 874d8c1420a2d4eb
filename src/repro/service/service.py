"""The multi-tenant checkpoint service.

:class:`CheckpointService` admits many concurrent tenants over one
shared :class:`~repro.service.pool.EnginePool`:

* **Dedicated tenants** (the default): each admitted request holds a
  one-ticket :class:`~repro.service.pool.EngineLease` — one of the N
  concurrent checkpoints a pool seat runs (§3.1) — and goes through the
  full PCcheck orchestrator pipeline (staged snapshot, parallel writers,
  Listing 1 commit).  The tenant's slot quota bounds how many tickets
  it may hold at once; the bounded backlog absorbs bursts; beyond that,
  :class:`~repro.errors.AdmissionRejected`.
* **Coalesced tenants** (``TenantSpec(coalesce=True)``): small
  checkpoints are group-committed by the
  :class:`~repro.service.batching.CoalescingBatcher` on one whole seat —
  K requests cost ~one covering fence per *batch*, not per request.

A single dispatcher thread owns all ticket traffic: it retires finished
checkpoints (give the ticket back, refill from the tenant's backlog)
and dispatches admitted work with ``pool.take(1)``, which picks the
seat — the pool holds the one seat map.  Checkpoint completion
callbacks, which run on orchestrator pipeline threads, only enqueue a
retirement and wake the dispatcher, so a seat's drain never runs on the
pipeline it waits for.  The dispatcher never waits on the pool: a
``take`` that finds no room *parks* the head request, and the pool's
release listener — any holder's give-back — un-parks it.  No timer sits
between a request's admission and its ticket settling (see
docs/SERVICE.md "Dispatch").

Every tenant-visible event lands in the pool's shared metrics registry
under a ``tenant=`` label (see ``docs/OBSERVABILITY.md``), keeping one
tenant's telemetry separable from another's without per-tenant
registries.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.core.snapshot import SnapshotSource, as_source
from repro.errors import (
    AdmissionRejected,
    ConfigError,
    ServiceError,
    ServiceSaturated,
)
from repro.obs.metrics import M
from repro.service.admission import (
    DISPATCH,
    QUEUE,
    REASON_BACKLOG_FULL,
    REASON_CLOSED,
    REASON_PAYLOAD_TOO_LARGE,
    REASON_POOL_EXHAUSTED,
    REASON_UNREGISTERED,
    TenantAccount,
    TenantQuota,
    TenantSpec,
    derive_quota,
)
from repro.service.batching import CoalescingBatcher
from repro.service.pool import EnginePool, EngineSpec


@dataclass(frozen=True)
class ServiceResult:
    """Outcome of one tenant checkpoint through the service."""

    tenant: str
    step: int
    #: True when this request's data became (part of) the durable
    #: recovery point.
    committed: bool
    #: True when a newer request from the same tenant overtook this one
    #: before it reached storage (coalesced latest-value semantics, or
    #: the engine's own CAS supersede).
    superseded: bool
    payload_len: int
    #: Engine counter of the carrying checkpoint (None if unknowable).
    counter: Optional[int] = None
    #: Batch sequence for coalesced requests, None for dedicated ones.
    batch: Optional[int] = None


class ServiceTicket:
    """A tenant's claim on one in-flight service checkpoint."""

    def __init__(self, tenant: str, step: int, payload_len: int) -> None:
        self.tenant = tenant
        self.step = step
        self.payload_len = payload_len
        self._future: "Future[ServiceResult]" = Future()

    def result(self, timeout: Optional[float] = None) -> ServiceResult:
        """Block until the checkpoint settled; raises what it raised."""
        return self._future.result(timeout)

    # ``wait`` mirrors CheckpointHandle's verb for familiarity.
    wait = result

    def done(self) -> bool:
        return self._future.done()

    def add_done_callback(self, fn) -> None:
        """Run ``fn(ticket)`` once settled (immediately if already done).
        Runs on the settling thread; keep it short and non-blocking."""
        self._future.add_done_callback(lambda _future: fn(self))

    def _settle(
        self,
        *,
        committed: bool = False,
        superseded: bool = False,
        counter: Optional[int] = None,
        batch: Optional[int] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        if self._future.done():
            return
        if error is not None:
            self._future.set_exception(error)
            return
        self._future.set_result(
            ServiceResult(
                tenant=self.tenant,
                step=self.step,
                committed=committed,
                superseded=superseded,
                payload_len=self.payload_len,
                counter=counter,
                batch=batch,
            )
        )


class _Request:
    """One admitted dedicated-tenant request moving through dispatch."""

    __slots__ = ("account", "source", "nbytes", "step", "ticket", "queued_at")

    def __init__(self, account, source, nbytes, step, ticket) -> None:
        self.account = account
        self.source = source
        self.nbytes = nbytes
        self.step = step
        self.ticket = ticket
        self.queued_at = time.monotonic()


class CheckpointService:
    """Checkpoint-as-a-service over a shared engine pool (see module
    docstring)."""

    #: How long ``register`` waits for an engine to host the coalescing
    #: batcher before reporting the pool structurally exhausted.
    _BATCHER_LEASE_TIMEOUT = 1.0

    def __init__(
        self,
        pool: EnginePool,
        *,
        default_slots: int = 1,
        coalesce_window: float = 0.002,
        name: str = "pccheck-service",
        owns_pool: bool = False,
    ) -> None:
        if default_slots < 1:
            raise ConfigError(
                f"default slot quota must be >= 1, got {default_slots}"
            )
        self._pool = pool
        self._metrics = pool.metrics
        self._default_slots = default_slots
        self._coalesce_window = coalesce_window
        self._name = name
        self._owns_pool = owns_pool
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._tenants: Dict[str, TenantAccount] = {}
        #: Requests admitted and within quota, awaiting an engine.
        self._ready: Deque[_Request] = deque()
        #: (lease, request, handle) of finished checkpoints awaiting
        #: retirement.
        self._retire: Deque[Tuple] = deque()
        self._dispatched = 0
        #: Give-backs to the pool so far (bumped by its release listener).
        self._give_backs = 0
        #: ``_give_backs`` as of the ``take`` that last found no room; the
        #: head of ``_ready`` is parked while the two are equal.  ``None``
        #: when nothing is parked.
        self._parked_at: Optional[int] = None
        self._closed = False
        self._batcher: Optional[CoalescingBatcher] = None
        self._parked = self._metrics.counter(M.SERVICE_DISPATCH_PARKED)
        pool.add_release_listener(self._on_give_back)
        self._dispatcher = threading.Thread(
            target=self._run, name=f"{name}-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # construction sugar

    @classmethod
    def create(
        cls,
        spec: EngineSpec,
        pool_size: int = 2,
        **kwargs,
    ) -> "CheckpointService":
        """Build a service over its own pool (closed with the service)."""
        pool = EnginePool(spec, pool_size, name=f"{kwargs.get('name', 'pccheck-service')}-pool")
        return cls(pool, owns_pool=True, **kwargs)

    # ------------------------------------------------------------------
    # registration

    def register(self, spec: TenantSpec) -> TenantQuota:
        """Admit a tenant; returns its derived quota.

        Coalesced tenants additionally claim their share of the batch
        engine (space in every batch + a staging double buffer), which
        may itself be rejected — see
        :meth:`~repro.service.batching.CoalescingBatcher.register`.
        """
        quota = derive_quota(spec, default_slots=self._default_slots)
        with self._lock:
            self._check_open()
            if spec.name in self._tenants:
                raise ConfigError(f"tenant {spec.name!r} already registered")
        if spec.coalesce:
            batcher = self._ensure_batcher()
            batcher.register(spec.name, spec.capacity_bytes)
        with self._lock:
            self._check_open()
            self._tenants[spec.name] = TenantAccount(spec, quota, self._metrics)
            count = len(self._tenants)
        self._metrics.set_gauge(M.SERVICE_TENANTS, count)
        return quota

    def _ensure_batcher(self) -> CoalescingBatcher:
        with self._lock:
            if self._batcher is not None:
                return self._batcher
        # Acquire outside the service lock: building a pool seat does
        # real I/O.  The batcher holds its whole seat until close.
        try:
            lease = self._pool.acquire(
                timeout=self._BATCHER_LEASE_TIMEOUT,
                tag=f"{self._name}:batcher",
            )
        except ServiceSaturated as exc:
            raise ServiceSaturated(
                f"service {self._name!r}: no engine available to host "
                "the coalescing batcher",
                reason=REASON_POOL_EXHAUSTED,
            ) from exc
        with self._lock:
            won = self._batcher is None
            if won:
                self._batcher = CoalescingBatcher(
                    lease,
                    window=self._coalesce_window,
                    name=f"{self._name}-batch",
                )
            batcher = self._batcher
        if won:
            # A request parked behind the seat just taken retries, and
            # is refused if it was the only one.
            self._on_give_back()
        else:
            # Lost the race to another registrant.
            lease.release()
        return batcher

    # ------------------------------------------------------------------
    # submission

    def checkpoint_async(
        self, tenant: str, state: Union[bytes, SnapshotSource], step: int = 0
    ) -> ServiceTicket:
        """Submit one checkpoint for ``tenant``; returns a ticket.

        ``state`` is any buffer-protocol object or
        :class:`~repro.core.snapshot.SnapshotSource` (dedicated tenants
        only; coalesced tenants stage a copy immediately, so their
        buffers may be reused as soon as this returns).  Raises
        :class:`~repro.errors.AdmissionRejected` when the tenant is over
        quota with a full backlog, unknown, or oversized.
        """
        state = as_source(state)
        nbytes = state.snapshot_size()
        with self._lock:
            account = self._tenants.get(tenant)
            if account is None:
                self._metrics.inc(
                    M.TENANT_REJECTED, tenant=tenant, reason=REASON_UNREGISTERED
                )
                raise AdmissionRejected(
                    f"unknown tenant {tenant!r} (register first)",
                    tenant=tenant,
                    reason=REASON_UNREGISTERED,
                )
            if self._closed:
                self._metrics.inc(
                    M.TENANT_REJECTED, tenant=tenant, reason=REASON_CLOSED
                )
                raise AdmissionRejected(
                    f"service {self._name!r} is closed",
                    tenant=tenant,
                    reason=REASON_CLOSED,
                )
            account.requests += 1
            account.m.requests.inc()
            ticket = ServiceTicket(tenant, step, nbytes)
            if account.spec.coalesce:
                return self._submit_coalesced(account, state, step, ticket)
            refusal = self._seat_refusal(tenant)
            if refusal is not None:
                account.rejections += 1
                self._metrics.inc(M.TENANT_REJECTED, tenant=tenant,
                                  reason=refusal.reason)
                raise refusal
            try:
                decision = account.admit(nbytes)
            except AdmissionRejected as exc:
                account.rejections += 1
                self._metrics.inc(
                    M.TENANT_REJECTED, tenant=tenant, reason=exc.reason
                )
                raise
            request = _Request(account, state, nbytes, step, ticket)
            if decision == DISPATCH:
                self._admit_locked(request)
                self._dispatched += 1
                self._ready.append(request)
            else:
                assert decision == QUEUE
                account.backlog.append(request)
                account.m.queued.inc()
            self._work.notify()
        return ticket

    def checkpoint(
        self,
        tenant: str,
        state: Union[bytes, SnapshotSource],
        step: int = 0,
        timeout: Optional[float] = None,
    ) -> ServiceResult:
        """Submit and wait for the result."""
        return self.checkpoint_async(tenant, state, step=step).result(timeout)

    def _submit_coalesced(
        self, account: TenantAccount, source, step: int, ticket: ServiceTicket
    ) -> ServiceTicket:
        """Route a small tenant's request to the group-commit batcher.

        Called under the service lock.  The backlog bound applies to
        unbatched pending tickets: a tenant outrunning the batcher keeps
        superseding its own staged value (that is the contract), but its
        unsettled tickets may not grow without bound.
        """
        if len(account.backlog) >= account.quota.max_queue + account.quota.slots:
            account.rejections += 1
            self._metrics.inc(
                M.TENANT_REJECTED,
                tenant=account.name,
                reason=REASON_BACKLOG_FULL,
            )
            raise AdmissionRejected(
                f"tenant {account.name!r}: "
                f"{len(account.backlog)} submissions await batching; "
                "backlog full",
                tenant=account.name,
                reason=REASON_BACKLOG_FULL,
            )
        if ticket.payload_len > account.spec.capacity_bytes:
            account.rejections += 1
            self._metrics.inc(
                M.TENANT_REJECTED,
                tenant=account.name,
                reason=REASON_PAYLOAD_TOO_LARGE,
            )
            raise AdmissionRejected(
                f"tenant {account.name!r}: payload of {ticket.payload_len} "
                f"bytes exceeds the declared capacity of "
                f"{account.spec.capacity_bytes}",
                tenant=account.name,
                reason=REASON_PAYLOAD_TOO_LARGE,
            )
        account.backlog.append(ticket)
        ticket.add_done_callback(
            lambda t, account=account: self._on_coalesced_done(account, t)
        )
        account.m.bytes.inc(ticket.payload_len)
        # The batcher captures the snapshot into pinned staging before
        # returning; its lock nests under the service lock we hold
        # (fixed order service -> batcher, never the reverse).
        try:
            self._batcher.submit(account.name, source, step, ticket)
        except BaseException:
            account.backlog.remove(ticket)
            raise
        return ticket

    def _on_coalesced_done(self, account: TenantAccount, ticket: ServiceTicket) -> None:
        # Read the settled future before taking the service lock: the
        # callback only fires post-settlement, but a blocking read under
        # the lock would be a hazard if that ever changed.
        exc = ticket._future.exception(timeout=0)  # noqa: SLF001
        result = None if exc is not None else ticket._future.result(timeout=0)  # noqa: SLF001
        with self._lock:
            try:
                account.backlog.remove(ticket)
            except ValueError:
                pass
            if exc is not None:
                account.failures += 1
            else:
                if result.committed:
                    account.commits += 1
                    account.latest = (result.step, result.counter)
                    account.m.commits.inc()
                else:
                    account.superseded += 1
                    account.m.superseded.inc()
            self._idle.notify_all()

    # ------------------------------------------------------------------
    # dispatcher

    def _admit_locked(self, request: _Request) -> None:
        # Caller holds the service lock and bumps self._dispatched in the
        # same critical section; this only touches the account.
        account = request.account
        account.inflight += 1
        account.inflight_bytes += request.nbytes
        account.m.inflight.set(account.inflight)

    def _on_give_back(self) -> None:
        # Pool release listener: any holder's thread, outside the pool
        # lock.  Like a completion callback it only counts and notifies.
        with self._work:
            self._give_backs += 1
            self._work.notify()

    def _dispatchable_locked(self) -> bool:
        # A ready request that is not parked behind a saturated pool.
        return bool(self._ready) and self._parked_at != self._give_backs

    def _run(self) -> None:
        while True:
            with self._work:
                while not self._retire and not self._dispatchable_locked():
                    if self._closed and self._dispatched == 0:
                        return
                    self._work.wait(0.1 if self._closed else None)
                retire = list(self._retire)
                self._retire.clear()
                request = None
                if self._dispatchable_locked():
                    request = self._ready.popleft()
                give_backs = self._give_backs
            # Retire before dispatch: a finished request's ticket never
            # waits behind the next one's engine, and the room it frees
            # is there for the attempt below.
            for lease, done_request, handle in retire:
                self._retire_one(lease, done_request, handle)
            if request is not None:
                self._dispatch_one(request, give_backs)

    def _dispatch_one(self, request: _Request, give_backs: int) -> None:
        account = request.account
        try:
            lease = self._pool.take(1, tag=f"{self._name}:{account.name}")
        except BaseException as exc:  # noqa: BLE001 - pool closed under us
            self._fail_request(request, exc)
            return
        refusal = self._seat_refusal(account.name) if lease is None else None
        if refusal is not None:  # the batcher took the seat after admission
            self._fail_request(request, refusal)
            return
        if lease is None:
            # No seat has room for a ticket: park until one comes back.
            # A give-back since ``give_backs`` was read (it raced the
            # attempt) leaves the request un-parked for an immediate
            # retry.
            with self._work:
                self._ready.appendleft(request)
                self._parked_at = give_backs
            self._parked.inc()
            return
        account.m.queue_seconds.inc(time.monotonic() - request.queued_at)
        try:
            handle = lease.stack.orchestrator.checkpoint_async(
                request.source, step=request.step
            )
        except BaseException as exc:  # noqa: BLE001 - engine refused
            lease.release()
            self._fail_request(request, exc)
            return
        handle.add_done_callback(
            lambda h, lease=lease, request=request: self._on_dedicated_done(
                lease, request, h
            )
        )

    def _seat_refusal(self, tenant: str) -> Optional[ServiceSaturated]:
        """The error for a dedicated request while the batcher holds the
        pool's only seat — it keeps it until close, so the request would
        park forever, and ``close()`` with it — else ``None``."""
        if self._batcher is None or self._pool.size > 1:
            return None
        return ServiceSaturated(
            f"service {self._name!r}: the coalescing batcher holds the "
            "pool's only seat",
            tenant=tenant,
            reason=REASON_POOL_EXHAUSTED,
        )

    def _on_dedicated_done(self, lease, request: _Request, handle) -> None:
        # Pipeline thread: enqueue and wake the dispatcher, nothing else.
        with self._work:
            self._retire.append((lease, request, handle))
            self._work.notify()

    def _retire_one(self, lease, request: _Request, handle) -> None:
        # The ticket first, so it is there for the next dispatch; the
        # seat's last one drains here, never on a pipeline thread.
        lease.release()
        try:
            result = handle.wait(timeout=0)
        except BaseException as exc:  # noqa: BLE001 - tenant's to observe
            self._fail_request(request, exc)
            return
        account = request.account
        self._leave_flight(request, result)
        account.m.bytes.inc(request.nbytes)
        if result.committed:
            account.m.commits.inc()
        else:
            account.m.superseded.inc()
        request.ticket._settle(  # noqa: SLF001
            committed=result.committed,
            superseded=not result.committed,
            counter=result.counter,
        )

    def _fail_request(self, request: _Request, exc: BaseException) -> None:
        self._leave_flight(request, None)
        request.ticket._settle(error=exc)  # noqa: SLF001

    def _leave_flight(self, request: _Request, result) -> None:
        """``request`` is over — ``result`` is its checkpoint result, or
        ``None`` if it failed.  Record the outcome, give the tenant its
        headroom back, promote its backlog into it, and wake the
        dispatcher and any ``drain``."""
        account = request.account
        with self._lock:
            if result is None:
                account.failures += 1
            elif result.committed:
                account.commits += 1
                account.latest = (request.step, result.counter)
            else:
                account.superseded += 1
            account.inflight -= 1
            account.inflight_bytes -= request.nbytes
            self._dispatched -= 1
            # Backpressure relief: promote backlog into freed headroom.
            while account.backlog and account.has_headroom(
                account.backlog[0].nbytes
            ):
                queued = account.backlog.popleft()
                self._admit_locked(queued)
                self._dispatched += 1
                self._ready.append(queued)
            account.m.inflight.set(account.inflight)
            self._work.notify()
            self._idle.notify_all()

    # ------------------------------------------------------------------
    # observation

    def tenant_stats(self, tenant: str) -> dict:
        with self._lock:
            account = self._tenants.get(tenant)
            if account is None:
                raise ConfigError(f"unknown tenant {tenant!r}")
            return account.stats()

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def latest(self, tenant: str):
        """(step, counter) of the tenant's newest committed checkpoint,
        or ``None``."""
        with self._lock:
            account = self._tenants.get(tenant)
            if account is None:
                raise ConfigError(f"unknown tenant {tenant!r}")
            return account.latest

    def recover_coalesced(self, tenant: str):
        """The tenant's blob in the newest *durable* batch, read back from
        the batch engine's device (None when nothing committed yet)."""
        with self._lock:
            batcher = self._batcher
        if batcher is None:
            return None
        return batcher.committed_entries().get(tenant)

    def metrics(self, format: str = "snapshot"):
        """Fleet-wide telemetry, tenant-labelled; same formats as
        :meth:`repro.Checkpointer.metrics`."""
        from repro.core.config import validate_choice

        validate_choice(
            "metrics format", format, ("snapshot", "json", "prometheus")
        )
        if format == "snapshot":
            return self._metrics.snapshot()
        if format == "json":
            return self._metrics.to_json()
        return self._metrics.to_prometheus()

    @property
    def pool(self) -> EnginePool:
        return self._pool

    @property
    def name(self) -> str:
        return self._name

    # ------------------------------------------------------------------
    # lifecycle

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError(f"service {self._name!r} is closed")

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no request is in flight or queued anywhere.
        Returns False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while True:
                busy = self._dispatched or any(
                    account.backlog for account in self._tenants.values()
                )
                if not busy:
                    return True
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining if remaining is not None else 0.1)

    def close(self, timeout: Optional[float] = None) -> Optional[dict]:
        """Drain, stop admission, shut the batcher down (final batch,
        then buffers), stop the dispatcher, and — when the service owns
        its pool — close the pool and return its leak report."""
        self.drain(timeout)
        with self._lock:
            if self._closed:
                return self._pool.close() if self._owns_pool else None
            self._closed = True
            batcher = self._batcher
            self._batcher = None
            self._work.notify_all()
        if batcher is not None:
            batcher.close()
        self._dispatcher.join(timeout=30)
        self._pool.remove_release_listener(self._on_give_back)
        self._metrics.set_gauge(M.SERVICE_TENANTS, 0)
        if self._owns_pool:
            return self._pool.close()
        return None

    def __enter__(self) -> "CheckpointService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
