"""Exception hierarchy for the PCcheck reproduction.

All library errors derive from :class:`PCcheckError` so callers can catch a
single base class. Subclasses map to the major subsystems: storage devices,
the checkpoint engine, recovery, configuration, and the performance
simulator.
"""

from __future__ import annotations


class PCcheckError(Exception):
    """Base class for every error raised by this library."""


class StorageError(PCcheckError):
    """A persistent device rejected or failed an operation."""


class DeviceClosedError(StorageError):
    """Operation attempted on a device that was already closed."""


class OutOfSpaceError(StorageError):
    """A write exceeded the capacity of the target device or region."""


class CrashedDeviceError(StorageError):
    """Operation attempted on a device that simulated a crash.

    Fault-injecting devices raise this after :meth:`crash` until the device
    is explicitly recovered, mirroring a machine that lost power.
    """


class TransientIOError(StorageError):
    """An injected transient device fault: the same operation, retried,
    will eventually succeed (a flaky controller, not power loss)."""


class RemoteUnavailableError(StorageError):
    """The remote object store refused service (outage or partition).

    Raised by :class:`~repro.storage.remote.RemoteStore` while it is
    marked unavailable.  Distinct from :class:`CrashedDeviceError`: a
    remote outage is a *liveness* failure of the cold tier — local tiers
    keep committing, the demotion worker counts the failure and retries
    later — whereas a crashed local device kills the commit path."""


class LayoutError(PCcheckError):
    """The on-device region layout is malformed or incompatible."""


class CorruptCheckpointError(PCcheckError):
    """A checkpoint failed validation (bad magic, CRC, or truncation)."""


class NoCheckpointError(PCcheckError):
    """Recovery found no valid checkpoint on the device."""


class EngineError(PCcheckError):
    """The checkpoint engine was used incorrectly or failed internally."""


class EngineClosedError(EngineError):
    """Checkpoint requested on an engine that has been shut down."""


class SlotWaitTimeout(EngineError):
    """``begin()`` gave up waiting for a free checkpoint slot.

    All N concurrent checkpoints were still in flight when the caller's
    timeout expired.  Distinct from other engine errors so pollers (the
    orchestrator's slot-wait loop) can retry it without masking real
    failures.
    """


class InvariantViolationError(EngineError):
    """The runtime sanitizer observed a broken engine invariant.

    Raised only when sanitizing is enabled (``REPRO_SANITIZE=1`` or
    ``CheckpointEngine(..., sanitize=True)``); it means the *engine
    implementation* — not the caller — violated one of the documented
    concurrency invariants (committed-counter monotonicity, committed
    slot outside the free queue, one slot returned per checkpoint,
    at-least-one-valid-checkpoint).
    """


class ConfigError(PCcheckError):
    """Invalid PCcheck configuration (Table 2 parameter constraints)."""


class ServiceError(PCcheckError):
    """The multi-tenant checkpoint service failed or was misused."""


class AdmissionRejected(ServiceError):
    """Admission control refused a request outright.

    The tenant exceeded one of its budgets — concurrent-slot quota with a
    full queue, DRAM staging budget, or payload capacity — and the request
    was dropped *before* touching any engine, so the engine's invariants
    and every other tenant's traffic are unaffected.  The ``tenant`` and
    ``reason`` attributes identify which budget fired.
    """

    def __init__(self, message: str, *, tenant: str = "", reason: str = "") -> None:
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason


class ServiceSaturated(AdmissionRejected):
    """The *shared* capacity is exhausted, not a per-tenant budget.

    Raised when storage bandwidth is saturated end to end: every pooled
    engine is leased (or the coalescing batch region is full) and the
    bounded queue is at its limit, so backpressure reaches the caller.
    Distinct from its :class:`AdmissionRejected` base so tenants can tell
    "slow down, the fleet is busy" apart from "you exceeded your quota".
    """


class SimulationError(PCcheckError):
    """The discrete-event simulator reached an inconsistent state."""


class TrainingError(PCcheckError):
    """The miniature training substrate was used incorrectly."""


class DistributedError(PCcheckError):
    """Multi-worker checkpoint coordination failed."""


class DistributedTimeoutError(DistributedError):
    """A coordination round failed, or a caller stopped waiting on one.

    Only the round's own deadline fails it: then some rank never
    reported, the step can never become globally consistent, every
    participant — a late straggler too — sees the same failed outcome,
    and the slots held across the round are reclaimed.  A caller's
    shorter ``timeout`` raises this to that caller alone; the round
    stays open for its peers.
    """


class DegradedGroupError(DistributedError):
    """Checkpointing is suspended: the worker group is degraded.

    Raised for new checkpoint requests after a coordination round
    failed (a peer timed out or died).  The group must be re-formed via
    :meth:`repro.core.distributed.DistributedCoordinator.reform` before
    checkpointing resumes; local recovery data stays intact throughout.
    """
