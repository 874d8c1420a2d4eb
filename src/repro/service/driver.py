"""Demo driver for the multi-tenant service (the ``serve`` CLI verb).

Spins up a :class:`~repro.service.CheckpointService` over its own
bandwidth-throttled in-memory pool, admits a mixed fleet of tenants —
large dedicated ones with distinct Eq. 3-derived quotas, small coalesced
ones — fires concurrent checkpoint bursts from per-tenant threads, and
reports what the service did: admissions, rejections, queue time,
batches cut, fences issued versus requests served, dedicated requests
superseded, and the pool's final leak report.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.errors import AdmissionRejected
from repro.obs.metrics import M
from repro.service.admission import TenantSpec
from repro.service.pool import EngineSpec
from repro.service.service import CheckpointService

#: Simulated storage bandwidth for the demo fleet (bytes/second) — slow
#: enough that queueing and coalescing visibly matter.
DEMO_PERSIST_BANDWIDTH: float = 256e6


def run_service_demo(
    tenants: int = 8,
    rounds: int = 6,
    capacity_bytes: int = 1 << 20,
    pool_size: int = 3,
    persist_bandwidth: Optional[float] = DEMO_PERSIST_BANDWIDTH,
    seed: int = 1234,
) -> dict:
    """Run the demo; returns a plain-dict report the CLI renders.

    Half the fleet (rounded up) are dedicated tenants with slot quotas
    cycling 1..3; the rest are coalesced small tenants at 1/64 of the
    dedicated payload size.
    """
    if tenants < 2:
        raise ValueError("the demo wants at least 2 tenants")
    spec = EngineSpec(
        capacity_bytes=capacity_bytes,
        backend="pmem",
        persist_bandwidth=persist_bandwidth,
        num_chunks=2 * tenants + 2,
        chunk_size=capacity_bytes,
    )
    dedicated = (tenants + 1) // 2
    small_payload = max(capacity_bytes // 64, 4096)
    service = CheckpointService.create(spec, pool_size=pool_size, name="demo")
    rejected = 0
    lock = threading.Lock()

    def tenant_loop(name: str, payload_size: int, steps: int) -> None:
        nonlocal rejected
        base = (hash((seed, name)) & 0xFF) or 1
        payload = bytes([base]) * payload_size
        for step in range(steps):
            try:
                service.checkpoint_async(name, payload, step=step)
            except AdmissionRejected:
                with lock:
                    rejected += 1

    threads = []
    try:
        for index in range(tenants):
            coalesce = index >= dedicated
            name = f"{'small' if coalesce else 'large'}-{index}"
            service.register(
                TenantSpec(
                    name=name,
                    capacity_bytes=small_payload if coalesce else capacity_bytes,
                    slots=None if coalesce else 1 + index % 3,
                    max_queue=4,
                    coalesce=coalesce,
                )
            )
            threads.append(
                threading.Thread(
                    target=tenant_loop,
                    args=(
                        name,
                        small_payload if coalesce else capacity_bytes,
                        rounds,
                    ),
                    name=f"demo-{name}",
                )
            )
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.drain()
        snapshot = service.metrics()
        stats = {name: service.tenant_stats(name) for name in service.tenants()}
    finally:
        leak_report = service.close()

    requests = sum(account["requests"] for account in stats.values())
    coalesced_requests = sum(
        account["requests"]
        for account in stats.values()
        if account["coalesced"]
    )
    # A dedicated checkpoint is never legitimately superseded: a seat's
    # tickets commit in start order.  Coalesced ones are latest-value.
    dedicated_superseded = sum(
        account["superseded"]
        for account in stats.values()
        if not account["coalesced"]
    )
    return {
        "tenants": stats,
        "requests": requests,
        "coalesced_requests": coalesced_requests,
        "dedicated_superseded": dedicated_superseded,
        "rejected": rejected,
        "batches": counter_total(snapshot, M.SERVICE_BATCHES),
        "batch_entries": counter_total(snapshot, M.SERVICE_BATCH_ENTRIES),
        "dispatch_parked": counter_total(snapshot, M.SERVICE_DISPATCH_PARKED),
        "persist_fences": counter_total(snapshot, M.DEVICE_OPS, op="persist"),
        "leak_report": leak_report,
    }


def counter_total(snapshot: dict, name: str, **match: str) -> float:
    """Sum a counter's series (optionally filtered by label values) out
    of a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict."""
    entry = snapshot.get(name)
    if not entry:
        return 0.0
    total = 0.0
    for series in entry["series"]:
        labels = series.get("labels") or {}
        if all(labels.get(key) == value for key, value in match.items()):
            total += series.get("value", 0.0)
    return total


def render_report(report: dict) -> str:
    """Human-readable rendering of :func:`run_service_demo`'s report."""
    lines = [
        f"requests submitted : {report['requests']}",
        f"admission rejected : {report['rejected']}",
        f"group commit       : {report['coalesced_requests']} coalesced "
        f"requests -> {int(report['batches'])} batches "
        f"({int(report['batch_entries'])} entries)",
        f"dispatch parked    : {int(report['dispatch_parked'])} attempts "
        "found every engine ticket taken",
        f"persist fences     : {int(report['persist_fences'])}",
        f"dedicated supersede: {report['dedicated_superseded']} "
        "(must be 0)",
        f"pool leaks         : "
        f"{report['leak_report']['leaked_slots']} slots, "
        f"{report['leak_report']['leaked_buffers']} buffers, "
        f"{report['leak_report']['unreleased_buffers']} staging mappings "
        "left mapped",
        "",
        f"{'tenant':<12} {'quota':>5} {'req':>4} {'commit':>6} "
        f"{'superseded':>10} {'rejected':>8} {'queued':>6}",
    ]
    for name in sorted(report["tenants"]):
        account = report["tenants"][name]
        lines.append(
            f"{name:<12} {account['quota_slots']:>5} "
            f"{account['requests']:>4} {account['commits']:>6} "
            f"{account['superseded']:>10} {account['rejections']:>8} "
            f"{account['backlog']:>6}"
        )
    return "\n".join(lines)
