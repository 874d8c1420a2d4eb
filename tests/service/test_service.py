"""CheckpointService end-to-end: 8-tenant fleet, quotas, backpressure,
metric isolation, and the over-subscription hammer."""

import threading

import pytest

from repro.errors import AdmissionRejected, ConfigError, ServiceSaturated
from repro.obs.metrics import M
from repro.service.admission import REASON_POOL_EXHAUSTED, TenantSpec
from repro.service.driver import counter_total, run_service_demo
from repro.service.pool import EnginePool, EngineSpec
from repro.service.service import CheckpointService


def pmem_spec(**overrides):
    defaults = dict(capacity_bytes=8192, backend="pmem", num_chunks=24,
                    chunk_size=8192)
    defaults.update(overrides)
    return EngineSpec(**defaults)


class TestRegistration:
    def test_duplicate_tenant_rejected(self):
        with CheckpointService.create(pmem_spec(), pool_size=1) as service:
            service.register(TenantSpec(name="a", capacity_bytes=1024))
            with pytest.raises(ConfigError):
                service.register(TenantSpec(name="a", capacity_bytes=1024))

    def test_unregistered_tenant_rejected(self):
        with CheckpointService.create(pmem_spec(), pool_size=1) as service:
            with pytest.raises(AdmissionRejected) as excinfo:
                service.checkpoint("ghost", b"data")
            assert excinfo.value.reason == "unregistered"

    def test_register_returns_derived_quota(self):
        with CheckpointService.create(pmem_spec(), pool_size=1) as service:
            quota = service.register(
                TenantSpec(name="a", capacity_bytes=1024, slots=3)
            )
            assert quota.slots == 3


class TestSingleTenant:
    def test_sync_checkpoint_commits(self):
        with CheckpointService.create(pmem_spec(), pool_size=1) as service:
            service.register(TenantSpec(name="a", capacity_bytes=1024))
            result = service.checkpoint("a", b"payload", step=5)
            assert result.committed
            assert result.tenant == "a"
            assert result.step == 5
            assert service.latest("a") is not None

    def test_coalesced_oversized_payload_rejected(self):
        with CheckpointService.create(pmem_spec(), pool_size=1) as service:
            service.register(TenantSpec(name="small", capacity_bytes=512,
                                        coalesce=True))
            with pytest.raises(AdmissionRejected) as excinfo:
                service.checkpoint("small", b"x" * 4096)
            assert excinfo.value.reason == "payload_too_large"

    def test_submit_after_close_rejected(self):
        service = CheckpointService.create(pmem_spec(), pool_size=1)
        service.register(TenantSpec(name="a", capacity_bytes=1024))
        service.close()
        with pytest.raises(AdmissionRejected) as excinfo:
            service.checkpoint("a", b"data")
        assert excinfo.value.reason == "closed"


class TestOneSeatWithABatcher:
    def test_dedicated_request_is_rejected_not_parked(self):
        """The batcher holds a one-seat pool's only seat until close: a
        dedicated request is refused at submit instead of parking forever
        (and ``close()`` with it)."""
        service = CheckpointService.create(pmem_spec(), pool_size=1)
        outcome = {}
        try:
            service.register(TenantSpec(name="batch", capacity_bytes=512,
                                        coalesce=True))
            service.register(TenantSpec(name="own", capacity_bytes=1024))

            def submit():
                try:
                    service.checkpoint("own", b"d" * 512, step=1, timeout=5)
                except BaseException as exc:  # noqa: BLE001 - inspected below
                    outcome["error"] = exc

            submitter = threading.Thread(target=submit, daemon=True)
            submitter.start()
            submitter.join(1.0)
            assert not submitter.is_alive(), "the dedicated request parked"
            error = outcome["error"]
            assert isinstance(error, ServiceSaturated)
            assert error.reason == REASON_POOL_EXHAUSTED
            assert service.checkpoint("batch", b"b" * 128, step=1,
                                      timeout=5).committed
        finally:
            closer = threading.Thread(
                target=lambda: outcome.setdefault("report", service.close()),
                daemon=True,
            )
            closer.start()
            closer.join(5.0)
        assert not closer.is_alive(), "close() hung"
        assert outcome["report"]["leaked_slots"] == 0
        assert outcome["report"]["leaked_buffers"] == 0

    def test_requests_queued_before_the_batcher_settle(self):
        """Dedicated requests admitted before a coalesced tenant's batcher
        took the only seat settle — committed, or refused once the seat
        is gone — and ``close()`` returns."""
        service = CheckpointService.create(pmem_spec(), pool_size=1)
        service.register(TenantSpec(name="own", capacity_bytes=1024,
                                    slots=1))
        tickets = [service.checkpoint_async("own", b"d" * 512, step=step)
                   for step in range(1, 4)]
        service.register(TenantSpec(name="batch", capacity_bytes=512,
                                    coalesce=True))
        for ticket in tickets:
            try:
                assert ticket.result(5).committed
            except ServiceSaturated as exc:
                assert exc.reason == REASON_POOL_EXHAUSTED
        closer = threading.Thread(target=service.close, daemon=True)
        closer.start()
        closer.join(5.0)
        assert not closer.is_alive(), "close() hung"


class TestEightTenantFleet:
    """The ISSUE acceptance scenario: >= 8 tenants with distinct quotas
    sharing one EnginePool concurrently."""

    def test_fleet(self):
        rounds = 5
        spec = pmem_spec(num_chunks=2 * 8 + 4)
        rejected = {}
        lock = threading.Lock()
        with CheckpointService.create(spec, pool_size=2,
                                      name="fleet") as service:
            names = []
            for index in range(8):
                coalesce = index >= 4
                name = f"tenant-{index}"
                names.append(name)
                service.register(TenantSpec(
                    name=name,
                    capacity_bytes=1024 if coalesce else 8192,
                    slots=None if coalesce else 1 + index,  # distinct quotas
                    max_queue=2,
                    coalesce=coalesce,
                ))

            def loop(name, size):
                payload = name.encode() * (size // len(name) or 1)
                for step in range(rounds):
                    try:
                        service.checkpoint_async(name, payload, step=step)
                    except AdmissionRejected:
                        with lock:
                            rejected[name] = rejected.get(name, 0) + 1

            threads = [
                threading.Thread(
                    target=loop,
                    args=(name, 1024 if index >= 4 else 8192),
                )
                for index, name in enumerate(names)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service.drain()

            snapshot = service.metrics()
            stats = {name: service.tenant_stats(name) for name in names}
            leak_report = service.close()

        # Over-quota traffic was rejected or queued, never crashed an engine.
        total_rejected = sum(rejected.values())
        for name in names:
            outcomes = (stats[name]["commits"] + stats[name]["superseded"]
                        + stats[name]["failures"])
            assert stats[name]["failures"] == 0
            assert outcomes + rejected.get(name, 0) == rounds
            assert stats[name]["inflight"] == 0
            assert stats[name]["backlog"] == 0

        # Group commit: coalesced requests collapse into fewer batches.
        coalesced_requests = sum(
            stats[name]["requests"] for name in names[4:]
        )
        batches = counter_total(snapshot, M.SERVICE_BATCHES)
        assert coalesced_requests > 0
        assert 0 < batches < coalesced_requests

        # Per-tenant metric isolation: each tenant's counter series only
        # reflects its own traffic.
        for name in names:
            assert counter_total(
                snapshot, M.TENANT_REQUESTS, tenant=name
            ) == stats[name]["requests"]
            assert counter_total(
                snapshot, M.TENANT_COMMITS, tenant=name
            ) == stats[name]["commits"]
        rejected_metric = sum(
            counter_total(snapshot, M.TENANT_REJECTED, tenant=name)
            for name in names
        )
        assert rejected_metric == total_rejected

        # Pool close leaked nothing.
        assert leak_report["leaked_slots"] == 0
        assert leak_report["leaked_buffers"] == 0


class TestHammer:
    """Satellite: tenants over-subscribing their quotas concurrently must
    never leak slots or DRAM buffers."""

    def test_oversubscription_never_leaks(self):
        spec = pmem_spec(capacity_bytes=2048, chunk_size=2048,
                         num_chunks=20)
        with CheckpointService.create(spec, pool_size=2,
                                      name="hammer") as service:
            for index in range(6):
                service.register(TenantSpec(
                    name=f"h{index}",
                    capacity_bytes=512 if index % 2 else 2048,
                    slots=1,
                    max_queue=1,  # tiny queue: force constant rejections
                    coalesce=bool(index % 2),
                ))

            def hammer(name, size):
                payload = b"h" * size
                for step in range(30):
                    try:
                        service.checkpoint_async(name, payload, step=step)
                    except AdmissionRejected:
                        pass

            threads = [
                threading.Thread(
                    target=hammer,
                    args=(f"h{index}", 512 if index % 2 else 2048),
                )
                for index in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service.drain()
            stats = {f"h{i}": service.tenant_stats(f"h{i}")
                     for i in range(6)}
            leak_report = service.close()

        for name, account in stats.items():
            assert account["inflight"] == 0, name
            assert account["backlog"] == 0, name
            assert account["failures"] == 0, name
            assert account["commits"] > 0, name
        assert leak_report["leaked_slots"] == 0
        assert leak_report["leaked_buffers"] == 0


class TestExternalPool:
    def test_service_over_borrowed_pool_leaves_it_open(self):
        with EnginePool(pmem_spec(), size=2, name="shared") as pool:
            service = CheckpointService(pool)
            service.register(TenantSpec(name="a", capacity_bytes=1024))
            assert service.checkpoint("a", b"v").committed
            report = service.close()
            assert report is None  # borrowed pool: nothing to report
            assert not pool.closed
            # Pool is still usable by other clients.
            pool.acquire(tag="next").release()


class TestDemoDriver:
    def test_demo_report_shape(self):
        report = run_service_demo(tenants=4, rounds=2,
                                  capacity_bytes=1 << 16, pool_size=2,
                                  persist_bandwidth=None)
        assert report["requests"] == 8
        assert report["leak_report"]["leaked_slots"] == 0
        assert report["leak_report"]["leaked_buffers"] == 0
        assert report["batches"] <= report["coalesced_requests"]
        assert report["dedicated_superseded"] == 0

    @pytest.mark.parametrize("superseded, status", [(0, 0), (1, 1)])
    def test_serve_fails_on_a_superseded_dedicated_request(
        self, monkeypatch, capsys, superseded, status
    ):
        from repro import cli
        from repro.service import driver

        report = run_service_demo(tenants=2, rounds=1,
                                  capacity_bytes=1 << 16, pool_size=2,
                                  persist_bandwidth=None)
        report["dedicated_superseded"] = superseded
        monkeypatch.setattr(driver, "run_service_demo",
                            lambda **kwargs: report)
        assert cli.main(["serve"]) == status
        assert f"dedicated supersede: {superseded}" in capsys.readouterr().out
