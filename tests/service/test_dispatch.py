"""The service dispatcher is event-driven: it never waits on the pool,
retires before it dispatches, and is woken by any holder's release.

None of these tests sleeps: a gated device and a spy pool's events are
the only synchronisation (every ``wait`` carries a timeout purely so a
regression fails instead of hanging the suite).  The regression tests
for a synchronous dispatch failure (stuck backlog) live here too.
"""

import sys
import threading

import pytest

from repro.errors import EngineClosedError
from repro.obs.metrics import M
from repro.service.admission import TenantSpec
from repro.service.driver import counter_total
from repro.service.pool import EnginePool, EngineSpec
from repro.service.service import CheckpointService
from repro.storage.pmem import SimulatedPMEM

WAIT = 10.0  # safety bound on every event wait; never the expected path


def pmem_spec(**overrides):
    defaults = dict(capacity_bytes=8192, backend="pmem", num_chunks=4,
                    chunk_size=8192)
    defaults.update(overrides)
    return EngineSpec(**defaults)


class SpyPool(EnginePool):
    """Logs lease traffic in order and flags a saturated ``try_acquire``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.events = []
        self.saturated = threading.Event()

    def acquire(self, *, timeout=None, tag="anonymous"):
        self.events.append(
            ("acquire", threading.current_thread().name, timeout)
        )
        return super().acquire(timeout=timeout, tag=tag)

    def try_acquire(self, *, tag="anonymous"):
        lease = super().try_acquire(tag=tag)
        self.events.append(("try_acquire", tag, lease is not None))
        if lease is None:
            self.saturated.set()
        return lease

    def release(self, lease):
        super().release(lease)
        self.events.append(("release", lease.tag))


class GatedPMEM(SimulatedPMEM):
    """Durability barriers block while ``gate`` is clear."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.gate.set()
        self.blocked = threading.Event()

    def persist(self, offset, length):
        if not self.gate.is_set():
            self.blocked.set()
            assert self.gate.wait(WAIT)
        super().persist(offset, length)


def dispatcher_acquires(pool):
    return [event for event in pool.events
            if event[0] == "acquire" and event[1].endswith("-dispatcher")]


class TestNoTimerOnTheDispatchPath:
    def test_dispatcher_never_calls_blocking_acquire(self):
        pool = SpyPool(pmem_spec(), size=1, name="spy")
        with CheckpointService(pool, owns_pool=True, name="svc") as service:
            for index in range(3):
                service.register(TenantSpec(
                    name=f"t{index}", capacity_bytes=8192, slots=1,
                    max_queue=4))
            tickets = [
                service.checkpoint_async(f"t{index}", b"x" * 4096, step=step)
                for step in range(4) for index in range(3)
            ]
            assert all(t.result(WAIT).committed for t in tickets)
            assert service.drain(WAIT)
        assert dispatcher_acquires(pool) == []
        leased = [e for e in pool.events if e[0] == "try_acquire" and e[2]]
        assert len(leased) == len(tickets)

    def test_try_acquire_on_saturated_pool_does_not_wait(self):
        with EnginePool(pmem_spec(), size=1) as pool:
            holder = pool.acquire(tag="holder")

            def no_wait(timeout=None):
                raise AssertionError("try_acquire waited on the pool")

            pool._available.wait = no_wait
            assert pool.try_acquire(tag="late") is None
            holder.release()


class TestRetireBeforeDispatch:
    def test_first_ticket_settles_before_second_dispatch(self):
        spec = pmem_spec()
        device = GatedPMEM(1 << 20)
        pool = SpyPool(spec, size=1, devices=(device,), name="spy")
        pool.acquire(tag="prebuild").release()  # format with the gate open
        order = pool.events
        with CheckpointService(pool, owns_pool=True, name="svc") as service:
            service.register(TenantSpec(name="a", capacity_bytes=8192,
                                        slots=2, max_queue=2))
            device.gate.clear()
            first = service.checkpoint_async("a", b"1" * 4096, step=1)
            first.add_done_callback(lambda t: order.append(("settled", 1)))
            assert device.blocked.wait(WAIT)
            second = service.checkpoint_async("a", b"2" * 4096, step=2)
            second.add_done_callback(lambda t: order.append(("settled", 2)))
            assert pool.saturated.wait(WAIT)
            assert not first.done() and not second.done()
            device.gate.set()
            assert second.result(WAIT).committed
            assert first.result(0).committed
            snapshot = service.metrics()
        order = order[order.index(("try_acquire", "svc:a", True)):]
        assert order[:5] == [
            ("try_acquire", "svc:a", True),    # request 1 takes the engine
            ("try_acquire", "svc:a", False),   # request 2 parks
            ("release", "svc:a"),              # request 1 retires: lease...
            ("settled", 1),                    # ...then ticket...
            ("try_acquire", "svc:a", True),    # ...and only then request 2
        ]
        assert counter_total(snapshot, M.SERVICE_DISPATCH_PARKED) == 1
        assert dispatcher_acquires(pool) == []


class TestBorrowedPool:
    def test_outside_release_wakes_the_dispatcher(self):
        with SpyPool(pmem_spec(), size=1, name="shared") as pool:
            outside = pool.acquire(tag="outsider")
            service = CheckpointService(pool, name="svc")
            service.register(TenantSpec(name="a", capacity_bytes=8192))
            ticket = service.checkpoint_async("a", b"v" * 1024, step=3)
            assert pool.saturated.wait(WAIT)
            assert not ticket.done()
            outside.release()
            # No further submission, no timer: the release alone commits it.
            assert ticket.result(WAIT).committed
            assert service.drain(WAIT)
            service.close()
            # A closed service no longer listens to the pool it borrowed.
            assert pool._release_listeners == ()

    def test_release_racing_a_saturated_attempt_is_not_lost(self):
        """The seat is freed after ``try_acquire`` saw the pool full but
        before the dispatcher parks: with no later release to save it,
        the request must still be retried."""
        class RacingPool(EnginePool):
            outside = None

            def try_acquire(self, *, tag="anonymous"):
                lease = super().try_acquire(tag=tag)
                if lease is None:
                    self.outside.release()
                return lease

        with RacingPool(pmem_spec(), size=1, name="shared") as pool:
            pool.outside = pool.acquire(tag="outsider")
            service = CheckpointService(pool, name="svc")
            service.register(TenantSpec(name="a", capacity_bytes=8192))
            assert service.checkpoint("a", b"v" * 1024, timeout=WAIT).committed
            service.close()

    def test_churning_outside_holders_never_strand_a_request(self):
        """Outside holders churn the only engine from more threads than
        cores while tenants submit: a release that races a saturated
        ``try_acquire`` must never leave the request parked."""
        rounds, outsiders = 40, 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with EnginePool(pmem_spec(), size=1, name="shared") as pool:
                service = CheckpointService(pool, name="svc")
                for index in range(2):
                    service.register(TenantSpec(
                        name=f"t{index}", capacity_bytes=8192, slots=1,
                        max_queue=rounds))
                stop = threading.Event()

                def churn():
                    while not stop.is_set():
                        pool.acquire(tag="outsider").release()

                threads = [threading.Thread(target=churn)
                           for _ in range(outsiders)]
                for thread in threads:
                    thread.start()
                try:
                    tickets = [
                        service.checkpoint_async(f"t{index}", b"s" * 512,
                                                 step=step)
                        for step in range(rounds) for index in range(2)
                    ]
                    settled = [t.result(WAIT) for t in tickets]
                finally:
                    stop.set()
                    for thread in threads:
                        thread.join(WAIT)
                assert not any(thread.is_alive() for thread in threads)
                assert len(settled) == 2 * rounds
                assert all(r.committed or r.superseded for r in settled)
                assert service.drain(WAIT)
                service.close()
                assert pool.in_use == 0
        finally:
            sys.setswitchinterval(interval)


class TestSynchronousDispatchFailure:
    def test_backlog_is_promoted_after_a_failed_dispatch(self):
        """Regression: the failed request's headroom went back to the
        tenant but its backlog was never promoted, so the queued ticket
        never settled and drain()/close() hung."""
        with EnginePool(pmem_spec(), size=1, name="shared") as pool:
            outside = pool.acquire(tag="outsider")
            real = outside.orchestrator.checkpoint_async
            calls = []

            def refuse_once(source, step=0):
                calls.append(step)
                if len(calls) == 1:
                    raise RuntimeError("engine refused")
                return real(source, step=step)

            outside.orchestrator.checkpoint_async = refuse_once
            service = CheckpointService(pool, name="svc")
            service.register(TenantSpec(name="a", capacity_bytes=8192,
                                        slots=1, max_queue=4))
            first = service.checkpoint_async("a", b"1" * 1024, step=1)
            second = service.checkpoint_async("a", b"2" * 1024, step=2)
            assert service.tenant_stats("a")["backlog"] == 1
            outside.release()
            with pytest.raises(RuntimeError, match="engine refused"):
                first.result(WAIT)
            assert second.result(WAIT).committed
            assert service.drain(2)
            stats = service.tenant_stats("a")
            assert stats["backlog"] == 0 and stats["inflight"] == 0
            assert stats["failures"] == 1 and stats["commits"] == 1
            service.close()
            assert pool.in_use == 0

    def test_pool_closed_under_the_dispatcher_fails_every_ticket(self):
        pool = EnginePool(pmem_spec(), size=1, name="shared")
        service = CheckpointService(pool, name="svc")
        service.register(TenantSpec(name="a", capacity_bytes=8192,
                                    slots=1, max_queue=4))
        pool.close()
        tickets = [service.checkpoint_async("a", b"x", step=step)
                   for step in range(3)]
        for ticket in tickets:
            with pytest.raises(EngineClosedError):
                ticket.result(WAIT)
        assert service.drain(2)
        assert service.tenant_stats("a")["backlog"] == 0
        service.close()
