"""The service dispatcher is event-driven: it never waits on the pool,
retires before it dispatches, and is woken by any holder's release.
A pool seat carries up to N tickets — any tenants' — and a seat whose
engine died takes no new ones.  (Test names that say ``try_acquire``
are historical: the non-blocking grant is ``EnginePool.take``.)

None of these tests sleeps: a gated device and a spy pool's events are
the only synchronisation (every ``wait`` carries a timeout purely so a
regression fails instead of hanging the suite).  The regression tests
for a synchronous dispatch failure (stuck backlog) live here too.
"""

import sys
import threading

import pytest

from repro.errors import CrashedDeviceError, EngineClosedError
from repro.obs.metrics import M
from repro.service.admission import TenantSpec
from repro.service.driver import counter_total
from repro.service.pool import EnginePool, EngineSpec
from repro.service.service import CheckpointService
from repro.storage.pmem import SimulatedPMEM
from repro.storage.ssd import InMemorySSD

WAIT = 10.0  # safety bound on every event wait; never the expected path


def pmem_spec(**overrides):
    defaults = dict(capacity_bytes=8192, backend="pmem", num_chunks=4,
                    chunk_size=8192)
    defaults.update(overrides)
    return EngineSpec(**defaults)


class SpyPool(EnginePool):
    """Logs ticket traffic in order and flags a ``take`` that found no
    room."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.events = []
        self.saturated = threading.Event()
        #: One permit per ``take`` that found no seat with room.
        self.misses = threading.Semaphore(0)
        #: Every lease a ``take`` handed out, in order.
        self.leases = []

    def acquire(self, *, timeout=None, tag="anonymous"):
        self.events.append(
            ("acquire", threading.current_thread().name, timeout)
        )
        return super().acquire(timeout=timeout, tag=tag)

    def take(self, tickets=1, *, tag="anonymous"):
        lease = super().take(tickets, tag=tag)
        self.events.append(("take", tag, lease is not None))
        if lease is None:
            self.saturated.set()
            self.misses.release()
        else:
            self.leases.append(lease)
        return lease

    def release(self, lease):
        super().release(lease)
        self.events.append(("release", lease.tag))


class Gated:
    """Device mixin: durability barriers block while ``gate`` is clear,
    writes while ``write_gate`` is clear; ``written`` collects the first
    bytes of each write."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.gate.set()
        self.blocked = threading.Event()
        self.write_gate = threading.Event()
        self.write_gate.set()
        self.write_blocked = threading.Event()
        self.written = set()
        self.wrote = threading.Condition()

    def write(self, offset, data):
        if not self.write_gate.is_set():
            self.write_blocked.set()
            assert self.write_gate.wait(WAIT)
        super().write(offset, data)
        with self.wrote:
            self.written.add(bytes(memoryview(data)[:8]))
            self.wrote.notify_all()

    def persist(self, offset, length):
        if not self.gate.is_set():
            self.blocked.set()
            assert self.gate.wait(WAIT)
        super().persist(offset, length)

    def wait_written(self, prefix):
        with self.wrote:
            return self.wrote.wait_for(lambda: prefix in self.written, WAIT)


class GatedPMEM(Gated, SimulatedPMEM):
    """Every writer share fences, so a closed gate holds the writers."""


class GatedSSD(Gated, InMemorySSD):
    """Writes land unfenced; a closed gate holds the commit's fence."""


def dispatcher_acquires(pool):
    return [event for event in pool.events
            if event[0] == "acquire" and event[1].endswith("-dispatcher")]


def tickets_out(events):
    """Running count of tickets out after each granted ``take`` or
    release in ``events`` (one ticket each: the dispatcher's grants)."""
    held, counts = 0, []
    for event in events:
        if event[0] == "take" and event[2]:
            held += 1
        elif event[0] == "release":
            held -= 1
        else:
            continue
        counts.append(held)
    return counts


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
        # Every granted ticket is given back once, and the one seat
        # never holds more than its N = 2 tickets.
        counts = tickets_out(pool.events)
        assert all(0 <= held <= 2 for held in counts)
        assert counts[-1] == 0
        assert len(counts) == 2 * len(tickets)

    def test_try_acquire_on_saturated_pool_does_not_wait(self):
        with EnginePool(pmem_spec(), size=1) as pool:
            holder = pool.acquire(tag="holder")

            def no_wait(timeout=None):
                raise AssertionError("take waited on the pool")

            pool._available.wait = no_wait
            assert pool.take(1, tag="late") is None
            holder.release()


class TestRetireBeforeDispatch:
    def test_first_ticket_settles_before_second_dispatch(self):
        spec = pmem_spec(num_concurrent=2)
        device = GatedPMEM(1 << 20)
        pool = SpyPool(spec, size=1, devices=(device,), name="spy")
        pool.acquire(tag="prebuild").release()  # format with the gate open
        order = pool.events
        with CheckpointService(pool, owns_pool=True, name="svc") as service:
            service.register(TenantSpec(name="a", capacity_bytes=8192,
                                        slots=3, max_queue=2))
            device.gate.clear()
            tickets = []
            for step in (1, 2, 3):
                ticket = service.checkpoint_async("a", bytes([step]) * 4096,
                                                  step=step)
                ticket.add_done_callback(
                    lambda t, step=step: order.append(("settled", step)))
                tickets.append(ticket)
                if step == 1:
                    assert device.blocked.wait(WAIT)
            # Request 2 shared the one seat; request 3 found it full.
            assert pool.misses.acquire(timeout=WAIT)
            assert not any(t.done() for t in tickets)
            device.gate.set()
            assert all(t.result(WAIT).committed for t in tickets)
            snapshot = service.metrics()
        order = order[order.index(("take", "svc:a", True)):]
        assert order[:3] == [
            ("take", "svc:a", True),    # request 1 takes the engine
            ("take", "svc:a", True),    # request 2 shares its seat
            ("take", "svc:a", False),   # request 3: seat full, parks
        ]
        # Request 1 retires -- its ticket settles -- and only then is the
        # parked request 3 dispatched.
        rest = order[3:]
        un_park = next(i for i, e in enumerate(rest) if e[0] == "take")
        assert ("settled", 1) in rest[:un_park]
        assert counter_total(snapshot, M.SERVICE_DISPATCH_PARKED) == 1
        assert dispatcher_acquires(pool) == []


class TestSeatSharing:
    def test_tenants_share_a_seat_and_the_next_request_parks(self):
        spec = pmem_spec(num_concurrent=2)
        device = GatedSSD(1 << 20)
        pool = SpyPool(spec, size=1, devices=(device,), name="spy")
        pool.acquire(tag="prebuild").release()  # format with the gate open
        del pool.leases[:]
        with CheckpointService(pool, owns_pool=True, name="svc") as service:
            for name in "abc":
                service.register(TenantSpec(name=name, capacity_bytes=8192,
                                            slots=1, max_queue=2))
            device.gate.clear()
            first = service.checkpoint_async("a", b"A" * 4096, step=1)
            assert device.blocked.wait(WAIT)
            second = service.checkpoint_async("b", b"B" * 4096, step=1)
            # b's checkpoint runs on a's seat while a sits at its fence:
            # its payload is on the device, its commit queued behind a's.
            assert device.wait_written(b"B" * 8)
            third = service.checkpoint_async("c", b"C" * 4096, step=1)
            assert pool.misses.acquire(timeout=WAIT)
            assert not any(t.done() for t in (first, second, third))
            assert b"C" * 8 not in device.written
            device.gate.set()
            for ticket in (first, second, third):
                assert ticket.result(WAIT).committed
            assert service.drain(WAIT)
            snapshot = service.metrics()
        assert counter_total(snapshot, M.SERVICE_DISPATCH_PARKED) == 1
        # a and b held the one seat's two tickets at once; c's ticket
        # came only after one of theirs was back.
        a, b, c = pool.leases
        assert a.stack is b.stack is c.stack
        granted = [e for e in pool.events if e[0] in ("take", "release")]
        assert tickets_out(granted[1:])[:3] == [1, 2, 1]  # after prebuild
        assert pool.events[-1][0] == "release"

    def test_dedicated_tenants_hammer_one_seat_without_supersedes(self):
        rounds, names = 60, ("a", "b", "c")
        pool = SpyPool(pmem_spec(num_concurrent=2), size=1, name="spy")
        service = CheckpointService(pool, owns_pool=True, name="svc")
        for name in names:
            service.register(TenantSpec(name=name, capacity_bytes=8192,
                                        slots=1, max_queue=2))
        tickets = []
        for step in range(rounds):
            batch = [service.checkpoint_async(name, name.encode() * 4096,
                                              step=step) for name in names]
            tickets.extend(batch)
            results = [ticket.result(WAIT) for ticket in batch]
            assert all(result.committed for result in results), step
        assert service.drain(WAIT)
        snapshot = service.metrics()
        for name in names:
            assert counter_total(snapshot, M.TENANT_SUPERSEDED,
                                 tenant=name) == 0
            assert service.latest(name)[0] == rounds - 1
        report = service.close()
        assert report["leaked_slots"] == 0 and report["leaked_buffers"] == 0
        # The three tenants' tickets overlapped on the one seat.
        assert max(tickets_out(pool.events)) == 2
        assert dispatcher_acquires(pool) == []


class TestDeadSeat:
    def test_a_crashed_seat_takes_no_ticket_and_is_rebuilt(self):
        """The device crashes on the first of two shared tickets' fences:
        the sibling fails with a typed error, a request arriving while
        the dead seat still drains parks instead of joining it, and the
        seat is retired and rebuilt once its last ticket is back."""
        spec = pmem_spec(num_concurrent=2)
        device = GatedSSD(1 << 20)
        pool = SpyPool(spec, size=1, devices=(device,), name="spy")
        pool.acquire(tag="prebuild").release()  # format with the gates open
        del pool.leases[:]
        service = CheckpointService(pool, owns_pool=True, name="svc")
        for name in "abc":
            service.register(TenantSpec(name=name, capacity_bytes=8192,
                                        slots=1, max_queue=2))
        device.gate.clear()
        first = service.checkpoint_async("a", b"A" * 4096, step=1)
        assert device.blocked.wait(WAIT)
        device.write_gate.clear()
        sibling = service.checkpoint_async("b", b"B" * 4096, step=1)
        assert device.write_blocked.wait(WAIT)  # b is on a's seat
        device.crash()
        device.gate.set()
        with pytest.raises(CrashedDeviceError):
            first.result(WAIT)
        dead = pool.leases[0]
        assert dead.stack.defunct
        late = service.checkpoint_async("c", b"C" * 4096, step=1)
        assert pool.misses.acquire(timeout=WAIT)  # c found the seat dead
        assert not late.done()
        device.write_gate.set()
        with pytest.raises(CrashedDeviceError):
            sibling.result(WAIT)
        assert late.result(WAIT).committed
        assert service.drain(WAIT)
        rebuilt = pool.leases[-1]
        assert len(pool.leases) == 3  # a and b on the dead seat, then c
        assert pool.leases[1].stack is dead.stack
        assert rebuilt.stack is not dead.stack
        assert rebuilt.stack.device is not device
        assert dead.stack.orchestrator.fatal_error is not None
        assert service.tenant_stats("a")["failures"] == 1
        assert service.tenant_stats("b")["failures"] == 1
        report = service.close()
        assert report["leaked_slots"] == 0 and report["leaked_buffers"] == 0


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
            assert pool._listeners == ()

    def test_release_racing_a_saturated_attempt_is_not_lost(self):
        """The seat is freed after ``take`` saw the pool full but before
        the dispatcher parks: with no later release to save it, the
        request must still be retried."""
        class RacingPool(EnginePool):
            outside = None

            def take(self, tickets=1, *, tag="anonymous"):
                lease = super().take(tickets, tag=tag)
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
        ``take`` must never leave the request parked."""
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
                assert pool.leak_report()["leased"] == 0
        finally:
            sys.setswitchinterval(interval)

    def test_two_services_share_one_seat_map(self):
        """Two services on one borrowed pool, submitting from more
        threads than cores: their tickets share the pool's one map, so
        no seat ever holds more than N, every request commits, and the
        map is back to zero with nothing leaked."""
        rounds, interval = 30, sys.getswitchinterval()

        class PeakPool(EnginePool):
            peak = 0

            def take(self, tickets=1, *, tag="anonymous"):
                lease = super().take(tickets, tag=tag)
                with self._lock:
                    self.peak = max(self.peak, *self._tickets)
                return lease

        sys.setswitchinterval(1e-5)
        try:
            pool = PeakPool(pmem_spec(num_concurrent=2), size=2)
            services = [CheckpointService(pool, name=f"svc{i}")
                        for i in range(2)]
            for service in services:
                for name in "ab":
                    service.register(TenantSpec(name=name,
                                                capacity_bytes=8192,
                                                slots=1, max_queue=rounds))
            results = []

            def submit(service, name):
                tickets = [service.checkpoint_async(name, b"v" * 512,
                                                    step=step)
                           for step in range(rounds)]
                results.extend(t.result(WAIT) for t in tickets)

            threads = [threading.Thread(target=submit, args=(service, name))
                       for service in services for name in "ab"]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(WAIT)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == 4 * rounds
            assert all(result.committed for result in results)
            for service in services:
                assert service.drain(WAIT)
                service.close()
            assert 1 <= pool.peak <= 2
            assert pool._tickets == [0, 0]
            report = pool.close()
            assert report["leaked_slots"] == 0
            assert report["leaked_buffers"] == 0
        finally:
            sys.setswitchinterval(interval)


class TestSynchronousDispatchFailure:
    def test_backlog_is_promoted_after_a_failed_dispatch(self):
        """Regression: the failed request's headroom went back to the
        tenant but its backlog was never promoted, so the queued ticket
        never settled and drain()/close() hung."""
        with EnginePool(pmem_spec(), size=1, name="shared") as pool:
            outside = pool.acquire(tag="outsider")
            real = outside.stack.orchestrator.checkpoint_async
            calls = []

            def refuse_once(source, step=0):
                calls.append(step)
                if len(calls) == 1:
                    raise RuntimeError("engine refused")
                return real(source, step=step)

            outside.stack.orchestrator.checkpoint_async = refuse_once
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
            assert pool.leak_report()["leased"] == 0

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
