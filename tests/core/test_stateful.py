"""Hypothesis stateful tests: queue, engine and the engine pool's seat
map against reference models."""

from collections import deque

import hypothesis.strategies as st
import pytest
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.engine import CheckpointEngine
from repro.core.freelist import EMPTY, SlotQueue
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.recovery import try_recover
from repro.core.snapshot import BytesSource
from repro.errors import CrashedDeviceError, EngineClosedError, ServiceError
from repro.service.pool import EnginePool, EngineSpec
from repro.storage.ssd import InMemorySSD

PAYLOAD_CAPACITY = 256


class SlotQueueMachine(RuleBasedStateMachine):
    """Sequential SlotQueue behaviour must match collections.deque."""

    @initialize(capacity=st.integers(1, 6))
    def setup(self, capacity):
        self.capacity = capacity
        self.queue = SlotQueue(capacity)
        self.model = deque()

    @precondition(lambda self: len(self.model) < self.capacity)
    @rule(value=st.integers(0, 100))
    def enqueue(self, value):
        self.queue.enqueue(value)
        self.model.append(value)

    @rule()
    def dequeue(self):
        got = self.queue.dequeue()
        expected = self.model.popleft() if self.model else EMPTY
        assert got == expected

    @invariant()
    def length_matches(self):
        if hasattr(self, "model"):
            assert len(self.queue) == len(self.model)


TestSlotQueueStateful = SlotQueueMachine.TestCase
TestSlotQueueStateful.settings = __import__("hypothesis").settings(
    max_examples=60, deadline=None, stateful_step_count=40
)


class EngineMachine(RuleBasedStateMachine):
    """Sequential engine operations against a simple reference model.

    Model state: the payload/step of the newest committed checkpoint.
    After every operation, recovery must return exactly that.
    Aborted tickets and crashes of unpersisted state must never disturb
    it.  The device is crashed and recovered between some operations to
    exercise the durable path rather than the cache view.
    """

    @initialize(num_slots=st.integers(2, 5))
    def setup(self, num_slots):
        slot_size = PAYLOAD_CAPACITY + RECORD_SIZE
        geometry = Geometry(num_slots=num_slots, slot_size=slot_size)
        self.device = InMemorySSD(capacity=geometry.total_size)
        layout = DeviceLayout.format(
            self.device, num_slots=num_slots, slot_size=slot_size
        )
        self.engine = CheckpointEngine(layout, writer_threads=2)
        self.step = 0
        self.committed_payload = None
        self.committed_step = None
        self.open_tickets = []

    def _payload(self):
        return f"step-{self.step}".encode().ljust(64, b".")

    @rule()
    def checkpoint(self):
        self.step += 1
        payload = self._payload()
        result = self.engine.checkpoint(payload, step=self.step)
        assert result.committed  # sequential: nothing can supersede it
        self.committed_payload = payload
        self.committed_step = self.step
        self._drop_open_tickets()

    @rule(chunks=st.lists(st.binary(min_size=1, max_size=40), min_size=1,
                          max_size=3))
    def streamed_checkpoint(self, chunks):
        self.step += 1
        ticket = self.engine.begin(step=self.step)
        for chunk in chunks:
            ticket.write_chunk(chunk)
        result = ticket.commit()
        assert result.committed
        self.committed_payload = b"".join(chunks)
        self.committed_step = self.step

    @rule()
    def abort_a_ticket(self):
        self.step += 1
        ticket = self.engine.begin(step=self.step)
        ticket.write_chunk(b"partial-data-never-committed")
        ticket.abort()

    @rule()
    def crash_and_recover_device(self):
        self.device.crash()
        self.device.recover()

    def _drop_open_tickets(self):
        self.open_tickets = []

    @invariant()
    def recovery_matches_model(self):
        if not hasattr(self, "engine"):
            return
        recovered = try_recover(self.engine.layout)
        if self.committed_payload is None:
            assert recovered is None
        else:
            assert recovered is not None
            assert recovered.payload == self.committed_payload
            assert recovered.meta.step == self.committed_step


TestEngineStateful = EngineMachine.TestCase
TestEngineStateful.settings = __import__("hypothesis").settings(
    max_examples=40, deadline=None, stateful_step_count=30
)


class SeatMapMachine(RuleBasedStateMachine):
    """``EnginePool``'s ticket map against a model of the dispatch
    policy: a grant of k tickets goes to an idle built seat, else an
    unbuilt one, else the live seat with the fewest tickets that has
    room for k; a defunct (crashed) seat takes none, and a seat whose
    last ticket came back takes none until its drain has returned."""

    @initialize(size=st.integers(1, 3), concurrent=st.integers(1, 3))
    def setup(self, size, concurrent):
        self.n = concurrent
        self.spec = EngineSpec(capacity_bytes=512, backend="pmem",
                               writer_threads=1, num_concurrent=concurrent)
        self.step = 0
        self.open(size)

    def open(self, size):
        self.pool = EnginePool(self.spec, size)
        #: Model: tickets out, built and crashed, per seat.
        self.count = [0] * size
        self.built = [False] * size
        self.dead = [False] * size
        self.leases = []

    def expected_seat(self, tickets):
        seats = range(len(self.count))
        idle = [i for i in seats if self.built[i] and not self.count[i]]
        unbuilt = [i for i in seats if not self.built[i]]
        room = [i for i in seats if self.built[i] and not self.dead[i]
                and 0 < self.count[i] <= self.n - tickets]
        if idle or unbuilt:
            return (idle or unbuilt)[0]
        return min(room, key=self.count.__getitem__, default=None)

    def grant(self, tickets):
        expected = self.expected_seat(tickets)
        lease = self.pool.take(tickets, tag=f"k{tickets}")
        if expected is None:
            assert lease is None
            return
        assert lease is not None and lease.stack.index == expected
        assert not lease.stack.defunct
        self.count[expected] += tickets
        self.built[expected] = True
        self.leases.append(lease)

    @rule()
    def take_one(self):
        self.grant(1)

    @rule()
    def take_whole_seat(self):
        self.grant(self.n)

    @precondition(lambda self: self.leases)
    @rule(data=st.data(), twice=st.booleans())
    def give_back(self, data, twice):
        lease = data.draw(st.sampled_from(self.leases))
        index = lease.stack.index
        self.leases.remove(lease)
        self.count[index] -= lease.tickets
        if not self.count[index]:
            # The seat's last ticket: while its stack drains, no grant
            # may pick it (the pool lock is free meanwhile).
            drain = lease.stack.orchestrator.drain
            picked = []

            def probe(*args, **kwargs):
                with self.pool._lock:
                    picked.append(self.pool._pick_locked(1))
                return drain(*args, **kwargs)

            lease.stack.orchestrator.drain = probe
            if self.dead[index]:
                self.built[index] = self.dead[index] = False
        lease.release()
        if twice:
            lease.release()  # idempotent: gives nothing back again
        if not self.count[index]:
            del lease.stack.orchestrator.drain  # the class's own again
            assert picked and picked[0] != index

    @precondition(lambda self: any(
        count and not dead for count, dead in zip(self.count, self.dead)))
    @rule(data=st.data())
    def crash_a_seat(self, data):
        live = [lease for lease in self.leases
                if not self.dead[lease.stack.index]]
        stack = data.draw(st.sampled_from(live)).stack
        stack.device.crash()
        self.step += 1
        handle = stack.orchestrator.checkpoint_async(
            BytesSource(b"x" * 64), step=self.step)
        with pytest.raises(CrashedDeviceError):
            handle.wait(10)
        assert stack.defunct
        self.dead[stack.index] = True

    @rule()
    def close(self):
        if any(self.count):
            with pytest.raises(ServiceError):
                self.pool.close()
            return
        report = self.pool.close()
        assert report["leaked_slots"] == 0
        assert report["leaked_buffers"] == 0
        assert self.pool.close() == report
        with pytest.raises(EngineClosedError):
            self.pool.take(1)
        self.open(len(self.count))  # the next pool's life

    @invariant()
    def counts_match_the_model_and_stay_in_bounds(self):
        if hasattr(self, "pool"):
            assert self.pool._tickets == self.count
            assert all(0 <= count <= self.n for count in self.count)

    @invariant()
    def leak_report_is_clean_at_quiescence(self):
        if hasattr(self, "pool") and not any(self.count):
            report = self.pool.leak_report()
            assert report["leased"] == 0
            assert report["leaked_slots"] == 0
            assert report["leaked_buffers"] == 0

    def teardown(self):
        if hasattr(self, "pool"):
            for lease in self.leases:
                lease.release()
            self.pool.close()


TestSeatMapStateful = SeatMapMachine.TestCase
TestSeatMapStateful.settings = __import__("hypothesis").settings(
    max_examples=100, deadline=None, stateful_step_count=40
)
