"""CoalescingBatcher tests: group commit, latest-value supersede,
post-crash parse, and the close-while-in-flight drain ordering."""

import time

import pytest

from repro.core.snapshot import BytesSource
from repro.errors import AdmissionRejected, ServiceError
from repro.service.batching import CoalescingBatcher, parse_batch
from repro.service.pool import EnginePool, EngineSpec
from repro.service.service import ServiceTicket


def make_pool(persist_bandwidth=None, capacity_bytes=1 << 16, num_chunks=12):
    spec = EngineSpec(
        capacity_bytes=capacity_bytes,
        backend="pmem",
        persist_bandwidth=persist_bandwidth,
        num_chunks=num_chunks,
        chunk_size=capacity_bytes,
    )
    return EnginePool(spec, size=1, name="batch-test")


def ticket_for(name, step, payload):
    return ServiceTicket(name, step, len(payload))


class TestGroupCommit:
    def test_two_tenants_one_batch_roundtrip(self):
        with make_pool() as pool:
            batcher = CoalescingBatcher(pool.acquire(tag="batch"),
                                        window=0.001)
            try:
                batcher.register("alpha", 1024)
                batcher.register("beta", 1024)
                tickets = []
                for name, payload in (("alpha", b"A" * 100),
                                      ("beta", b"B" * 200)):
                    ticket = ticket_for(name, 1, payload)
                    batcher.submit(name, BytesSource(payload), 1, ticket)
                    tickets.append(ticket)
                for ticket in tickets:
                    assert ticket.result(timeout=5.0).committed
                entries = batcher.committed_entries()
                assert entries["alpha"].payload == b"A" * 100
                assert entries["beta"].payload == b"B" * 200
            finally:
                batcher.close()
            assert pool.leak_report()["leased"] == 0

    def test_carry_forward_makes_newest_batch_complete(self):
        """A batch carries every tenant's latest blob, so one committed
        batch is a full fleet snapshot even for tenants that were idle."""
        with make_pool() as pool:
            batcher = CoalescingBatcher(pool.acquire(tag="batch"),
                                        window=0.001)
            try:
                batcher.register("busy", 1024)
                batcher.register("idle", 1024)
                first = ticket_for("idle", 1, b"only-once")
                batcher.submit("idle", BytesSource(b"only-once"), 1, first)
                assert first.result(timeout=5.0).committed
                # Now only `busy` writes; `idle` must still appear.
                second = ticket_for("busy", 2, b"fresh")
                batcher.submit("busy", BytesSource(b"fresh"), 2, second)
                assert second.result(timeout=5.0).committed
                entries = batcher.committed_entries()
                assert entries["idle"].payload == b"only-once"
                assert entries["busy"].payload == b"fresh"
            finally:
                batcher.close()

    def test_batch_capacity_rejection_reason(self):
        with make_pool(capacity_bytes=8192, num_chunks=8) as pool:
            batcher = CoalescingBatcher(pool.acquire(tag="batch"))
            try:
                batcher.register("a", 4096)
                with pytest.raises(AdmissionRejected) as excinfo:
                    batcher.register("b", 4096)  # header overhead overflows
                assert excinfo.value.reason == "capacity"
            finally:
                batcher.close()


class TestLatestValueSemantics:
    def test_resubmission_supersedes_unbatched_predecessor(self):
        # Throttle the device so the first batch is still persisting when
        # two more submissions land; they coalesce into one later batch
        # where only the newest commits.
        with make_pool(persist_bandwidth=256e3,
                       capacity_bytes=1 << 16) as pool:
            batcher = CoalescingBatcher(pool.acquire(tag="batch"),
                                        window=0.001)
            try:
                batcher.register("t", 1 << 15)
                blocker = ticket_for("t", 1, b"v1" * (1 << 14))
                batcher.submit("t", BytesSource(b"1" * (1 << 15)), 1, blocker)
                time.sleep(0.05)  # batch 1 is now mid-persist
                stale = ticket_for("t", 2, b"2")
                fresh = ticket_for("t", 3, b"3")
                batcher.submit("t", BytesSource(b"2" * 64), 2, stale)
                batcher.submit("t", BytesSource(b"3" * 64), 3, fresh)
                assert blocker.result(timeout=10.0).committed
                stale_result = stale.result(timeout=10.0)
                fresh_result = fresh.result(timeout=10.0)
                assert fresh_result.committed
                assert stale_result.superseded
                assert not stale_result.committed
                entries = batcher.committed_entries()
                assert entries["t"].payload == b"3" * 64
                assert entries["t"].step == 3
            finally:
                batcher.close()


class TestCloseOrdering:
    """Satellite bugfix: close while a coalesced batch is in flight must
    drain the writer pool BEFORE releasing the pooled DRAM buffers."""

    def test_close_with_batch_in_flight_on_slow_device(self):
        with make_pool(persist_bandwidth=256e3,
                       capacity_bytes=1 << 16) as pool:
            lease = pool.acquire(tag="batch")
            dram = lease.stack.dram
            batcher = CoalescingBatcher(lease, window=0.001)
            batcher.register("t", 1 << 15)
            ticket = ticket_for("t", 1, b"v" * (1 << 15))
            batcher.submit("t", BytesSource(b"v" * (1 << 15)), 1, ticket)
            time.sleep(0.05)  # writers are mid-persist on the slow device
            batcher.close()  # must join the builder before freeing buffers
            # The in-flight batch either committed or was settled with an
            # error -- but its buffers were never yanked mid-write.
            assert ticket.done()
            assert batcher.fatal_error is None
            assert dram.free_chunks == dram.total_chunks
            assert pool.leak_report()["leased"] == 0
        # close() is idempotent: the exit above closed the pool.
        assert pool.close()["leaked_buffers"] == 0
        assert pool.close()["leaked_slots"] == 0
        assert pool.close()["unreleased_buffers"] == 0

    def test_submit_after_close_raises(self):
        with make_pool() as pool:
            batcher = CoalescingBatcher(pool.acquire(tag="batch"))
            batcher.register("t", 1024)
            batcher.close()
            with pytest.raises(ServiceError):
                batcher.submit("t", BytesSource(b"x"), 1,
                               ticket_for("t", 1, b"x"))


class TestParseBatch:
    def test_rejects_garbage(self):
        with pytest.raises(ServiceError):
            parse_batch(b"not a batch at all")
