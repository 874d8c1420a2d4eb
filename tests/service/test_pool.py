"""EnginePool unit tests: ticket grants, saturation, retirement, leaks."""

import os

import pytest

from repro.core.snapshot import BytesSource
from repro.core.recovery import recover
from repro.errors import (
    ConfigError,
    CorruptCheckpointError,
    EngineClosedError,
    LayoutError,
    ServiceError,
    ServiceSaturated,
)
from repro.service.pool import (
    EnginePool,
    EngineSpec,
    open_existing_region,
)
from repro.storage.pmem import SimulatedPMEM


def pmem_spec(**overrides):
    defaults = dict(capacity_bytes=4096, backend="pmem")
    defaults.update(overrides)
    return EngineSpec(**defaults)


class TestEngineSpec:
    def test_bad_backend_message_is_consistent(self):
        with pytest.raises(ConfigError, match="unknown backend 'tape'"):
            EngineSpec(capacity_bytes=4096, backend="tape")

    def test_bad_observability_rejected(self):
        with pytest.raises(ConfigError, match="unknown observability level"):
            EngineSpec(capacity_bytes=4096, backend="pmem",
                       observability="loud")

    def test_invalid_engine_config_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            EngineSpec(capacity_bytes=0, backend="pmem")

    def test_persist_bandwidth_rejected_for_ssd(self, tmp_path):
        with pytest.raises(ConfigError):
            EngineSpec(capacity_bytes=4096, backend="ssd",
                       path=str(tmp_path / "r.pc"),
                       persist_bandwidth=1e9)

    def test_ssd_requires_path(self):
        spec = EngineSpec(capacity_bytes=4096, backend="ssd")
        with pytest.raises(ConfigError):
            spec.validate_buildable()

    def test_member_path_suffixing(self, tmp_path):
        spec = EngineSpec(capacity_bytes=4096, backend="ssd",
                          path=str(tmp_path / "r.pc"))
        # A one-engine pool must keep the user's path verbatim so the
        # region can be reopened by the recovery CLI.
        assert spec.member_path(0, 1) == str(tmp_path / "r.pc")
        assert spec.member_path(1, 3).endswith("r.pc.e1")


def built(pool):
    """Stacks the pool holds assembled."""
    return len(pool.leak_report()["engines"])


def leased(pool):
    """Seats holding at least one ticket."""
    return pool.leak_report()["leased"]


class TestEnginePool:
    def test_engines_build_lazily(self):
        with EnginePool(pmem_spec(), size=3) as pool:
            assert built(pool) == 0
            lease = pool.acquire(tag="t0")
            assert built(pool) == 1
            assert leased(pool) == 1
            lease.release()
            assert leased(pool) == 0
            # Released engine is recycled, not rebuilt.
            again = pool.acquire(tag="t1")
            assert built(pool) == 1
            again.release()

    def test_lease_is_usable_checkpointer_stack(self):
        with EnginePool(pmem_spec()) as pool:
            with pool.acquire(tag="writer") as lease:
                result = lease.stack.orchestrator.checkpoint_sync(
                    BytesSource(b"hello"), step=7
                )
                assert result.committed

    def test_saturation_raises_typed_backpressure(self):
        with EnginePool(pmem_spec(), size=1) as pool:
            lease = pool.acquire(tag="holder")
            with pytest.raises(ServiceSaturated) as excinfo:
                pool.acquire(timeout=0.01, tag="late")
            assert excinfo.value.reason == "pool_exhausted"
            assert "holder" in str(excinfo.value)
            lease.release()
            pool.acquire(tag="late").release()

    def test_release_is_idempotent(self):
        with EnginePool(pmem_spec()) as pool:
            lease = pool.acquire(tag="t")
            lease.release()
            lease.release()
            assert leased(pool) == 0
            # A repeated release of a share gives nothing back twice.
            first, second = pool.take(1, tag="a"), pool.take(1, tag="b")
            assert first.stack is second.stack
            first.release()
            first.release()
            assert leased(pool) == 1
            third = pool.take(1, tag="c")  # room for exactly one more
            assert third is not None and pool.take(1, tag="d") is None
            second.release()
            third.release()

    def test_close_refuses_with_active_leases(self):
        pool = EnginePool(pmem_spec())
        lease = pool.acquire(tag="busy")
        with pytest.raises(ServiceError, match="busy"):
            pool.close()
        lease.release()
        share = pool.take(1, tag="sharer")
        with pytest.raises(ServiceError, match="sharer"):
            pool.close()
        share.release()
        report = pool.close()
        assert report["leaked_slots"] == 0
        assert report["leaked_buffers"] == 0
        assert report["unreleased_buffers"] == 0

    def test_acquire_after_close_raises(self):
        pool = EnginePool(pmem_spec())
        pool.close()
        with pytest.raises(EngineClosedError):
            pool.acquire()

    def test_close_is_idempotent(self):
        pool = EnginePool(pmem_spec())
        pool.acquire(tag="t").release()
        first = pool.close()
        assert pool.close() == first

    def test_committed_slot_is_not_a_leak(self):
        """A committed checkpoint pins one slot by design (N+1 scheme);
        the leak report must not count it."""
        pool = EnginePool(pmem_spec())
        with pool.acquire(tag="t") as lease:
            lease.stack.orchestrator.checkpoint_sync(BytesSource(b"v"), step=1)
        report = pool.close()
        assert report["leaked_slots"] == 0

    def test_defunct_stack_is_retired_not_recycled(self):
        with EnginePool(pmem_spec(), size=1) as pool:
            lease = pool.acquire(tag="t")
            first_orch = lease.stack.orchestrator
            first_orch._fatal = RuntimeError("simulated device death")
            lease.release()
            # The poisoned stack was closed and its seat freed; the next
            # acquire builds a fresh one instead of handing back the corpse.
            fresh = pool.acquire(tag="t2")
            assert fresh.stack.orchestrator is not first_orch
            assert fresh.stack.orchestrator.fatal_error is None
            fresh.release()

    def test_injected_device_is_used(self):
        device = SimulatedPMEM(capacity=1 << 20)
        spec = pmem_spec(capacity_bytes=4096)
        with EnginePool(spec, size=1, devices=(device,)) as pool:
            with pool.acquire(tag="t") as lease:
                assert lease.stack.device is device


class TestTryAcquireAndListeners:
    """``take`` is the non-blocking grant (the names are historical:
    it replaced ``try_acquire``) and the release listeners its wake-up."""

    def test_try_acquire_builds_then_recycles(self):
        with EnginePool(pmem_spec(), size=2) as pool:
            whole = 2  # pmem_spec()'s num_concurrent: the whole seat
            first = pool.take(whole, tag="a")  # builds an unbuilt seat
            second = pool.take(whole, tag="b")
            assert first is not None and second is not None
            assert built(pool) == 2 and leased(pool) == 2
            assert pool.take(1, tag="c") is None
            # The pool knows its holders by tag.
            with pytest.raises(ServiceSaturated, match="holders: a, b"):
                pool.acquire(timeout=0.01, tag="c")
            first.release()
            again = pool.take(whole, tag="c")
            assert again is not None and again.stack is first.stack
            again.release()
            second.release()

    def test_take_asks_for_one_to_n_tickets(self):
        with EnginePool(pmem_spec(num_concurrent=2)) as pool:
            for tickets in (0, 3):
                with pytest.raises(ConfigError, match="grants 1 to 2 tickets"):
                    pool.take(tickets)

    def test_try_acquire_after_close_raises(self):
        pool = EnginePool(pmem_spec())
        pool.close()
        with pytest.raises(EngineClosedError):
            pool.take(1)

    def test_listener_runs_on_release_outside_the_pool_lock(self):
        with EnginePool(pmem_spec(), size=1) as pool:
            seen = []

            def listener():
                # The lock is not re-entrant: holding it here would
                # both fail this probe and deadlock leak_report().
                free = pool._lock.acquire(blocking=False)
                if free:
                    pool._lock.release()
                seen.append((free, leased(pool)))

            pool.add_release_listener(listener)
            lease = pool.acquire(tag="t")
            assert seen == []
            lease.release()
            assert seen == [(True, 0)]
            lease.release()  # idempotent: no second notification
            assert seen == [(True, 0)]
            pool.remove_release_listener(listener)
            pool.acquire(tag="t").release()
            assert seen == [(True, 0)]

    def test_raising_listener_cannot_wedge_release(self):
        with EnginePool(pmem_spec(), size=1) as pool:
            calls = []

            def bad():
                calls.append("bad")
                raise RuntimeError("listener bug")

            pool.add_release_listener(bad)
            pool.add_release_listener(lambda: calls.append("after"))
            pool.acquire(tag="t").release()
            assert calls == ["bad", "after"]
            assert str(pool.listener_error) == "listener bug"
            assert leased(pool) == 0
            pool.acquire(tag="t").release()  # the seat really came back

    def test_failed_build_hands_the_seat_back_and_notifies(self, tmp_path):
        spec = EngineSpec(capacity_bytes=4096, backend="ssd",
                          path=str(tmp_path / "missing" / "r.pc"))
        pool = EnginePool(spec, size=1)
        freed = []
        pool.add_release_listener(
            lambda: freed.append((leased(pool), built(pool))))
        with pytest.raises(OSError):
            pool.take(1, tag="t")
        assert freed == [(0, 0)]
        (tmp_path / "missing").mkdir()
        pool.take(1, tag="t").release()
        pool.close()


class TestOpenExistingRegion:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "r.pc")
        spec = EngineSpec(capacity_bytes=4096, backend="ssd", path=path)
        with EnginePool(spec, size=1) as pool:
            with pool.acquire(tag="t") as lease:
                lease.stack.orchestrator.checkpoint_sync(BytesSource(b"abc"), step=3)
        device, layout = open_existing_region(path)
        try:
            assert layout.num_slots >= 2
        finally:
            device.close()

    def test_missing_file_raises(self, tmp_path):
        path = str(tmp_path / "nope.pc")
        with pytest.raises(LayoutError, match="no checkpoint region") as info:
            open_existing_region(path)
        assert path in str(info.value)
        assert ".s0" not in str(info.value)

    def _write_striped(self, path, members=3):
        spec = EngineSpec(capacity_bytes=65536, backend="ssd", path=path,
                          stripe_devices=members, stripe_size=4096)
        with EnginePool(spec, size=1) as pool:
            with pool.acquire(tag="t") as lease:
                lease.stack.orchestrator.checkpoint_sync(
                    BytesSource(b"striped!" * 999), step=4
                )
        assert not os.path.exists(path) and os.path.exists(f"{path}.s0")

    def test_striped_base_path_discovers_its_members(self, tmp_path):
        path = str(tmp_path / "striped.pc")
        self._write_striped(path)
        device, layout = open_existing_region(path)
        try:
            assert len(device.members) == 3  # read off member 0's manifest
            found = recover(layout)
            assert found.meta.step == 4
            assert found.payload == b"striped!" * 999
        finally:
            device.close()

    def test_striped_set_missing_or_reordered_member_is_typed(self, tmp_path):
        path = str(tmp_path / "striped.pc")
        self._write_striped(path)
        os.rename(f"{path}.s1", f"{path}.tmp")
        with pytest.raises(CorruptCheckpointError, match=r"striped\.pc\.s1"):
            open_existing_region(path)
        os.rename(f"{path}.s2", f"{path}.s1")
        os.rename(f"{path}.tmp", f"{path}.s2")
        with pytest.raises(CorruptCheckpointError, match=r"s1 claims index 2"):
            open_existing_region(path)


class TestUnformattedRegionFile:
    """A file whose superblock sector is all zero was sized but never
    formatted — a process killed inside its first format leaves one — so
    opening it formats it; a non-zero foreign superblock is refused."""

    def test_truncated_fresh_file_opens_and_formats(self, tmp_path):
        from repro import open_checkpointer

        path = str(tmp_path / "blank.pc")
        with open(path, "wb") as fh:
            fh.truncate(1 << 20)
        with open_checkpointer(path, capacity_bytes=4096) as ck:
            assert ck.recovered is None
            assert ck.checkpoint(b"fresh", step=1).committed
        with open_checkpointer(path, capacity_bytes=4096) as ck:
            assert ck.recovered.meta.step == 1
            assert bytes(ck.recovered.payload) == b"fresh"

    def test_striped_set_without_a_superblock_formats(self, tmp_path):
        from repro import open_checkpointer
        from repro.storage.ssd import FileBackedSSD
        from repro.storage.striped import StripedDevice

        path = str(tmp_path / "blank.pc")
        members = [FileBackedSSD(f"{path}.s{i}", capacity=1 << 20)
                   for i in range(2)]
        StripedDevice.create(members, stripe_size=4096).close()
        with open_checkpointer(path, capacity_bytes=4096, stripe_devices=2,
                               stripe_size=4096) as ck:
            assert ck.recovered is None
            assert ck.checkpoint(b"fresh", step=1).committed

    def test_file_of_random_bytes_is_still_refused(self, tmp_path):
        from repro import open_checkpointer

        path = str(tmp_path / "random.pc")
        with open(path, "wb") as fh:
            fh.write(os.urandom(1 << 20))
        with pytest.raises(LayoutError, match="not a PCcheck region"):
            open_checkpointer(path, capacity_bytes=4096)


class TestRefusedRegionLeaksNothing:
    @pytest.mark.parametrize("tiers", [None, True], ids=["plain", "tiered"])
    def test_failed_open_closes_what_it_opened(self, tmp_path, tiers):
        from repro import open_checkpointer

        path = str(tmp_path / "garbage.pc")
        with open(path, "wb") as fh:
            fh.write(b"\xff" * 65536)
        open_fds = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            with pytest.raises(LayoutError):
                open_checkpointer(path, capacity_bytes=4096, tiers=tiers)
        assert len(os.listdir("/proc/self/fd")) == open_fds
        # The colder tiers only come into being beside an accepted region.
        assert not os.path.exists(f"{path}.warm")


class TestBuildDevice:
    def test_backend_dispatch(self, tmp_path):
        with EnginePool(pmem_spec(), size=1) as pool:
            with pool.acquire(tag="t") as lease:
                assert isinstance(lease.stack.device, SimulatedPMEM)


class TestStripedAndUnbufferedSpec:
    def test_striping_requires_ssd_backend(self):
        with pytest.raises(ConfigError, match="backend='ssd'"):
            EngineSpec(capacity_bytes=4096, backend="pmem",
                       stripe_devices=2)

    def test_unbuffered_is_not_an_option(self):
        """Every ssd region writes through O_DIRECT; there is no knob to
        turn it on for a backend without a page cache, or off."""
        with pytest.raises(TypeError, match="unbuffered"):
            EngineSpec(capacity_bytes=4096, backend="pmem",
                       unbuffered=True)

    def test_stripe_size_must_be_sector_multiple(self, tmp_path):
        with pytest.raises(ConfigError, match="stripe"):
            EngineSpec(capacity_bytes=65536, backend="ssd",
                       path=str(tmp_path / "r.pc"),
                       stripe_devices=2, stripe_size=1000)

    def test_stripe_devices_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigError):
            EngineSpec(capacity_bytes=65536, backend="ssd",
                       path=str(tmp_path / "r.pc"), stripe_devices=0)

    def test_probe_path_and_align(self, tmp_path):
        base = str(tmp_path / "r.pc")
        plain = EngineSpec(capacity_bytes=65536, backend="ssd", path=base)
        assert plain.write_align() == 4096  # SECTOR_SIZE: O_DIRECT
        striped = EngineSpec(capacity_bytes=65536, backend="ssd",
                             path=base, stripe_devices=2,
                             stripe_size=8 * 4096)
        assert striped.write_align() == 8 * 4096
        for backend in ("pmem", "faults"):
            simulated = EngineSpec(capacity_bytes=65536, backend=backend)
            assert simulated.write_align() == 1

    def test_striped_pool_roundtrip_and_reopen(self, tmp_path):
        import os

        base = str(tmp_path / "r.pc")
        spec = EngineSpec(capacity_bytes=256 * 1024, backend="ssd",
                          path=base, stripe_devices=2, stripe_size=4096)
        with EnginePool(spec, size=1) as pool:
            with pool.acquire(tag="t") as lease:
                result = lease.stack.orchestrator.checkpoint_sync(
                    BytesSource(b"striped!" * 64), step=5
                )
                assert result.committed
        assert os.path.exists(base + ".s0")
        assert os.path.exists(base + ".s1")
        assert not os.path.exists(base)
        # Reopen: the pool must reassemble the stripe set, not reformat.
        with EnginePool(spec, size=1) as pool:
            with pool.acquire(tag="t2") as lease:
                assert lease.stack.recovered is not None
                assert lease.stack.recovered.payload == b"striped!" * 64
