"""Tests for the high-level open_checkpointer API (regression coverage
for region-reopen behaviour, plus the redesigned Checkpointer surface)."""

import os
import warnings

import pytest

from repro import Checkpointer, open_checkpointer
from repro.core.snapshot import BytesSource
from repro.errors import ConfigError


class TestOpenCheckpointer:
    def test_fresh_file_has_no_recovered_state(self, tmp_path):
        with open_checkpointer(str(tmp_path / "a.pc"),
                               capacity_bytes=4096) as ckpt:
            assert ckpt.recovered is None
            assert ckpt.engine.max_concurrent == 2  # default N

    def test_invalid_capacity_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            open_checkpointer(str(tmp_path / "a.pc"), capacity_bytes=0)

    def test_capacity_is_keyword_only(self, tmp_path):
        with pytest.raises(TypeError):
            open_checkpointer(str(tmp_path / "a.pc"), 4096)  # noqa: E501 - deliberate misuse

    def test_checkpoint_survives_reopen(self, tmp_path):
        path = str(tmp_path / "b.pc")
        with open_checkpointer(path, capacity_bytes=4096) as ckpt:
            ckpt.orchestrator.checkpoint_sync(BytesSource(b"v1"), step=1)
        with open_checkpointer(path, capacity_bytes=4096) as ckpt:
            assert ckpt.recovered is not None
            assert ckpt.recovered.payload == b"v1"

    def test_reopen_with_smaller_concurrency_does_not_shrink_region(
        self, tmp_path
    ):
        """Regression: reopening an N=3 region with the default N=2 used
        to truncate the file and amputate a slot."""
        path = str(tmp_path / "c.pc")
        with open_checkpointer(path, capacity_bytes=8192,
                               num_concurrent=3) as ckpt:
            ckpt.orchestrator.checkpoint_sync(BytesSource(b"keep"), step=1)
        size_before = os.path.getsize(path)
        with open_checkpointer(path, capacity_bytes=8192) as ckpt:  # N=2
            assert os.path.getsize(path) == size_before
            assert ckpt.recovered.payload == b"keep"
            # The opened layout keeps the on-disk geometry (4 slots).
            assert ckpt.layout.num_slots == 4

    def test_reopened_engine_continues_counters(self, tmp_path):
        path = str(tmp_path / "d.pc")
        with open_checkpointer(path, capacity_bytes=4096) as ckpt:
            ckpt.orchestrator.checkpoint_sync(BytesSource(b"one"), step=1)
            first_counter = ckpt.engine.committed().counter
        with open_checkpointer(path, capacity_bytes=4096) as ckpt:
            result = ckpt.orchestrator.checkpoint_sync(
                BytesSource(b"two"), step=2
            )
            assert result.counter > first_counter
            assert ckpt.recovered.meta.counter == first_counter

    def test_config_reflected_in_handle(self, tmp_path):
        with open_checkpointer(str(tmp_path / "e.pc"), capacity_bytes=4096,
                               num_concurrent=3, writer_threads=2,
                               chunk_size=1024, num_chunks=3) as ckpt:
            assert ckpt.config.num_concurrent == 3
            assert ckpt.config.writer_threads == 2
            assert ckpt.engine.writer_threads == 2
            assert ckpt.config.chunk_size == 1024


class TestCheckpointerSurface:
    """The redesigned delegation API: no .engine/.orchestrator needed."""

    def test_checkpoint_and_latest(self, tmp_path):
        with open_checkpointer(str(tmp_path / "f.pc"),
                               capacity_bytes=4096) as ckpt:
            result = ckpt.checkpoint(b"state-1", step=7)
            assert result.committed
            assert ckpt.latest().step == 7

    def test_checkpoint_async_accepts_bytes_and_sources(self, tmp_path):
        with open_checkpointer(str(tmp_path / "g.pc"),
                               capacity_bytes=4096) as ckpt:
            h1 = ckpt.checkpoint_async(b"raw bytes", step=1)
            h2 = ckpt.checkpoint_async(BytesSource(b"a source"), step=2)
            # wait() drains only what is still outstanding, and h1 may
            # have committed before h2 was submitted; the handles say
            # what happened to each.  Commits run in start order, so
            # neither supersedes the other.
            ckpt.wait()
            assert h1.wait(timeout=10).committed
            assert h2.wait(timeout=10).committed
            assert ckpt.latest().step == 2

    def test_checkpoint_accepts_numpy_state(self, tmp_path):
        # Any buffer-protocol object, not just bytes/bytearray/memoryview,
        # must be wrapped zero-copy on the way into the orchestrator.
        import numpy as np

        from repro.core.recovery import recover

        with open_checkpointer(str(tmp_path / "n.pc"),
                               capacity_bytes=4096) as ckpt:
            state = np.arange(512, dtype=np.float32)
            assert ckpt.checkpoint(state, step=4).committed
            recovered = recover(ckpt.layout)
            assert np.array_equal(
                np.frombuffer(recovered.payload, dtype=np.float32), state
            )

    def test_metrics_formats(self, tmp_path):
        with open_checkpointer(str(tmp_path / "h.pc"),
                               capacity_bytes=4096) as ckpt:
            ckpt.checkpoint(b"x", step=1)
            snap = ckpt.metrics()
            assert "pccheck_commits_total" in snap
            prom = ckpt.metrics("prometheus")
            assert "pccheck_commits_total 1" in prom
            assert "pccheck_device_ops_total" in prom  # device attached
            json_text = ckpt.metrics("json")
            assert "pccheck_bytes_persisted_total" in json_text
            with pytest.raises(ConfigError):
                ckpt.metrics("xml")

    def test_observability_off_detaches_devices(self, tmp_path):
        with open_checkpointer(str(tmp_path / "i.pc"), capacity_bytes=4096,
                               observability="off") as ckpt:
            ckpt.checkpoint(b"x", step=1)
            snap = ckpt.metrics()
            assert "pccheck_commits_total" in snap  # engine counters stay
            assert "pccheck_device_ops_total" not in snap
            assert ckpt.trace() == {"traceEvents": [],
                                    "displayTimeUnit": "ms"}

    def test_observability_full_records_spans(self, tmp_path):
        with open_checkpointer(str(tmp_path / "j.pc"), capacity_bytes=4096,
                               observability="full") as ckpt:
            ckpt.checkpoint(b"x", step=1)
            trace = ckpt.trace()
            names = {event["name"] for event in trace["traceEvents"]}
            assert {"checkpoint", "capture", "persist", "commit"} <= names

    def test_unknown_observability_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            open_checkpointer(str(tmp_path / "k.pc"), capacity_bytes=4096,
                              observability="verbose")


class TestBackends:
    def test_pmem_backend(self):
        with open_checkpointer(capacity_bytes=4096,
                               backend="pmem") as ckpt:
            assert ckpt.device.name == "pmem"
            assert ckpt.checkpoint(b"pm", step=1).committed

    def test_faults_backend_records_ops(self):
        with open_checkpointer(capacity_bytes=4096,
                               backend="faults") as ckpt:
            ckpt.checkpoint(b"ft", step=1)
            assert ckpt.device.op_log  # record_ops=True
            assert ckpt.device.operations_performed > 0

    def test_ssd_backend_requires_path(self):
        with pytest.raises(ConfigError):
            open_checkpointer(capacity_bytes=4096, backend="ssd")

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            open_checkpointer(str(tmp_path / "x.pc"), capacity_bytes=4096,
                              backend="tape")


class TestDeprecatedAlias:
    # open_checkpointer is the one way to build a Checkpointer, and it
    # raises no DeprecationWarning.
    def test_plain_construction_does_not_warn(self, tmp_path):
        with open_checkpointer(str(tmp_path / "w.pc"),
                               capacity_bytes=4096):
            pass
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with open_checkpointer(str(tmp_path / "w2.pc"),
                                   capacity_bytes=4096):
                pass


class TestInjection:
    """Satellite: open_checkpointer over an injected pool or device."""

    def test_injected_pool_is_shared_and_left_open(self, tmp_path):
        from repro import EnginePool, EngineSpec

        spec = EngineSpec(capacity_bytes=4096, backend="pmem")
        with EnginePool(spec, size=2, name="shared") as pool:
            with open_checkpointer(pool=pool) as ckpt:
                assert pool.leak_report()["leased"] == 1
                assert ckpt.checkpoint(b"via-pool", step=1).committed
            # Closing the view releases the lease, not the pool.
            assert pool.leak_report()["leased"] == 0
            assert not pool.closed
            # Two views can coexist on a size-2 pool.
            with open_checkpointer(pool=pool), open_checkpointer(pool=pool):
                assert pool.leak_report()["leased"] == 2

    def test_injected_device_is_used(self):
        from repro.storage.pmem import SimulatedPMEM

        device = SimulatedPMEM(capacity=1 << 20)
        with open_checkpointer(backend="pmem", capacity_bytes=4096,
                               device=device) as ckpt:
            assert ckpt.device is device
            assert ckpt.checkpoint(b"direct", step=1).committed

    def test_tiers_over_an_injected_device_create_no_file(
        self, tmp_path, monkeypatch
    ):
        """No path, so no ``{path}.warm``: the warm tier of an injected
        device lives in memory (the parent left a file named
        ``None.warm`` in the working directory)."""
        from repro.core.recovery import recover
        from repro.storage.ssd import InMemorySSD

        monkeypatch.chdir(tmp_path)
        with open_checkpointer(device=InMemorySSD(1 << 20),
                               capacity_bytes=4096, tiers=True) as ckpt:
            assert ckpt.checkpoint(b"tiered", step=1).committed
            assert recover(ckpt.device).payload == b"tiered"
        assert os.listdir(tmp_path) == []

    def test_pool_and_device_are_mutually_exclusive(self):
        from repro import EnginePool, EngineSpec
        from repro.storage.pmem import SimulatedPMEM

        spec = EngineSpec(capacity_bytes=4096, backend="pmem")
        with EnginePool(spec) as pool:
            with pytest.raises(ValueError):
                open_checkpointer(pool=pool,
                                  device=SimulatedPMEM(capacity=1 << 20))

    def test_capacity_required_without_pool(self, tmp_path):
        with pytest.raises(TypeError):
            open_checkpointer(str(tmp_path / "x.pc"))
