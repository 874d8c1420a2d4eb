"""Stress tests: the full stack under concurrency on real files."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import open_checkpointer
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.recovery import recover
from repro.core.snapshot import BytesSource
from repro.obs.metrics import M
from repro.storage.ssd import FileBackedSSD


def _supports_o_direct(directory) -> bool:
    """True when ``directory``'s filesystem opens files ``O_DIRECT``."""
    flag = getattr(os, "O_DIRECT", 0)
    if not flag:
        return False
    probe = os.path.join(str(directory), "o_direct.probe")
    try:
        os.close(os.open(probe, os.O_RDWR | os.O_CREAT | flag, 0o644))
    except OSError:
        return False
    finally:
        if os.path.exists(probe):
            os.remove(probe)
    return True


def payload_for(index: int, size: int = 8192) -> bytes:
    rng = np.random.default_rng(index)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


class TestFileBackedConcurrency:
    def test_many_threads_checkpointing_to_one_file(self, tmp_path):
        """8 threads, 64 checkpoints, fsync barriers: the newest committed
        checkpoint must be intact and consistent with the engine's view."""
        size = 8192
        slot_size = size + RECORD_SIZE
        geometry = Geometry(num_slots=5, slot_size=slot_size)
        device = FileBackedSSD(str(tmp_path / "stress.pc"),
                               capacity=geometry.total_size)
        layout = DeviceLayout.format(device, num_slots=5, slot_size=slot_size)
        engine = CheckpointEngine(layout, writer_threads=3)

        def one(index):
            return engine.checkpoint(payload_for(index), step=index)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(one, range(1, 65)))
        metrics = engine.metrics
        assert metrics.value(M.COMMITS) + metrics.value(M.SUPERSEDED) == 64
        recovered = recover(layout)
        committed = engine.committed()
        assert recovered.meta.counter == committed.counter
        assert recovered.payload == payload_for(recovered.meta.step)
        device.close()

    def test_orchestrator_pipelines_on_real_file(self, tmp_path):
        """Chunked async checkpoints with real fsync; reopen and verify."""
        path = str(tmp_path / "orch.pc")
        size = 64 * 1024
        with open_checkpointer(path, capacity_bytes=size, num_concurrent=3,
                               writer_threads=2, chunk_size=8 * 1024,
                               num_chunks=4) as ckpt:
            handles = [
                ckpt.orchestrator.checkpoint_async(
                    BytesSource(payload_for(step, size)), step=step
                )
                for step in range(1, 13)
            ]
            results = [handle.wait() for handle in handles]
            assert sum(r.committed for r in results) >= 1
        with open_checkpointer(path, capacity_bytes=size) as ckpt:
            assert ckpt.recovered is not None
            step = ckpt.recovered.meta.step
            assert ckpt.recovered.payload == payload_for(step, size)

    def test_interleaved_writers_and_reader(self, tmp_path):
        """A reader polling recovery mid-flight must always see a valid,
        monotonically advancing checkpoint (readers never block writers)."""
        size = 4096
        slot_size = size + RECORD_SIZE
        geometry = Geometry(num_slots=4, slot_size=slot_size)
        device = FileBackedSSD(str(tmp_path / "rw.pc"),
                               capacity=geometry.total_size)
        layout = DeviceLayout.format(device, num_slots=4, slot_size=slot_size)
        engine = CheckpointEngine(layout, writer_threads=2)
        stop = threading.Event()
        observed = []
        errors = []

        def reader():
            from repro.core.recovery import try_recover

            while not stop.is_set():
                try:
                    recovered = try_recover(layout)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                if recovered is not None:
                    observed.append(
                        (recovered.source, recovered.meta, recovered.payload)
                    )

        thread = threading.Thread(target=reader)
        thread.start()
        with ThreadPoolExecutor(max_workers=3) as pool:
            list(pool.map(
                lambda i: engine.checkpoint(payload_for(i, size), step=i),
                range(1, 31),
            ))
        stop.set()
        thread.join()
        assert not errors
        # Every observation is a complete checkpoint (never torn).
        for _, meta, payload in observed:
            assert payload == payload_for(meta.step, size)
        # The commit record itself is monotone.  (The slot-scan fallback
        # may transiently surface a fully persisted but not-yet-committed
        # checkpoint, which is newer — safe, but not ordered w.r.t. the
        # record, so only commit-record observations are compared.)
        committed = [meta.counter for source, meta, _ in observed
                     if source == "commit-record"]
        assert committed == sorted(committed)
        device.close()


class TestUnbufferedEngineTraffic:
    """ROADMAP item 3 headroom: with the header padded to the sector
    size, engine payload writes on an O_DIRECT device are sector-aligned
    end to end (offset, length, and buffer address) and take the direct
    path — observable via the device's op counters."""

    def _aligned_payload(self, length, seed=7):
        from repro.storage.ssd import SECTOR_SIZE

        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 256, size=length + SECTOR_SIZE, dtype=np.uint8)
        shift = (-raw.ctypes.data) % SECTOR_SIZE
        return raw[shift : shift + length]

    def test_payload_writes_take_the_direct_path(self, tmp_path):
        from repro.storage.ssd import SECTOR_SIZE

        size = 2 * SECTOR_SIZE
        device = FileBackedSSD(
            str(tmp_path / "direct.pc"),
            capacity=1 << 20,
            unbuffered=True,
        )
        if not device.direct_io:
            device.close()
            pytest.skip("filesystem does not support O_DIRECT")
        # format() pads the header to the sector size for this device.
        layout = DeviceLayout.format(
            device, num_slots=3, slot_size=size + RECORD_SIZE
        )
        assert layout.geometry.header_size == SECTOR_SIZE
        for slot in range(3):
            assert layout.payload_offset(slot) % SECTOR_SIZE == 0
        engine = CheckpointEngine(layout, writer_threads=2)
        payload = self._aligned_payload(size)
        result = engine.checkpoint(payload, step=1)
        assert result.committed
        # The sector-aligned payload went through O_DIRECT; the 64-byte
        # header/commit records legitimately use the buffered fallback.
        assert device.direct_write_ops > 0
        recovered = recover(layout)
        assert recovered.payload == bytes(payload)
        device.close()

    def test_compact_headers_would_misalign(self, tmp_path):
        """The regression the padding fixes: with a RECORD_SIZE header
        the payload offset cannot be sector-aligned."""
        from repro.core.layout import Geometry as G
        from repro.storage.ssd import SECTOR_SIZE

        compact = G(num_slots=3, slot_size=2 * SECTOR_SIZE + RECORD_SIZE)
        payload_start = compact.data_offset + RECORD_SIZE
        assert payload_start % SECTOR_SIZE != 0

    def test_open_checkpointer_writes_every_payload_direct(self, tmp_path):
        """A default region stages into page-aligned buffers and opens
        its file O_DIRECT, so one-chunk (256 KiB inline, 8 MiB through
        the pool) and three-chunk payloads all take the direct path; the
        registry series agree with the device's counters."""
        chunk = 8 << 20
        with open_checkpointer(
            str(tmp_path / "region.pc"), capacity_bytes=3 * chunk,
            chunk_size=chunk,
        ) as ck:
            device = ck.device
            if not _supports_o_direct(tmp_path):
                pytest.skip("filesystem does not support O_DIRECT")
            assert device.direct_io
            registry = ck.engine.metrics
            for step, size in enumerate(
                (256 << 10, chunk, 3 * chunk - (1 << 20)), start=1
            ):
                before = device.direct_write_ops
                payload = payload_for(step, size)
                if step == 3:
                    assert ck.checkpoint_async(payload, step=step).wait().committed
                else:
                    assert ck.checkpoint(payload, step=step).committed
                assert device.direct_write_ops > before
                assert device.fallback_write_ops == 0
            assert registry.value(
                M.DEVICE_DIRECT_WRITES, device=device.name
            ) == device.direct_write_ops
            assert registry.value(
                M.DEVICE_FALLBACK_WRITES, device=device.name
            ) == 0
            assert recover(ck.layout).payload == payload
