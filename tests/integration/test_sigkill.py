"""``SIGKILL`` a checkpointing process on a real O_DIRECT region — and
lose power under it.

A fork server (one single-threaded interpreter with the package already
imported) forks a child per trial.  The child opens a default
``open_checkpointer`` region, resumes after the step it recovered, and
takes blocking checkpoints of 256 KiB and 8 MiB in turn, acking each
commit over its stdout pipe.  The parent kills it with ``SIGKILL`` after
a random delay and then checks the region the dead process left:

* once any commit was acked, :func:`~repro.core.recovery.recover`
  returns a CRC-valid payload whose step is at least the last acked step,
  and whose bytes are exactly what the child wrote for that step;
* reopening the region leaks no slot.

Payload bytes go through O_DIRECT, so there is no page cache holding a
finished copy of what a killed writer left half-done on the file.

A ``SIGKILL`` alone keeps every write the process issued.  The
power-loss variant also takes away what no fence covered: its child
opens the region through :class:`LoggedSSD` (a test-side subclass of
``FileBackedSSD``, swapped in for the one ``repro.service.pool`` builds),
which logs each write's offset and old bytes before it lands and each
completed fence.  After the kill the parent takes every write the last
completed fence did not cover and, sector by sector and at random, keeps
it, zeroes it or reverts it to its old bytes — what a device may hold
after power fails mid-commit — before the checks above, plus one more:
the next checkpoint's counter exceeds every counter a record on the
region still carries, so no counter is ever issued twice.
"""

import os
import selectors
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import open_checkpointer
from repro.core.meta import RECORD_SIZE, decode_commit_record
from repro.core.recovery import recover, try_recover
from repro.service.pool import open_existing_region

KILLS = 32
MAX_DELAY_S = 0.2
BIG = 8 << 20
SMALL = 256 << 10
BASE_SEED = 1234
SECTOR = 4096
SRC = Path(repro.__file__).resolve().parents[1]

#: The fork server: reads one ``<mode> <region path>`` per line, forks a
#: child that checkpoints into the region until killed, and reports
#: ``pid N`` then ``exit``.  Mode ``power`` opens the region through
#: ``LoggedSSD``, which appends to ``<region path>.wlog``: ``W`` entries
#: ``(index, offset, length, old bytes)`` before each write, and after
#: each completed fence either an ``F`` entry ``(writes logged when it
#: started, indices still in flight then)`` or, when it covered every
#: logged write, a truncation of the log.
SERVER = f"""
import os, struct, sys, threading
import numpy as np
from repro import open_checkpointer
from repro.service import pool
from repro.storage.device import as_view
from repro.storage.ssd import FileBackedSSD

BIG, SMALL = {BIG}, {SMALL}
BASE = np.random.default_rng({BASE_SEED}).integers(
    0, 256, BIG, dtype=np.uint8)

def payload_for(step):
    size = BIG if step % 2 == 0 else SMALL
    out = BASE[:size] ^ np.uint8(step % 255 + 1)
    out[:8] = np.frombuffer(step.to_bytes(8, "little"), dtype=np.uint8)
    return out

class LoggedSSD(FileBackedSSD):
    def __init__(self, path, *args, **kwargs):
        super().__init__(path, *args, **kwargs)
        self._log = os.open(path + ".wlog",
                            os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND)
        self._log_lock = threading.Lock()
        self._logged = 0
        self._in_flight = set()

    def write(self, offset, data):
        view = as_view(data)
        old = os.pread(self._fd, len(view), offset)
        with self._log_lock:
            index = self._logged
            self._logged += 1
            self._in_flight.add(index)
            os.write(self._log, struct.pack("<cQQQ", b"W", index, offset,
                                            len(old)) + old)
        try:
            super().write(offset, view)
        finally:
            with self._log_lock:
                self._in_flight.discard(index)

    def persist(self, offset, length):
        with self._log_lock:
            started, pending = self._logged, sorted(self._in_flight)
        super().persist(offset, length)
        with self._log_lock:
            if not pending and self._logged == started:
                os.ftruncate(self._log, 0)
            else:
                os.write(self._log, struct.pack(
                    f"<cQQ{{len(pending)}}Q", b"F", started, len(pending),
                    *pending))

def child(path):
    with open_checkpointer(path, capacity_bytes=BIG) as ck:
        step = ck.recovered.meta.step if ck.recovered else 0
        os.write(1, b"ready\\n")
        while True:
            step += 1
            if ck.checkpoint(payload_for(step), step=step).committed:
                os.write(1, b"ack %d\\n" % step)

for line in sys.stdin:
    mode, path = line.split()
    pid = os.fork()
    if pid == 0:
        try:
            if mode == "power":
                pool.FileBackedSSD = LoggedSSD
            child(path)
        finally:
            os._exit(1)
    os.write(1, b"pid %d\\n" % pid)
    os.waitpid(pid, 0)
    os.write(1, b"exit\\n")
"""


def payload_for(step: int) -> bytes:
    """The server's ``payload_for``: every byte depends on the step, so
    bytes a slot kept from an older checkpoint never pass for new ones."""
    size = BIG if step % 2 == 0 else SMALL
    base = np.random.default_rng(BASE_SEED).integers(
        0, 256, BIG, dtype=np.uint8)
    out = base[:size] ^ np.uint8(step % 255 + 1)
    out[:8] = np.frombuffer(step.to_bytes(8, "little"), dtype=np.uint8)
    return out.tobytes()


class _Lines:
    """Line reader over a pipe with a deadline per line."""

    def __init__(self, stream) -> None:
        self._fd = stream.fileno()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._fd, selectors.EVENT_READ)
        self._buffer = b""

    def next(self, timeout: float = 30.0) -> str:
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not self._selector.select(left):
                raise AssertionError("fork server stopped answering")
            chunk = os.read(self._fd, 1 << 16)
            if not chunk:
                raise AssertionError("fork server exited")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode()


@pytest.fixture
def fork_server():
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.Popen(
        [sys.executable, "-c", SERVER], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, env=env,
    )
    try:
        yield proc
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _kill_one(fork_server, lines, mode, path, rng):
    """Fork a child checkpointing into ``path``, ``SIGKILL`` it after a
    random delay, and return the steps it acked (in order).

    The child shares the server's stdout, so its ``ready`` and first
    ``ack`` lines can arrive before the server's ``pid N``; acks read on
    the way are kept."""
    fork_server.stdin.write(f"{mode} {path}\n".encode())
    fork_server.stdin.flush()
    acked = []

    def keep_ack(line: str) -> None:
        if line.startswith("ack "):
            acked.append(int(line.split()[1]))

    while not (reply := lines.next()).startswith("pid "):
        keep_ack(reply)
    time.sleep(rng.uniform(0.0, MAX_DELAY_S))
    os.kill(int(reply.split()[1]), signal.SIGKILL)
    while (line := lines.next()) != "exit":
        keep_ack(line)
    assert acked == sorted(acked)
    return acked


def _check_recovery(path, last_acked):
    """The acked-commit checks; returns the highest counter any
    decodable record on the region carries."""
    device, layout = open_existing_region(path)
    try:
        if last_acked:
            found = recover(layout)
            assert found.meta.step >= last_acked
            assert bytes(found.payload) == payload_for(found.meta.step)
        records = layout.read_all_slot_headers() + [decode_commit_record(
            device.read(layout.commit_offset, RECORD_SIZE))]
        return max((r.counter for r in records if r is not None), default=0)
    finally:
        device.close()


def _check_reopen(path):
    with open_checkpointer(path, capacity_bytes=BIG) as ck:
        committed = ck.engine.committed() is not None
        assert not ck.engine.held_slots
        assert ck.engine.free_slots == (
            ck.layout.num_slots - (1 if committed else 0)
        )


def test_sigkill_never_loses_an_acked_commit(fork_server, tmp_path):
    path = str(tmp_path / "region.pc")
    # Formatted up front: the kills target checkpoints, not the format.
    open_checkpointer(path, capacity_bytes=BIG).close()
    lines = _Lines(fork_server.stdout)
    rng = np.random.default_rng(7)
    last_acked = 0
    trials_with_acks = 0
    for _ in range(KILLS):
        acked = _kill_one(fork_server, lines, "kill", path, rng)
        if acked:
            trials_with_acks += 1
            last_acked = acked[-1]
        _check_recovery(path, last_acked)
        _check_reopen(path)
    # The kills must have landed after commits, not only during start-up.
    assert trials_with_acks >= KILLS // 4
    assert last_acked > 0


def _unfenced_writes(log_path):
    """``(offset, old bytes)`` of every logged write no completed fence
    covered, in write order, and the log removed — a child killed before
    it opened the region leaves none, and a stale one would replay writes
    later checkpoints fenced over.  A record cut short by the kill is a
    write that never started."""
    try:
        with open(log_path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return []
    os.remove(log_path)
    writes, fences, pos = [], [], 0
    while pos < len(raw):
        kind = raw[pos:pos + 1]
        if kind == b"W" and pos + 25 <= len(raw):
            index, offset, length = struct.unpack_from("<QQQ", raw, pos + 1)
            if pos + 25 + length > len(raw):
                break
            writes.append((index, offset, raw[pos + 25:pos + 25 + length]))
            pos += 25 + length
        elif kind == b"F" and pos + 17 <= len(raw):
            started, count = struct.unpack_from("<QQ", raw, pos + 1)
            if pos + 17 + 8 * count > len(raw):
                break
            pending = set(struct.unpack_from(f"<{count}Q", raw, pos + 17))
            fences.append((started, pending))
            pos += 17 + 8 * count
        else:
            break
    return [
        (offset, old) for index, offset, old in writes
        if not any(index < started and index not in pending
                   for started, pending in fences)
    ]


def _lose_power(path, rng):
    """Give each sector of every unfenced write, newest first, one fate:
    kept, zeroed or reverted to its old bytes.  Returns the number of
    unfenced writes."""
    unfenced = _unfenced_writes(path + ".wlog")
    fd = os.open(path, os.O_RDWR)
    try:
        for offset, old in reversed(unfenced):
            lo = offset
            while lo < offset + len(old):
                hi = min((lo // SECTOR + 1) * SECTOR, offset + len(old))
                fate = rng.integers(3)
                if fate == 1:
                    os.pwrite(fd, bytes(hi - lo), lo)
                elif fate == 2:
                    os.pwrite(fd, old[lo - offset:hi - offset], lo)
                lo = hi
        os.fsync(fd)
    finally:
        os.close(fd)
    return len(unfenced)


def test_power_loss_never_loses_an_acked_commit(fork_server, tmp_path):
    path = str(tmp_path / "region.pc")
    open_checkpointer(path, capacity_bytes=BIG).close()
    lines = _Lines(fork_server.stdout)
    rng = np.random.default_rng(11)
    last_acked = 0
    trials_with_acks = 0
    trials_with_unfenced = 0
    for _ in range(KILLS):
        acked = _kill_one(fork_server, lines, "power", path, rng)
        if acked:
            trials_with_acks += 1
            last_acked = acked[-1]
        trials_with_unfenced += _lose_power(path, rng) > 0
        highest = _check_recovery(path, last_acked)
        _check_reopen(path)
        # The next checkpoint gets a counter no record on disk carries.
        with open_checkpointer(path, capacity_bytes=BIG) as ck:
            step = ck.recovered.meta.step + 1 if ck.recovered else 1
            result = ck.checkpoint(payload_for(step), step=step)
            assert result.committed and result.counter > highest
            last_acked = step
    assert trials_with_acks >= KILLS // 4
    # Power must have failed mid-commit, not only between checkpoints.
    assert trials_with_unfenced >= KILLS // 4
    device, layout = open_existing_region(path)
    try:
        assert try_recover(layout).meta.step == last_acked
    finally:
        device.close()
