"""``SIGKILL`` a checkpointing process on a real O_DIRECT region.

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
"""

import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import open_checkpointer
from repro.core.recovery import recover
from repro.service.pool import open_existing_region

KILLS = 32
MAX_DELAY_S = 0.2
BIG = 8 << 20
SMALL = 256 << 10
BASE_SEED = 1234
SRC = Path(repro.__file__).resolve().parents[1]

#: The fork server: reads one region path per line, forks a child that
#: checkpoints into it until killed, and reports ``pid N`` then ``exit``.
SERVER = f"""
import os, sys
import numpy as np
from repro import open_checkpointer

BIG, SMALL = {BIG}, {SMALL}
BASE = np.random.default_rng({BASE_SEED}).integers(
    0, 256, BIG, dtype=np.uint8)

def payload_for(step):
    size = BIG if step % 2 == 0 else SMALL
    out = BASE[:size] ^ np.uint8(step % 255 + 1)
    out[:8] = np.frombuffer(step.to_bytes(8, "little"), dtype=np.uint8)
    return out

def child(path):
    with open_checkpointer(path, capacity_bytes=BIG) as ck:
        step = ck.recovered.meta.step if ck.recovered else 0
        os.write(1, b"ready\\n")
        while True:
            step += 1
            if ck.checkpoint(payload_for(step), step=step).committed:
                os.write(1, b"ack %d\\n" % step)

for line in sys.stdin:
    pid = os.fork()
    if pid == 0:
        try:
            child(line.strip())
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


def test_sigkill_never_loses_an_acked_commit(fork_server, tmp_path):
    path = str(tmp_path / "region.pc")
    # Formatted up front: the kills target checkpoints, not the format.
    open_checkpointer(path, capacity_bytes=BIG).close()
    lines = _Lines(fork_server.stdout)
    rng = np.random.default_rng(7)
    last_acked = 0
    trials_with_acks = 0
    for _ in range(KILLS):
        fork_server.stdin.write(f"{path}\n".encode())
        fork_server.stdin.flush()
        reply = lines.next()
        assert reply.startswith("pid "), reply
        time.sleep(rng.uniform(0.0, MAX_DELAY_S))
        os.kill(int(reply.split()[1]), signal.SIGKILL)
        acked = []
        while (line := lines.next()) != "exit":
            if line.startswith("ack "):
                acked.append(int(line.split()[1]))
        assert acked == sorted(acked)
        if acked:
            trials_with_acks += 1
            last_acked = acked[-1]
        device, layout = open_existing_region(path)
        try:
            if last_acked:
                found = recover(layout)
                assert found.meta.step >= last_acked
                assert bytes(found.payload) == payload_for(found.meta.step)
        finally:
            device.close()
        with open_checkpointer(path, capacity_bytes=BIG) as ck:
            committed = ck.engine.committed() is not None
            assert not ck.engine.held_slots
            assert ck.engine.free_slots == (
                ck.layout.num_slots - (1 if committed else 0)
            )
    # The kills must have landed after commits, not only during start-up.
    assert trials_with_acks >= KILLS // 4
    assert last_acked > 0
