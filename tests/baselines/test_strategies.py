"""Tests for the functional checkpoint strategies and their semantics."""

import time

import numpy as np
import pytest

from repro.baselines import (
    CheckFreqStrategy,
    CheckpointStrategy,
    GeminiStrategy,
    GPMStrategy,
    NaiveStrategy,
    PCcheckStrategy,
    RemoteMemoryStore,
    available_strategies,
    build_strategy,
    required_capacity,
)
from repro.core.config import PCcheckConfig
from repro.core.recovery import recover
from repro.core.snapshot import BytesSource
from repro.errors import ConfigError, OutOfSpaceError
from repro.storage.ssd import InMemorySSD
from repro.training.data import SyntheticRegression
from repro.training.loop import Trainer
from repro.training.losses import mse
from repro.training.models import MLP
from repro.training.optim import Adam

PAYLOAD = 4096


def memory_factory(capacity):
    return InMemorySSD(capacity)


def throttled_factory(bandwidth):
    def factory(capacity):
        return InMemorySSD(capacity, persist_bandwidth=bandwidth)

    return factory


@pytest.mark.parametrize("name", ["naive", "checkfreq", "gpm", "pccheck"])
class TestAllStrategies:
    def test_checkpoint_then_recover(self, name):
        strategy = build_strategy(name, memory_factory, PAYLOAD)
        strategy.checkpoint(b"state-at-step-5", step=5)
        strategy.drain()
        recovered = recover(strategy.layout)
        assert recovered.payload == b"state-at-step-5"
        assert recovered.meta.step == 5
        assert strategy.latest_recoverable_step() == 5
        strategy.close()

    def test_repeated_checkpoints_keep_newest(self, name):
        strategy = build_strategy(name, memory_factory, PAYLOAD)
        for step in (1, 2, 3):
            strategy.checkpoint(f"s{step}".encode(), step=step)
        strategy.drain()
        assert recover(strategy.layout).payload == b"s3"
        strategy.close()

    def test_stats_track_checkpoints(self, name):
        strategy = build_strategy(name, memory_factory, PAYLOAD)
        strategy.checkpoint(b"x", step=1)
        strategy.drain()
        assert strategy.stats.checkpoints_started == 1
        assert strategy.stats.checkpoints_completed == 1
        strategy.close()

    def test_context_manager_closes(self, name):
        with build_strategy(name, memory_factory, PAYLOAD) as strategy:
            strategy.checkpoint(b"ctx", step=1)


class TestBlockingSemantics:
    """The defining timing behaviour of each baseline."""

    # ~41 ms per 4 KiB persist: long enough that scheduler jitter (a few
    # ms on a loaded CI box) cannot masquerade as a stall or hide one.
    BANDWIDTH = 1e5
    SLOW_PAYLOAD = b"p" * PAYLOAD

    def test_naive_blocks_for_full_persist(self):
        strategy = build_strategy(
            "naive", throttled_factory(self.BANDWIDTH), PAYLOAD
        )
        start = time.monotonic()
        strategy.checkpoint(self.SLOW_PAYLOAD, step=1)
        elapsed = time.monotonic() - start
        assert elapsed >= PAYLOAD / self.BANDWIDTH * 0.5
        strategy.close()

    def test_checkfreq_first_checkpoint_returns_fast(self):
        strategy = build_strategy(
            "checkfreq", throttled_factory(self.BANDWIDTH), PAYLOAD
        )
        start = time.monotonic()
        strategy.checkpoint(self.SLOW_PAYLOAD, step=1)
        first_call = time.monotonic() - start
        assert first_call < PAYLOAD / self.BANDWIDTH * 0.5
        strategy.close()

    def test_checkfreq_second_checkpoint_stalls_behind_first(self):
        """The Figure 4 stall: C2 waits for P1."""
        strategy = build_strategy(
            "checkfreq", throttled_factory(self.BANDWIDTH), PAYLOAD
        )
        strategy.checkpoint(self.SLOW_PAYLOAD, step=1)
        start = time.monotonic()
        strategy.checkpoint(self.SLOW_PAYLOAD, step=2)
        second_call = time.monotonic() - start
        # Most of the first persist still remained when the second call
        # arrived, so the call blocked on it.
        assert second_call >= PAYLOAD / self.BANDWIDTH * 0.3
        strategy.close()

    def test_pccheck_consecutive_checkpoints_do_not_stall(self):
        """The Figure 6 behaviour: both checkpoints proceed concurrently."""
        config = PCcheckConfig(num_concurrent=2, writer_threads=2)
        strategy = build_strategy(
            "pccheck", throttled_factory(self.BANDWIDTH), PAYLOAD, config=config
        )
        start = time.monotonic()
        strategy.checkpoint(self.SLOW_PAYLOAD, step=1)
        strategy.checkpoint(self.SLOW_PAYLOAD, step=2)
        both_calls = time.monotonic() - start
        assert both_calls < PAYLOAD / self.BANDWIDTH * 0.5
        strategy.drain()
        assert recover(strategy.layout).meta.step == 2
        strategy.close()

    def test_gpm_blocks_like_naive(self):
        strategy = build_strategy("gpm", throttled_factory(self.BANDWIDTH), PAYLOAD)
        start = time.monotonic()
        strategy.checkpoint(self.SLOW_PAYLOAD, step=1)
        elapsed = time.monotonic() - start
        assert elapsed >= PAYLOAD / self.BANDWIDTH * 0.5
        strategy.close()


class TestRegistry:
    def test_available_strategies(self):
        assert set(available_strategies()) == {
            "naive", "checkfreq", "checkmate", "gpm", "pccheck",
        }

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            build_strategy("bogus", memory_factory, PAYLOAD)

    def test_required_capacity_scales_with_slots(self):
        two_slot = required_capacity("naive", PAYLOAD)
        config = PCcheckConfig(num_concurrent=3)
        four_slot = required_capacity("pccheck", PAYLOAD, config)
        assert four_slot > two_slot

    def test_pccheck_table1_storage_footprint(self):
        """PCcheck needs (N+1) slots vs 2 for the baselines (Table 1)."""
        config = PCcheckConfig(num_concurrent=3)
        pccheck_cap = required_capacity("pccheck", PAYLOAD, config)
        naive_cap = required_capacity("naive", PAYLOAD)
        # 4 slots vs 2 slots of (PAYLOAD + header).
        from repro.core.meta import RECORD_SIZE

        assert pccheck_cap - naive_cap == 2 * (PAYLOAD + RECORD_SIZE)


# ----------------------------------------------------------------------
# What checkpoint() accepts: one normaliser (as_source) for every strategy


class _Forwarding(CheckpointStrategy):
    """A wrapping strategy, as in examples/monitoring_debugging.py: it
    never looks at the state, it only passes it (and the T→U gate) on."""

    name = "forwarding"

    def __init__(self, inner):
        super().__init__()
        self.inner = inner

    def before_update(self):
        self.inner.before_update()

    def checkpoint(self, state, step):
        self.inner.checkpoint(state, step)

    def drain(self):
        self.inner.drain()

    def close(self):
        self.inner.close()


def _build(name, capacity):
    if name == "gemini":  # functional, but not in the registry
        return GeminiStrategy(RemoteMemoryStore(capacity))
    if name == "forwarding":
        return _Forwarding(build_strategy("pccheck", memory_factory, capacity))
    return build_strategy(name, memory_factory, capacity)


def _recovered(strategy):
    strategy = getattr(strategy, "inner", strategy)
    if hasattr(strategy, "layout"):
        found = recover(strategy.layout)
        return found.meta.step, bytes(found.payload)
    step, payload = strategy.recover()
    return step, bytes(payload)


@pytest.mark.parametrize(
    "name", available_strategies() + ["gemini", "forwarding"]
)
def test_every_strategy_takes_sources_and_raw_buffers_alike(name):
    model = MLP([6, 5, 3], np.random.default_rng(4))
    trainer = Trainer(model, Adam(model), SyntheticRegression(
        batch_size=2, in_dim=6, out_dim=3, seed=4), loss_fn=mse)
    trainer.train(2)
    blob = trainer.serialized_state()
    strategy = _build(name, len(blob) + 64)
    states = [
        trainer.state_source(),  # live arrays, gathered segment by segment
        BytesSource(blob),
        blob,                    # raw bytes: wrapped by as_source
        memoryview(blob),
    ]
    for step, state in enumerate(states, start=1):
        strategy.checkpoint(state, step=step)
        # The source-lifetime contract: reads are over by now.
        strategy.before_update()
        strategy.drain()
        assert _recovered(strategy) == (step, blob)
    strategy.close()


def test_oversized_state_is_a_typed_error_for_staging_strategies():
    for name in ("naive", "gpm", "checkfreq"):
        strategy = build_strategy(name, memory_factory, 64)
        with pytest.raises(OutOfSpaceError):
            strategy.checkpoint(b"x" * 65, step=1)
        strategy.checkpoint(b"fits", step=2)
        strategy.drain()
        assert recover(strategy.layout).payload == b"fits"
        strategy.close()
