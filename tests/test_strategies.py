"""The shared strategy registry: one table feeding both the functional
baselines and the simulator (satellite of the service redesign)."""

import pytest

from repro.errors import ConfigError
from repro.strategies import (
    REGISTRY,
    StrategyEntry,
    build_strategy,
    functional_strategies,
    get_strategy_sim,
    required_capacity,
    simulated_strategies,
    strategies,
)


class TestRegistryIsTheSingleSource:
    def test_legacy_functional_table_derives_from_registry(self):
        import repro.baselines as baselines

        assert baselines.available_strategies is functional_strategies
        assert baselines.build_strategy is build_strategy
        assert baselines.required_capacity is required_capacity

    def test_legacy_sim_table_derives_from_registry(self):
        from repro.sim.strategies import STRATEGY_SIMS

        assert sorted(STRATEGY_SIMS) == simulated_strategies()
        for name, cls in STRATEGY_SIMS.items():
            assert REGISTRY[name].simulated_class() is cls

    def test_every_entry_resolves(self):
        for name in strategies():
            entry = REGISTRY[name]
            if entry.functional:
                assert isinstance(entry.functional_class(), type)
            if entry.simulated:
                assert isinstance(entry.simulated_class(), type)

    def test_pccheck_has_both_faces(self):
        entry = REGISTRY["pccheck"]
        assert entry.functional and entry.simulated
        assert entry.functional_slots is None  # capacity from engine config


class TestLookups:
    def test_unknown_functional_strategy_message(self):
        with pytest.raises(ConfigError, match="unknown strategy 'bogus'"):
            build_strategy("bogus", lambda c: None, 4096)

    def test_unknown_simulated_strategy_message(self):
        with pytest.raises(ConfigError,
                           match="unknown simulated strategy 'bogus'"):
            get_strategy_sim("bogus")

    def test_sim_only_strategy_is_not_buildable(self):
        with pytest.raises(ConfigError):
            required_capacity("gemini", 4096)

    def test_functional_only_strategy_has_no_sim(self):
        with pytest.raises(ConfigError):
            get_strategy_sim("naive")


class TestBuild:
    def test_build_and_checkpoint_each_functional_strategy(self):
        from repro.storage.pmem import SimulatedPMEM

        for name in functional_strategies():
            strategy = build_strategy(
                name, lambda c: SimulatedPMEM(capacity=c), 4096
            )
            try:
                strategy.checkpoint(b"payload", step=1)
            finally:
                strategy.close()

    def test_required_capacity_scales_with_slots(self):
        # naive formats 2 slots; pccheck formats num_slots (N+1 >= 3).
        assert required_capacity("pccheck", 4096) > required_capacity(
            "naive", 4096
        )


class TestEntryValidation:
    def test_entry_needs_at_least_one_implementation(self):
        with pytest.raises(ValueError):
            StrategyEntry(name="ghost", description="nothing")

    def test_entry_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            StrategyEntry(name="odd", description="bad kind",
                          functional="x:Y", functional_kind="weird")
