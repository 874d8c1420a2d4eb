"""Functional checkpoint strategies: PCcheck and the paper's baselines."""

from repro.baselines.base import CheckpointStrategy, StrategyStats
from repro.baselines.checkfreq import CheckFreqStrategy
from repro.baselines.gemini import GeminiStrategy, NetworkChannel, RemoteMemoryStore
from repro.baselines.gpm import GPMStrategy
from repro.baselines.naive import NaiveStrategy
from repro.baselines.pccheck import PCcheckStrategy
from repro.strategies import (
    build_strategy,
    functional_strategies as available_strategies,
    required_capacity,
)

__all__ = [
    "CheckFreqStrategy",
    "CheckpointStrategy",
    "GPMStrategy",
    "GeminiStrategy",
    "NaiveStrategy",
    "NetworkChannel",
    "RemoteMemoryStore",
    "PCcheckStrategy",
    "StrategyStats",
    "available_strategies",
    "build_strategy",
    "required_capacity",
]
