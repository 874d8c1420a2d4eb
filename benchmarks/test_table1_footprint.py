"""Table 1: memory/storage footprint comparison.

Checks the exact formulae of the table: CheckFreq m/m/2m, GPM m/0/2m,
Gemini (m+buffer)/m/0, PCcheck m/(m..2m)/((N+1)m) — both from the
analytical model and from the *actual device capacities* the functional
strategies allocate.
"""

import pytest

from repro.analysis.figures import table1
from repro.core.config import PCcheckConfig
from repro.core.layout import Geometry
from repro.core.meta import RECORD_SIZE
from repro.strategies import required_capacity


def test_table1_generates_and_saves(benchmark, save_result):
    data = benchmark.pedantic(table1, rounds=1, iterations=1)
    save_result(data)

    assert data.value("storage_gb", algorithm="checkfreq") == pytest.approx(2.0)
    assert data.value("storage_gb", algorithm="gpm") == pytest.approx(2.0)
    assert data.value("dram_min_gb", algorithm="gpm") == 0
    assert data.value("storage_gb", algorithm="gemini") == 0
    assert data.value("gpu_gb", algorithm="gemini") > 1.0  # + 32 MB buffer
    # PCcheck with N=2: 3 slots of m.
    assert data.value("storage_gb", algorithm="pccheck") == pytest.approx(3.0)
    dram_max = data.value("dram_max_gb", algorithm="pccheck")
    assert 1.0 <= dram_max <= 2.0


def test_table1_functional_capacities_match_model():
    """The capacities the registry actually allocates follow Table 1."""
    payload = 1 << 20
    baseline_cap = required_capacity("naive", payload)
    for n in (1, 2, 3, 4):
        config = PCcheckConfig(num_concurrent=n)
        cap = required_capacity("pccheck", payload, config)
        expected = Geometry(
            num_slots=n + 1, slot_size=payload + RECORD_SIZE
        ).total_size
        assert cap == expected
        # (N+1) slots vs the baselines' 2 slots.
        assert cap - baseline_cap == (n - 1) * (payload + RECORD_SIZE)
