"""``BENCHMARK.json`` as the single source of metric and workload names.

The benchmark code never spells a unit or a bound: it looks them up here,
so the definition file and what the command prints cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITION_PATH = ROOT / "BENCHMARK.json"


class Definition:
    """Parsed view of ``BENCHMARK.json``."""

    def __init__(self, raw: dict) -> None:
        self.raw = raw
        self.workloads = [w["name"] for w in raw["workloads"]]
        self.end_to_end = {m["name"]: m for m in raw["end_to_end"]}
        self.per_layer = {m["name"]: m for m in raw["per_layer"]}
        self.run_seconds = int(raw["run_seconds"])

    @classmethod
    def load(cls) -> "Definition":
        with open(DEFINITION_PATH, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def unit(self, name: str) -> str:
        metric = self.end_to_end.get(name) or self.per_layer[name]
        return metric["unit"]

    def package(self, values: dict, names) -> dict:
        """``{name: {"value", "unit"}}`` for exactly ``names``.

        A per-layer metric a workload does not exercise reads 0 (see
        README, "Zeros"); a name missing from ``values`` is therefore
        filled, but a value for an undeclared name is a bug here.
        """
        unknown = set(values) - set(self.end_to_end) - set(self.per_layer)
        if unknown:
            raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
        return {
            name: {"value": float(values.get(name, 0.0)), "unit": self.unit(name)}
            for name in names
        }
