"""The repo's benchmark: PCcheck on real files, end to end and per layer.

``BENCHMARK.json`` (repo root) is the definition — workloads, metric names,
units, directions and regression bounds.  ``python3 -m bench`` runs it; see
``bench/README.md`` for what each number means and how they interact.
"""
