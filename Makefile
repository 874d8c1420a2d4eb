# Convenience targets for the PCcheck reproduction.

.PHONY: install test test-sanitize test-distributed test-service test-tiered lint lint-sarif lint-baseline crashsweep bench bench-smoke bench-pairs odirect-probe commit-floor-probe service-round-probe rss-probe figures examples clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

# The tier-1 verify command: run against the source tree, no installed
# package required (pyproject's testpaths selects tests/).
test:
	PYTHONPATH=src python -m pytest -x -q

# Tier-1 itself with the runtime invariant sanitizer asserting the engine
# invariants on every transition — the whole suite, no directory list to
# keep in step.  CI runs exactly this target.
test-sanitize:
	REPRO_SANITIZE=1 $(MAKE) test

# Distributed coordination suite (docs/DISTRIBUTED.md): the
# coordinator's rounds, the rank handle and consistent recovery (every
# rank a `build_stack` stack under `DistributedRank`), the shard format
# and its N-writer to M-reader re-partitioning over the shard headers,
# the simulator's failure model, the `recover-consistent` CLI over rank
# images the coordinator wrote, and the crash-sweep unit tests of the
# `distributed` and `elastic` workloads (the watcher-joining thread-leak
# test included).  Their full sweeps are rows of `make crashsweep`.
test-distributed:
	PYTHONPATH=src python -m pytest -x -q \
		tests/core/test_distributed.py \
		tests/core/test_distributed_coordinator.py \
		tests/core/test_reshard.py \
		tests/core/test_sharding.py \
		tests/sim/test_distributed.py \
		tests/analysis/test_cli.py::TestRecoverConsistentCommand
	PYTHONPATH=src python -m pytest -x -q tests/analysis/test_crashsweep.py \
		-k "distributed or elastic"

# Multi-tenant service suite (docs/SERVICE.md): the engine pool's
# ticket map (take/acquire/release, whole seats, retirement, listeners),
# admission control and Eq. 3 quotas, group-commit batching with the
# slow-device close-ordering regression, the 8-tenant fleet e2e, the
# over-subscription hammer, the event-driven dispatcher's
# ordering/borrowed-pool/stuck-backlog tests (no blocking acquire, retire
# before dispatch), seat sharing (up to num_concurrent tickets from any
# tenants on one seat, none on a dead one, the 3-tenant one-seat
# hammer), the benchmark's calls into the API, and the shared strategy
# registry — then the `serve` demo fleet, whose 3 dedicated tenants
# share the one seat the batcher leaves at --pool-size 2, and which
# exits non-zero on any slot or DRAM-buffer leak, any staging mapping
# its close could not unmap, or any superseded dedicated request.
test-service:
	PYTHONPATH=src python -m pytest -x -q tests/service tests/test_strategies.py
	PYTHONPATH=src python -m repro.cli serve --tenants 6 --rounds 3 \
		--pool-size 2 --payload-kib 256

# Tiered + remote storage suite (docs/STORAGE.md): the remote object
# store's visibility/failure model, the demotion policy and tier-walk
# recovery fall-through, and the Checkmate replication baseline.  The
# mid-demotion crash sweep is the `tiered` row of `make crashsweep`.
test-tiered:
	PYTHONPATH=src python -m pytest -x -q \
		tests/storage/test_remote.py \
		tests/storage/test_tiering.py \
		tests/baselines/test_checkmate.py

# Concurrency-invariant static analysis: per-file rules PC001-PC008
# plus the whole-program pass (PC009 lock-order cycles, PC010
# interprocedural fence coverage, PC011 view escapes) over src,
# examples, and benchmarks. The baseline keeps CI failing only on NEW
# findings; the cache makes warm runs re-parse only changed files.
lint:
	PYTHONPATH=src python -m repro.cli lint src examples benchmarks \
		--baseline lint-baseline.json --cache .pclint-cache.pkl \
		--warn-unused-suppressions

# Same run rendered as SARIF for code-scanning UIs (CI uploads this).
lint-sarif:
	PYTHONPATH=src python -m repro.cli lint src examples benchmarks \
		--baseline lint-baseline.json --cache .pclint-cache.pkl \
		--format sarif > lint-results.sarif

# Refresh the checked-in baseline after deliberate, reviewed changes.
lint-baseline:
	PYTHONPATH=src python -m repro.cli lint src examples benchmarks \
		--write-baseline lint-baseline.json

# Crash-consistency sweep — THE reference table (ROADMAP): power loss
# with torn writes at every device op of every workload, §4.1 verified
# at each point.  Each row prints its workload, crash-point count and
# violation count; the first violation stops the run non-zero.
crashsweep:
	@set -e; for row in engine "engine --target commit-record" streaming \
			orchestrator one-chunk one-chunk-streamed distributed \
			"elastic --world-size 4" striped tiered; do \
		PYTHONPATH=src python -m repro.cli crashsweep --workload $$row \
			--torn --seed 11; \
	done

bench:
	pytest benchmarks/ --benchmark-only

# The repo's gated benchmark (BENCHMARK.json, bench/README.md), at 1/64
# payloads and sub-second runs: all five workloads through the public
# API on real files, untraced then traced, with their in-run correctness
# checks (recover CRC/step/source, leaks, wrapper forwarding) — so a src/
# change that breaks one fails here rather than at the gate.  Then the
# benchmark's own tests.  Writes only under BENCH_SMOKE_OUT.
BENCH_SMOKE_OUT ?= .bench_out/smoke
bench-smoke:
	python3 -m bench --smoke --seed 1 --out "$(BENCH_SMOKE_OUT)"
	python -m pytest -q bench/

# Alternated base/change pairs of one gated workload: REF is checked out
# into a temporary worktree, each seed runs once per side (run_seconds of
# BENCHMARK.json, region files in .bench_work/ for both) with the first
# side alternating, and the four end-to-end metrics' medians, quartiles
# and pairs won are printed.  Exits non-zero on any failed operation.
#   make bench-pairs REF=HEAD~1 WORKLOAD=save_small SEEDS="1 2 3"
REF ?= HEAD
bench-pairs:
	python3 tools/bench_pairs.py --ref "$(REF)" --workload "$(WORKLOAD)" \
		--seeds "$(SEEDS)"

# Buffered vs O_DIRECT pwrite+fsync at the payload sizes the benchmark
# uses (256 KiB, 8 MiB, 54 MiB, 256 MiB), medians of alternated rounds,
# on the filesystem under PROBE_DIR: three columns, buffered, O_DIRECT
# from 4 KiB pages and O_DIRECT from the huge-page-backed staging buffer
# the product writes from.  The measurements behind writing region
# payloads with O_DIRECT from huge pages, re-checkable on any box in one
# command.  ODIRECT_ROUNDS=1 is a one-round smoke.
PROBE_DIR ?= .bench_work
ODIRECT_ROUNDS ?= 4
odirect-probe:
	python3 tools/odirect_probe.py --dir "$(PROBE_DIR)" \
		--rounds "$(ODIRECT_ROUNDS)"

# A blocking 256 KiB checkpoint (the save_small shape) against a bare
# replay of its own copy, CRC and four syscalls on a region file under
# PROBE_DIR, alternated: prints engine, floor and engine - floor, the
# glue a small checkpoint pays.  FLOOR_ROUNDS=1 is a one-round smoke.
FLOOR_ROUNDS ?= 6
commit-floor-probe:
	python3 tools/commit_floor_probe.py --dir "$(PROBE_DIR)" \
		--rounds "$(FLOOR_ROUNDS)"

# The service_mix shape (3 x 8 MiB dedicated + 5 x 128 KiB coalesced
# tenants, pool of 2) on a region under PROBE_DIR, every pwrite/fsync
# timed: prints per-round medians of wall time, time to the first
# payload write, device-busy fraction and settle times.
# ROUND_PROBE_ROUNDS=1 is a one-round smoke.
ROUND_PROBE_ROUNDS ?= 20
service-round-probe:
	python3 tools/service_round_probe.py --dir "$(PROBE_DIR)" \
		--rounds "$(ROUND_PROBE_ROUNDS)"

# Peak and current RSS after each stage of one gated workload
# (RSS_WORKLOAD, default restore_large), in the benchmark's own order:
# imports, make_inputs, build, prepare_baseline, the blocks, verify —
# so the stage that sets peak_rss_mib is named.  RSS_SMOKE=--smoke runs
# it at 1/64 payloads.
RSS_WORKLOAD ?= restore_large
RSS_SMOKE ?=
rss-probe:
	python3 tools/rss_probe.py --workload "$(RSS_WORKLOAD)" \
		--dir "$(PROBE_DIR)" $(RSS_SMOKE)

bench-full:
	pytest benchmarks/

figures:
	python -m repro.cli all --out results/

# Run against the source tree like `test` does — no install needed.
examples: export PYTHONPATH := src
examples:
	python examples/quickstart.py
	python examples/crash_recovery.py
	python examples/spot_vm_training.py
	python examples/tune_configuration.py
	python examples/distributed_training.py
	python examples/monitoring_debugging.py
	python examples/capacity_planning.py

clean:
	rm -rf results benchmarks/results .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
