# Convenience entry points; everything runs with src/ on PYTHONPATH so no
# install step is needed.

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test lint check docs-seeds bench bench-micro bench-faults bench-scale bench-scale-smoke bench-population bench-population-smoke bench-migration bench-migration-smoke trace-demo

test:
	$(PYTEST) -x -q tests

# The aggregate PR gate: static analysis (repro-lint always; mypy/ruff
# when installed) then the tier-1 suite.  One command == what CI enforces.
check: lint test

# Regenerate the DEVELOPMENT.md seed-slot table from
# repro.analysis.seeds.REGISTRY (the doc-drift test fails when they
# diverge; run this after claiming a new slot).
docs-seeds:
	PYTHONPATH=src python -c "from repro.analysis.docs import sync_seed_table; \
		changed = sync_seed_table('DEVELOPMENT.md'); \
		print('DEVELOPMENT.md seed-slot table ' + ('updated' if changed else 'already in sync'))"

# Static analysis gate (see DEVELOPMENT.md).  repro-lint (the in-tree
# determinism/layering/recorder-discipline checker) always runs; mypy and
# ruff run when installed and are skipped with a notice otherwise, so the
# target works in offline environments with only the runtime deps.
lint:
	PYTHONPATH=src python -m repro.analysis src/repro --src-root src
	@if python -c "import mypy" 2>/dev/null; then \
		python -m mypy; \
	else \
		echo "lint: mypy not installed; skipping (pip install -e '.[lint]')"; \
	fi
	@if python -c "import ruff" 2>/dev/null; then \
		python -m ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed; skipping (pip install -e '.[lint]')"; \
	fi

# Statistical micro-benchmarks of the per-request hot operations.  Medians
# land in benchmarks/results/BENCH_micro.json (operation -> seconds).  The
# observability overhead guard rides along:
# it proves the disabled-trace path costs <= 5% of a compose
# (benchmarks/results/BENCH_observability.json).
bench-micro:
	$(PYTEST) -q benchmarks/test_micro_operations.py benchmarks/test_observability_overhead.py
	@echo "medians: benchmarks/results/BENCH_micro.json"
	@echo "overhead guard: benchmarks/results/BENCH_observability.json"

# One traced adaptive simulation: exports a JSONL trace and renders its
# summary (wavefront, tuner decisions, cache hit rates, phase timings).
trace-demo:
	PYTHONPATH=src python -m repro.cli trace --nodes 100 --rate 40 \
		--adaptive --duration 900 \
		--trace-out benchmarks/results/trace_demo.jsonl
	PYTHONPATH=src python -m repro.cli trace-summary benchmarks/results/trace_demo.jsonl

# Scale curve: compose p50/p99, overlay build time, and per-subsystem
# memory at N in {600, 2k, 5k, 10k, 50k} overlay nodes under the bounded
# configuration (LRU router caches, deduped batched topology build,
# locality-pruned candidate scoring at candidate_prune_k=auto), plus a
# prune-k ablation at N=5k.  Results land in
# benchmarks/results/BENCH_scale.json; EXPERIMENTS.md's Scalability
# section quotes them.  Budget ~1 hour on one core (the 50k point
# dominates); override the prune setting with BENCH_SCALE_PRUNE.
bench-scale:
	$(PYTEST) -q -s benchmarks/test_scale.py
	@echo "curve: benchmarks/results/BENCH_scale.json"

# Same harness at whatever N the caller sets via BENCH_SCALE_NODES
# (comma-separated); writes BENCH_scale_smoke.json so a smoke run can
# never clobber the committed full curve.  CI runs this at a small N
# with candidate_prune_k=auto so the pruned gather and widen counters
# are exercised on every push.
bench-scale-smoke:
	BENCH_SCALE_NODES=$${BENCH_SCALE_NODES:-300} $(PYTEST) -q -s benchmarks/test_scale.py
	@echo "smoke point: benchmarks/results/BENCH_scale_smoke.json"

# Fault-tolerance macro benchmark: the same Fig. 8-style simulation run
# under the full fault cocktail (node crashes, link flaps, lossy control
# plane, state-update loss) with and without crash-triggered session
# re-composition.  Survival figures land in
# benchmarks/results/BENCH_faults.json; the run asserts the resilient
# mode's session survival rate strictly exceeds the kill-on-fault
# baseline and that a zero-fault plan is decision-identical to no plan.
bench-faults:
	$(PYTEST) -q -s benchmarks/test_macro_faults.py
	@echo "survival: benchmarks/results/BENCH_faults.json"

# Population-scale workload sweep: the standard scenario set (steady,
# diurnal, flash_crowd) across 1x/10x/100x load multipliers on the mean
# active population.  Per-window SLO series (success, p50/p99 setup
# latency, admission pressure, session/queue gauges) land in
# benchmarks/results/BENCH_population.json; the run asserts the steady
# baseline is healthy at 1x and that 100x overload is non-degenerate
# (failures under contention, sessions piling up, no crash).  ~3 minutes.
bench-population:
	$(PYTEST) -q -s benchmarks/test_population.py
	@echo "sweep: benchmarks/results/BENCH_population.json"

# Same harness at whatever multipliers the caller sets via
# BENCH_POPULATION_MULTIPLIERS (comma-separated); writes
# BENCH_population_smoke.json so a smoke run can never clobber the
# committed full sweep.  CI runs this at 1x/10x on every push.
bench-population-smoke:
	BENCH_POPULATION_MULTIPLIERS=$${BENCH_POPULATION_MULTIPLIERS:-1,10} $(PYTEST) -q -s benchmarks/test_population.py
	@echo "smoke sweep: benchmarks/results/BENCH_population_smoke.json"

# Proactive-reconfiguration macro benchmark: the same diurnal +
# regional-spike simulation with crash recovery alone vs recovery plus
# hotspot-driven live session migration.  Figures (success, p99 setup,
# survival, and the migration cost ledger — paused-stream seconds, slack
# aborts, probe traffic) land in benchmarks/results/BENCH_migration.json;
# the run asserts proactive strictly beats recover-only on success rate
# with p99 no worse, that the costs were actually paid, and that a zero
# migration plan is decision-identical to no plan.  ~3 minutes.
bench-migration:
	$(PYTEST) -q -s benchmarks/test_macro_migration.py
	@echo "migration: benchmarks/results/BENCH_migration.json"

# Same harness at whatever horizon/system size the caller sets via
# BENCH_MIGRATION_DURATION / BENCH_MIGRATION_NODES; writes
# BENCH_migration_smoke.json so a smoke run can never clobber the
# committed full result.  CI runs a short horizon on every push.
bench-migration-smoke:
	BENCH_MIGRATION_DURATION=$${BENCH_MIGRATION_DURATION:-300} \
	BENCH_MIGRATION_NODES=$${BENCH_MIGRATION_NODES:-120} \
	$(PYTEST) -q -s benchmarks/test_macro_migration.py
	@echo "smoke: benchmarks/results/BENCH_migration_smoke.json"

# Full benchmark suite: every figure harness at FAST_SCALE plus the micro
# operations.  Figure rows land in benchmarks/results/*.txt.  The ~10-min
# scale curve is excluded; run it explicitly with bench-scale.
bench:
	$(PYTEST) -q --ignore=benchmarks/test_scale.py benchmarks
