# Convenience entry points; everything runs with src/ on PYTHONPATH so no
# install step is needed.

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test lint check docs-seeds bench bench-micro bench-scale bench-scale-smoke spec-check perf-smoke perf-pairs trace-demo

test:
	$(PYTEST) -x tests

# The aggregate PR gate: static analysis (repro-lint always; mypy/ruff
# when installed), the tier-1 suite, then the benchmark's self-tests
# (perfbench/tests: its tracing wrappers, workloads and harness against
# today's program).  One command == what CI enforces.
check: lint test
	python -m pytest perfbench/tests

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
# configuration (LRU router caches, triangle-bounded topology build,
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

# The behavioural spec: the committed figure, ablation and macro results.
# Reruns every benchmark that writes them, with all its assertions, then
# fails if any file differs from the committed one (the diff names each
# file and line).  The figure and macro files come from the entries of
# repro.experiments.EXPERIMENTS (`repro-experiments NAME -o
# benchmarks/results` writes the same bytes).  About 20 minutes serially
# on a 2-core host.  The committed bytes come from Python 3.11.7 with
# numpy 2.4.6 and scipy 1.17.1 (CI's spec-check job pins the same); other
# versions may move trailing float digits, e.g. through scipy's Dijkstra
# tie-breaking or numpy's summation order.
SPEC_BENCHMARKS := benchmarks/test_fig5_probing_ratio.py \
	benchmarks/test_fig6_efficiency.py benchmarks/test_fig7_scalability.py \
	benchmarks/test_fig8_adaptability.py benchmarks/test_ablation_extensions.py \
	benchmarks/test_ablation_selection.py benchmarks/test_ablation_state_threshold.py \
	benchmarks/test_macro_faults.py benchmarks/test_population.py \
	benchmarks/test_macro_migration.py
SPEC_FILES := benchmarks/results/fig*.txt benchmarks/results/ablation_*.txt \
	benchmarks/results/BENCH_faults.json benchmarks/results/BENCH_population.json \
	benchmarks/results/BENCH_migration.json

spec-check:
	$(PYTEST) -q $(SPEC_BENCHMARKS)
	git diff --exit-code -- $(SPEC_FILES)

# Decision smoke of perfbench's two gated workloads at seed 1: scale-2000
# for 19.5 s (3 episodes, 243 finds, so its p95 resolves) and faults-400
# for 18 s, about 25 s together.  Each run must exit 0 (resources
# conserved after the drain, every percentile resolved) and print the
# digest pinned below, the digest of the committed decisions under Python
# 3.11.7, numpy 2.4.6 and scipy 1.17.1 (the versions CI's spec-check job
# pins).  It is the only check that runs neighbourhood evictions and
# re-solves at N = 2000.  Entries are workload:seconds:digest.
PERF_SMOKE := \
	scale-2000:19.5:4f203379982b8f1f1a7114db6a73d61aa3192502ee7dbbd1f0dcd53bacdb4141 \
	faults-400:18:a2cb3a154beab5e24d4f81902c451e331a94904604eaac4c5dd19e47c7e77fff

perf-smoke:
	@for run in $(PERF_SMOKE); do \
		workload=$${run%%:*}; rest=$${run#*:}; seconds=$${rest%%:*}; want=$${rest#*:}; \
		out=$$(python perfbench/run.py --workload $$workload --seed 1 \
			--seconds $$seconds --trace 0) || { echo "$$out"; \
			echo "perf-smoke: $$workload exited non-zero"; exit 1; }; \
		got=$$(echo "$$out" | sed -n 's/^digest //p'); \
		if [ "$$got" != "$$want" ]; then echo "$$out"; \
			echo "perf-smoke: $$workload digest $$got, pinned $$want"; exit 1; fi; \
		echo "perf-smoke: $$workload seed 1 digest $$got as pinned"; \
	done

# Alternating perfbench pairs of BASE (a git ref) against this checkout:
# WORKLOAD at each of SEEDS (e.g. 2-11), BENCHMARK.json's run_seconds per
# run, alternating which side runs first.  Prints each side's failed
# finds, each end-to-end metric's medians and quartiles, the change's
# wins, whether a gain claim holds (9/10 wins, a median difference above
# the base IQR, no larger share of failed finds) and whether a median is
# worse than its BENCHMARK.json bound (or unresolved, the base spreading
# wider than the bound); fails on a failed run or differing digests.
# About 40 s per seed (one pair) on a 2-core host.
BASE ?= HEAD
WORKLOAD ?= faults-400
SEEDS ?= 2-11

perf-pairs:
	python benchmarks/perf_pairs.py --base $(BASE) --workload $(WORKLOAD) --seeds "$(SEEDS)"

# Full benchmark suite: every figure harness at FAST_SCALE plus the micro
# operations.  Figure rows land in benchmarks/results/*.txt.  The ~10-min
# scale curve is excluded; run it explicitly with bench-scale.
bench:
	$(PYTEST) -q --ignore=benchmarks/test_scale.py benchmarks
