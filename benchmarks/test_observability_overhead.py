"""Overhead guard for the observability layer.

Every hot-path instrumentation site is gated on ``recorder.enabled``, so
with the default :data:`NULL_RECORDER` a compose pays only boolean guard
checks.  This benchmark proves that budget holds on the same operation
``bench-micro`` times (one ACP composition on the 800-router evaluation
system):

* measure the median compose latency with the null recorder and with a
  live :class:`TraceRecorder` (the *enabled* cost, reported for context);
* measure the cost of one ``if recorder.enabled:`` guard in isolation;
* bound the disabled-path overhead per compose as
  ``guarded sites per compose x guard cost`` — the site count is taken
  from a traced compose (every emitted event or counter bump crossed at
  least one guard, so the count is an upper bound) — and assert it is
  at most 5 % of the null-recorder compose median.

The guard-cost x site-count bound is deliberate: there is no
un-instrumented build to A/B against, and cross-run wall-clock diffs on
shared CI runners are noise.  Numbers land in
``benchmarks/results/BENCH_observability.json``.
"""

import json
import random
import statistics
from time import perf_counter

from repro.core import ACPComposer
from repro.experiments import EVALUATION_DEPLOYMENT
from repro.model.request import StreamRequest, derive_bandwidth_requirements
from repro.model.qos import QoSVector
from repro.model.resources import DEFAULT_RESOURCE_SCHEMA, ResourceVector
from repro.observability import NULL_RECORDER, TraceRecorder
from repro.simulation import SystemConfig, build_system

ROUNDS = 40
MAX_DISABLED_OVERHEAD = 0.05


def _request_for(system, request_id=0):
    template = system.templates[2]
    graph = template.graph
    stream_rate = 100.0
    return StreamRequest(
        request_id=request_id,
        function_graph=graph,
        qos_requirement=QoSVector(500.0, 0.2),
        node_requirements={
            i: ResourceVector(DEFAULT_RESOURCE_SCHEMA, [4.0, 25.0])
            for i in range(len(graph))
        },
        bandwidth_requirements=derive_bandwidth_requirements(
            graph, stream_rate, 2.0
        ),
        stream_rate=stream_rate,
    )


def _median_compose_s(system, recorder=None):
    """Median latency of one ACP compose (+ transient cancel) in seconds."""
    context = system.composition_context(
        rng=random.Random(3), recorder=recorder
    )
    composer = ACPComposer(context, probing_ratio=0.3)
    request = _request_for(system)
    timings = []
    for _ in range(5):  # warm the fastscore caches before timing
        composer.compose(request)
        context.allocator.cancel_transient(request.request_id)
    for _ in range(ROUNDS):
        start = perf_counter()
        outcome = composer.compose(request)
        context.allocator.cancel_transient(request.request_id)
        timings.append(perf_counter() - start)
        assert outcome.success
    return statistics.median(timings)


def _guard_cost_s():
    """Cost of one ``if recorder.enabled:`` check on the null recorder."""
    recorder = NULL_RECORDER
    n = 200_000
    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        for _ in range(n):
            if recorder.enabled:
                raise AssertionError("null recorder must stay disabled")
        guarded = perf_counter() - start
        start = perf_counter()
        for _ in range(n):
            pass
        baseline = perf_counter() - start
        best = min(best, max(guarded - baseline, 0.0) / n)
    return best


def _guarded_sites_per_compose(system):
    """Upper bound on guard checks one compose executes.

    Every trace event and every counter increment a traced compose
    produces sits behind at least one ``recorder.enabled`` guard, so
    their combined count bounds the guards the disabled path crosses.
    """
    recorder = TraceRecorder()
    context = system.composition_context(
        rng=random.Random(3), recorder=recorder
    )
    composer = ACPComposer(context, probing_ratio=0.3)
    request = _request_for(system)
    composer.compose(request)  # warm-up: table rebuilds happen here
    context.allocator.cancel_transient(request.request_id)
    before_events = len(recorder.events)
    before_counts = sum(
        recorder.registry.snapshot()["counters"].values()
    )
    composer.compose(request)
    context.allocator.cancel_transient(request.request_id)
    events = len(recorder.events) - before_events
    counts = sum(
        recorder.registry.snapshot()["counters"].values()
    ) - before_counts
    assert events > 0, "traced compose emitted no events"
    return events + counts


def test_null_recorder_overhead_bound(results_dir):
    system = build_system(
        SystemConfig(
            num_routers=800,
            num_nodes=400,
            deployment=EVALUATION_DEPLOYMENT,
            seed=1,
        )
    )
    null_median = _median_compose_s(system)
    traced_median = _median_compose_s(system, recorder=TraceRecorder())
    guard_cost = _guard_cost_s()
    sites = _guarded_sites_per_compose(system)
    disabled_fraction = (sites * guard_cost) / null_median

    results = {
        "compose_null_median_s": null_median,
        "compose_traced_median_s": traced_median,
        "traced_overhead_ratio": traced_median / null_median,
        "guard_cost_ns": guard_cost * 1e9,
        "guarded_sites_per_compose": sites,
        "disabled_overhead_fraction": disabled_fraction,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
    }
    path = results_dir / "BENCH_observability.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(
        f"\nnull compose median {null_median * 1e3:.3f}ms, traced "
        f"{traced_median * 1e3:.3f}ms ({results['traced_overhead_ratio']:.2f}x); "
        f"disabled-path bound {disabled_fraction:.4%} "
        f"({sites} guards x {guard_cost * 1e9:.1f}ns)"
    )
    assert disabled_fraction <= MAX_DISABLED_OVERHEAD, (
        f"disabled observability path bound {disabled_fraction:.4%} exceeds "
        f"{MAX_DISABLED_OVERHEAD:.0%} of the compose median"
    )
