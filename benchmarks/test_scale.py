"""The scale curve: compose latency, build time, and memory to 10k nodes.

The paper evaluates up to ~500 overlay nodes (Fig. 7); the seed repo's
eager all-pairs router and unbounded per-source caches hit an O(N²)
memory wall around 600.  This harness measures the bounded configuration
(LRU tree cache, triangle-bounded topology build, incremental routing)
across N ∈ {600, 2000, 5000, 10000} and records, per point,

* overlay build time and router/scorer/global-state memory footprints,
* compose latency p50/p99 over a fixed batch of transient compositions,
* process peak RSS (``ru_maxrss``) after the point completes,

into ``benchmarks/results/BENCH_scale.json`` (``make bench-scale``).
EXPERIMENTS.md's Scalability section and DEVELOPMENT.md's complexity
budget quote these numbers.

The run also asserts the guarantees that make the frontier reachable at
all: the router's cached tree count and the neighbourhood index's entry
count never exceed their configured bounds.

Since the locality-pruned scorer landed the default curve runs with
``candidate_prune_k="auto"`` and extends to 50k nodes; a prune-k
ablation at N=5000 (full scan / auto / aggressive k=64) records how
compose p50, success rate, and widen-retry rate trade off, into the
same JSON under ``"ablation"``.

``BENCH_SCALE_NODES`` (comma-separated) overrides the curve for smoke
runs — CI uses a small N and the output lands in
``BENCH_scale_smoke.json`` so a smoke run can never clobber the real
curve.  ``BENCH_SCALE_PRUNE`` (``off``, ``auto``, or an integer)
overrides the prune setting for the whole curve.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import time

from repro.core import ACPComposer
from repro.model.qos import QoSVector
from repro.model.request import StreamRequest, derive_bandwidth_requirements
from repro.model.resources import DEFAULT_RESOURCE_SCHEMA, ResourceVector
from repro.simulation import SystemConfig, build_system

DEFAULT_NODES = (600, 2_000, 5_000, 10_000, 50_000)
COMPOSES_PER_POINT = 40
#: at-scale cache bounds: router memory stays O(256 × N) while the
#: paper-scale default (1024 > 600) never evicts and replays identically
SCALE_ROUTER_CACHE = 256
SCALE_ROW_CACHE = 256
#: the neighbourhood index obeys the same O(cache × k) contract
SCALE_NEIGHBORHOOD_CACHE = 256
#: the prune-k sweep: full scan, the auto heuristic, and an aggressive
#: fixed k that forces the widen-and-re-probe fallback to earn its keep
ABLATION_NODES = 5_000
ABLATION_SPECS = (("off", None), ("auto", "auto"), ("aggressive", 64))

REQUIRED_POINT_KEYS = {
    "num_nodes",
    "num_routers",
    "build_seconds",
    "compose_p50_ms",
    "compose_p99_ms",
    "composes",
    "successes",
    "prune_k",
    "widen_retries",
    "neighborhood_solves",
    "neighborhood_memory_bytes",
    "router_memory_bytes",
    "scorer_memory_bytes",
    "global_state_memory_bytes",
    "cached_trees",
    "tree_evictions",
    "peak_rss_kb",
}


def scale_points():
    """The N curve, overridable via BENCH_SCALE_NODES for smoke runs."""
    env = os.environ.get("BENCH_SCALE_NODES")
    if env:
        return tuple(int(field) for field in env.split(",")), True
    return DEFAULT_NODES, False


def prune_spec():
    """The curve-wide prune setting, overridable via BENCH_SCALE_PRUNE."""
    env = os.environ.get("BENCH_SCALE_PRUNE", "auto")
    if env in ("off", "none", ""):
        return None
    if env == "auto":
        return "auto"
    return int(env)


def percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[max(0, index)]


def request_for(system, request_id):
    template = system.templates[request_id % len(system.templates)]
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


def measure_point(num_nodes: int, prune=None) -> dict:
    num_routers = max(800, math.ceil(num_nodes * 1.2))
    config = SystemConfig(
        num_routers=num_routers,
        num_nodes=num_nodes,
        seed=num_nodes,  # distinct but reproducible meshes along the curve
        router_cache_size=SCALE_ROUTER_CACHE,
        scorer_row_cache_size=SCALE_ROW_CACHE,
        candidate_prune_k=prune,
        neighborhood_cache_size=SCALE_NEIGHBORHOOD_CACHE,
    )
    build_start = time.perf_counter()
    system = build_system(config)
    build_seconds = time.perf_counter() - build_start

    context = system.composition_context(rng=random.Random(17))
    composer = ACPComposer(context, probing_ratio=0.3)
    latencies_ms = []
    successes = 0
    for request_id in range(COMPOSES_PER_POINT):
        request = request_for(system, request_id)
        compose_start = time.perf_counter()
        outcome = composer.compose(request)
        latencies_ms.append((time.perf_counter() - compose_start) * 1e3)
        context.allocator.cancel_transient(request.request_id)
        successes += bool(outcome.success)

    # the memory bounds actually held while composing
    assert system.router.cached_tree_count <= SCALE_ROUTER_CACHE
    index = context._neighborhood_index
    if index is not None:
        assert index.cached_entry_count <= SCALE_NEIGHBORHOOD_CACHE

    latencies_ms.sort()
    point = {
        "num_nodes": num_nodes,
        "num_routers": num_routers,
        "build_seconds": round(build_seconds, 3),
        "compose_p50_ms": round(percentile(latencies_ms, 0.50), 3),
        "compose_p99_ms": round(percentile(latencies_ms, 0.99), 3),
        "composes": COMPOSES_PER_POINT,
        "successes": successes,
        "prune_k": context.candidate_prune_k,
        "widen_retries": context.fast_scorer().widen_retries,
        "neighborhood_solves": 0 if index is None else index.solves,
        "neighborhood_memory_bytes": (
            0 if index is None else index.memory_footprint()["total"]
        ),
        "router_memory_bytes": system.router.memory_footprint()["total"],
        "scorer_memory_bytes": context.fast_scorer().memory_footprint()["total"],
        "global_state_memory_bytes": system.global_state.memory_footprint()[
            "total"
        ],
        "cached_trees": system.router.cached_tree_count,
        "tree_evictions": system.router.tree_evictions,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }

    # free the point's listeners/caches before the next, larger one
    if index is not None:
        index.close()
    system.router.close()
    system.global_state.close()
    return point


def test_scale_curve(results_dir):
    nodes, smoke = scale_points()
    prune = prune_spec()
    points = []
    for num_nodes in nodes:
        point = measure_point(num_nodes, prune=prune)
        assert REQUIRED_POINT_KEYS <= set(point)
        if smoke:
            assert point["successes"] > 0, (
                f"no composition succeeded at N={num_nodes}"
            )
        else:
            assert point["successes"] == point["composes"], (
                f"composition failed at N={num_nodes}: "
                f"{point['successes']}/{point['composes']}"
            )
        points.append(point)
        print(
            f"\nN={num_nodes} (prune_k={point['prune_k']}): "
            f"build {point['build_seconds']}s, "
            f"compose p50 {point['compose_p50_ms']}ms "
            f"p99 {point['compose_p99_ms']}ms, "
            f"widen {point['widen_retries']}, "
            f"router {point['router_memory_bytes'] / 1e6:.1f}MB, "
            f"rss {point['peak_rss_kb'] / 1024:.0f}MB"
        )

    payload = {
        "router_cache_size": SCALE_ROUTER_CACHE,
        "scorer_row_cache_size": SCALE_ROW_CACHE,
        "neighborhood_cache_size": SCALE_NEIGHBORHOOD_CACHE,
        "candidate_prune_k": "off" if prune is None else prune,
        "composes_per_point": COMPOSES_PER_POINT,
        "points": points,
    }

    # prune-k ablation: what the locality pruning buys and what the
    # widen fallback costs, at a fixed mid-curve N
    if not smoke:
        ablation = []
        for label, spec in ABLATION_SPECS:
            entry = measure_point(ABLATION_NODES, prune=spec)
            entry["label"] = label
            entry["success_rate"] = entry["successes"] / entry["composes"]
            entry["widen_retry_rate"] = round(
                entry["widen_retries"] / entry["composes"], 3
            )
            ablation.append(entry)
            print(
                f"\nablation {label} (prune_k={entry['prune_k']}): "
                f"p50 {entry['compose_p50_ms']}ms, "
                f"success {entry['success_rate']:.2f}, "
                f"widen/compose {entry['widen_retry_rate']}"
            )
        payload["ablation"] = ablation

    name = "BENCH_scale_smoke.json" if smoke else "BENCH_scale.json"
    (results_dir / name).write_text(json.dumps(payload, indent=2) + "\n")

    # the curve actually reached the pruned-scoring frontier unless
    # smoke-overridden
    if not smoke:
        assert max(p["num_nodes"] for p in points) >= 50_000
