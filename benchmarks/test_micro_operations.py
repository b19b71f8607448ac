"""Micro-benchmarks of the hot operations behind every figure.

These are classic pytest-benchmark timings (many rounds, statistics) of
the per-request building blocks: a single composition by each algorithm,
virtual-link routing queries, and φ(λ) evaluation.  They bound the cost of
scaling the simulation up and catch performance regressions in the core.
"""

import random

import pytest

from repro.core import (
    ACPComposer,
    CompositionEvaluator,
    OptimalComposer,
    RandomComposer,
)
from repro.experiments import EVALUATION_DEPLOYMENT
from repro.model.request import StreamRequest, derive_bandwidth_requirements
from repro.model.qos import DEFAULT_QOS_SCHEMA, QoSVector
from repro.model.resources import DEFAULT_RESOURCE_SCHEMA, ResourceVector
from repro.simulation import SystemConfig, build_system


@pytest.fixture(scope="module")
def system():
    return build_system(
        SystemConfig(
            num_routers=800,
            num_nodes=400,
            deployment=EVALUATION_DEPLOYMENT,
            seed=1,
        )
    )


@pytest.fixture(scope="module")
def context(system):
    return system.composition_context(rng=random.Random(3))


def request_for(system, request_id=0):
    template = system.templates[2]
    graph = template.graph
    stream_rate = 100.0
    return StreamRequest(
        request_id=request_id,
        function_graph=graph,
        qos_requirement=QoSVector(DEFAULT_QOS_SCHEMA, [500.0, 0.2]),
        node_requirements={
            i: ResourceVector(DEFAULT_RESOURCE_SCHEMA, [4.0, 25.0])
            for i in range(len(graph))
        },
        bandwidth_requirements=derive_bandwidth_requirements(
            graph, stream_rate, 2.0
        ),
        stream_rate=stream_rate,
    )


def test_acp_compose_latency(benchmark, system, context):
    composer = ACPComposer(context, probing_ratio=0.3)
    request = request_for(system)

    def compose():
        outcome = composer.compose(request)
        context.allocator.cancel_transient(request.request_id)
        return outcome

    outcome = benchmark(compose)
    assert outcome.success


def test_optimal_compose_latency(benchmark, system, context):
    composer = OptimalComposer(context, max_explored=5000)
    request = request_for(system, request_id=1)

    def compose():
        outcome = composer.compose(request)
        context.allocator.cancel_transient(request.request_id)
        return outcome

    outcome = benchmark(compose)
    assert outcome.success


def test_random_compose_latency(benchmark, system, context):
    composer = RandomComposer(context)
    request = request_for(system, request_id=2)

    def compose():
        outcome = composer.compose(request)
        context.allocator.cancel_transient(request.request_id)
        return outcome

    benchmark(compose)


def test_virtual_link_query_latency(benchmark, system):
    router = system.router
    n = len(system.network)
    rng = random.Random(0)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(256)]

    def query():
        total = 0.0
        for a, b in pairs:
            total += router.virtual_link_qos(a, b)["delay"]
        return total

    assert benchmark(query) >= 0.0


def test_phi_evaluation_latency(benchmark, system, context):
    evaluator = CompositionEvaluator(context)
    request = request_for(system, request_id=3)
    outcome = ACPComposer(context, probing_ratio=0.5).compose(request)
    context.allocator.cancel_transient(request.request_id)
    assert outcome.success
    composition = outcome.composition

    result = benchmark(lambda: evaluator.phi(composition))
    assert result > 0.0


def test_global_state_update_path_latency(benchmark, system):
    node = system.network.node(0)
    amount = ResourceVector(DEFAULT_RESOURCE_SCHEMA, [1.0, 5.0])

    def churn():
        node.allocate(amount)
        node.release(amount)

    benchmark(churn)
