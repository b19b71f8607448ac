"""Property-based tests of cross-module invariants (hypothesis).

These complement the per-module unit tests with randomised invariants:

* the allocator conserves resources under arbitrary interleavings of
  reserve / cancel / expire / commit / release;
* φ(λ) is non-negative, monotone in load, and infinite exactly on
  saturation;
* the probing wavefront never exceeds its per-function probe budget and
  never returns an unqualified composition;
* the probing-ratio tuner keeps α on its grid, inside [base, max], and
  monotone non-decreasing under sustained shortfall;
* the metrics collector's window accounting loses no requests across
  arbitrary idle/busy window sequences.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.allocation.allocator import AdmissionError, ResourceAllocator
from repro.core import ACPComposer, CompositionEvaluator, OptimalComposer
from repro.core.selection import probe_budget
from repro.core.tuning import ProbingRatioTuner
from repro.simulation.metrics import MetricsCollector, RequestRecord
from repro.model.function_graph import FunctionGraph
from repro.model.functions import FunctionCatalog
from repro.model.node import Node
from repro.topology.overlay import OverlayLink, OverlayNetwork
from repro.topology.routing import OverlayRouter
from tests.conftest import build_small_system, make_component, make_request, rv


# -- allocator conservation under random operation sequences -----------------


def fresh_micro():
    catalog = FunctionCatalog(size=4, num_formats=1)
    nodes = [Node(i, i, rv(100, 1000)) for i in range(3)]
    links = [
        OverlayLink(0, 0, 1, 10.0, 0.001, 10_000.0),
        OverlayLink(1, 1, 2, 10.0, 0.001, 10_000.0),
        OverlayLink(2, 0, 2, 25.0, 0.002, 10_000.0),
    ]
    network = OverlayNetwork(nodes, links)
    components = [
        make_component(i, catalog[i % 2], i % 3) for i in range(6)
    ]
    for component in components:
        network.node(component.node_id).host(component)
    router = OverlayRouter(network)
    return network, router, components


operation = st.tuples(
    st.sampled_from(["reserve", "cancel", "expire"]),
    st.integers(min_value=0, max_value=3),  # request id
    st.integers(min_value=0, max_value=5),  # component index
    st.floats(min_value=0.5, max_value=30.0),  # cpu amount
)


@given(st.lists(operation, max_size=40))
@settings(max_examples=60, deadline=None)
def test_allocator_conserves_resources(operations):
    network, router, components = fresh_micro()
    allocator = ResourceAllocator(network, router, transient_timeout_s=5.0)
    clock = 0.0
    for action, request_id, component_index, cpu in operations:
        clock += 1.0
        component = components[component_index]
        if action == "reserve":
            allocator.reserve_component(
                request_id, component, rv(cpu, cpu * 4), now=clock
            )
        elif action == "cancel":
            allocator.cancel_transient(request_id)
        else:
            allocator.expire_due(clock)
    # cancel everything and verify exact conservation
    for request_id in list(allocator.transient_request_ids):
        allocator.cancel_transient(request_id)
    for node in network.nodes:
        assert all(abs(v) < 1e-6 for v in node.allocated.values)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_commit_release_roundtrip_preserves_state(seed):
    network, router, components = fresh_micro()
    allocator = ResourceAllocator(network, router)
    rng = random.Random(seed)
    catalog_fns = [components[0].function, components[1].function]
    graph = FunctionGraph.path(catalog_fns)
    request = make_request(graph, request_id=seed, cpu=rng.uniform(1, 10))
    # any assignment respecting functions
    candidates0 = [c for c in components if c.function is catalog_fns[0]]
    candidates1 = [c for c in components if c.function is catalog_fns[1]]
    assignment = {0: rng.choice(candidates0), 1: rng.choice(candidates1)}
    if assignment[0].component_id == assignment[1].component_id:
        return
    links = {
        (0, 1): router.virtual_link(
            assignment[0].node_id, assignment[1].node_id
        )
    }
    from repro.model.component_graph import ComponentGraph

    composition = ComponentGraph(request, assignment, links)
    before_nodes = [node.available for node in network.nodes]
    before_links = [link.available_kbps for link in network.links]
    try:
        allocation = allocator.commit(composition)
    except AdmissionError:
        return
    allocator.release(allocation)
    assert [n.available for n in network.nodes] == before_nodes
    assert [l.available_kbps for l in network.links] == before_links


# -- φ properties ------------------------------------------------------------


@given(st.integers(min_value=0, max_value=9999))
@settings(max_examples=20, deadline=None)
def test_phi_nonnegative_and_selected_compositions_feasible(seed):
    system = build_small_system(seed=seed % 7, num_nodes=10)
    context = system.composition_context(rng=random.Random(seed))
    evaluator = CompositionEvaluator(context)
    rng = random.Random(seed)
    template = system.templates.sample(rng)
    request = make_request(
        template.graph, request_id=seed, delay_budget=500.0, loss_budget=0.4
    )
    outcome = ACPComposer(context, probing_ratio=1.0).compose(request)
    context.allocator.cancel_transient(request.request_id)
    if not outcome.success:
        return
    assert outcome.phi >= 0.0
    verdict = evaluator.judge(outcome.composition, evaluator.reads(request))
    assert not isinstance(verdict, str), f"selected composition infeasible: {verdict}"


@given(st.integers(min_value=0, max_value=9999))
@settings(max_examples=15, deadline=None)
def test_optimal_never_worse_than_acp(seed):
    """On identical state, the exact optimum's φ lower-bounds ACP's pick."""
    system = build_small_system(seed=seed % 5, num_nodes=10)
    rng = random.Random(seed)
    template = system.templates.sample(rng)
    request = make_request(
        template.graph, request_id=seed, delay_budget=500.0, loss_budget=0.4
    )
    context = system.composition_context(rng=random.Random(seed))
    optimal = OptimalComposer(context).compose(request)
    context.allocator.cancel_transient(request.request_id)
    acp = ACPComposer(context, probing_ratio=1.0).compose(request)
    context.allocator.cancel_transient(request.request_id)
    if optimal.success and acp.success:
        assert optimal.phi <= acp.phi + 1e-6


# -- probe budget invariants ---------------------------------------------------


@given(st.integers(min_value=0, max_value=9999))
@settings(max_examples=20, deadline=None)
def test_probe_messages_respect_budget(seed):
    """Total probe messages ≤ Σ_functions M_j + returning probes."""
    system = build_small_system(seed=seed % 5, num_nodes=10)
    context = system.composition_context(rng=random.Random(seed))
    rng = random.Random(seed)
    template = system.templates.sample(rng)
    request = make_request(
        template.graph, request_id=seed, delay_budget=500.0, loss_budget=0.4
    )
    ratio = rng.choice([0.1, 0.3, 0.5, 1.0])
    composer = ACPComposer(context, probing_ratio=ratio)
    outcome = composer.compose(request)
    context.allocator.cancel_transient(request.request_id)
    graph = request.function_graph
    bound = sum(
        probe_budget(ratio, context.registry.candidate_count(graph.node(i).function))
        for i in range(len(graph))
        if context.registry.candidate_count(graph.node(i).function) > 0
    )
    # + returning probes (≤ the last level's budget)
    assert outcome.probe_messages <= 2 * bound


# -- probing-ratio tuner invariants -------------------------------------------


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_tuner_ratio_stays_on_grid_and_in_range(samples):
    """Whatever success rates arrive, α stays on the 0.1 grid and inside
    [base_ratio, max_ratio]."""
    tuner = ProbingRatioTuner(target_success_rate=0.9, max_ratio=0.8)
    for success_rate in samples:
        ratio = tuner.record_sample(success_rate)
        assert tuner.base_ratio - 1e-9 <= ratio <= tuner.max_ratio + 1e-9
        steps = ratio / tuner.step
        assert abs(steps - round(steps)) < 1e-6, f"off-grid ratio {ratio}"


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_tuner_monotone_under_sustained_shortfall(samples):
    """While every measurement misses the target, α never moves down."""
    tuner = ProbingRatioTuner(target_success_rate=0.9)
    previous = tuner.current_ratio()
    for success_rate in samples:
        ratio = tuner.record_sample(success_rate)
        assert ratio >= previous - 1e-9
        previous = ratio


# -- metrics window accounting -------------------------------------------------


window_sequence = st.lists(
    st.lists(st.booleans(), max_size=8), min_size=1, max_size=12
)


@given(window_sequence)
@settings(max_examples=100, deadline=None)
def test_metrics_window_accounting(windows):
    """Across arbitrary idle/busy window sequences: every request lands in
    exactly one window, busy windows report their own rate, and idle
    windows carry the previous rate forward (1.0 at the very start)."""
    collector = MetricsCollector()
    request_id = 0
    now = 0.0
    for outcomes in windows:
        for success in outcomes:
            collector.record(
                RequestRecord(
                    request_id=request_id,
                    arrival_time=now,
                    success=success,
                    probe_messages=1,
                    setup_messages=1,
                    explored=1,
                )
            )
            request_id += 1
        now += 300.0
        sample = collector.close_window(now)
        assert sample.requests == len(outcomes)
        if outcomes:
            assert sample.success_rate == pytest.approx(
                sum(outcomes) / len(outcomes)
            )
        else:
            previous = collector.window_samples[-2:-1]
            expected = previous[0].success_rate if previous else 1.0
            assert sample.success_rate == expected
    assert sum(s.requests for s in collector.window_samples) == request_id
    assert len(collector.records) == request_id
    assert collector.success_count() == sum(
        1 for r in collector.records if r.success
    )
