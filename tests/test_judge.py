"""The one precise judgement behind every composer (Section 3.3, Eqs. 1, 3–5).

``CompositionEvaluator.judge`` answers a complete composition with the
first failure reason or its φ.  These tests hold it to a plain
per-placement recomputation on compositions where the aggregate
semantics matter: several of one request's placements on one node, and
virtual links that cross the same overlay link.  They also check that
admission moves exactly the graph's demand, and that the memo the
Optimal search shares across its leaves changes nothing.
"""

import random

import pytest

from repro.allocation.allocator import ResourceAllocator
from repro.core.composer import CompositionContext, CompositionEvaluator
from repro.core.optimal import OptimalComposer
from repro.discovery.registry import ComponentRegistry
from repro.model.function_graph import FunctionGraph
from repro.model.node import Node
from repro.model.qos import QoSVector
from repro.state.global_state import GlobalStateManager
from repro.topology.overlay import OverlayLink, OverlayNetwork
from repro.topology.routing import OverlayRouter
from tests.conftest import build_small_system, make_component, make_request, rv

#: (component id, catalog function, host node)
COMPONENTS = (
    (0, 0, 0),
    (1, 1, 0),
    (2, 2, 0),
    (3, 3, 0),
    (4, 1, 2),
    (5, 2, 2),
)

#: name -> (number of pipeline stages, component id per placement).  On
#: the line v0 - v1 - v2 every virtual link between v0 and v2 crosses
#: both overlay links, so the two cross-node virtual links of each
#: composition share e0 and e1.
COMPOSITIONS = {
    "two_on_v0": (3, (0, 4, 2)),
    "three_on_v0": (4, (0, 1, 5, 3)),
}


def line_context(catalog):
    nodes = [Node(n, router_id=n, capacity=rv(100, 1000)) for n in range(3)]
    links = [
        OverlayLink(0, 0, 1, delay_ms=10.0, loss_rate=0.001, capacity_kbps=10_000.0),
        OverlayLink(1, 1, 2, delay_ms=10.0, loss_rate=0.001, capacity_kbps=10_000.0),
    ]
    network = OverlayNetwork(nodes, links)
    registry = ComponentRegistry()
    for component_id, function, node_id in COMPONENTS:
        component = make_component(component_id, catalog[function], node_id)
        network.node(node_id).host(component)
        registry.register(component)
    router = OverlayRouter(network)
    return CompositionContext(
        network=network,
        router=router,
        registry=registry,
        allocator=ResourceAllocator(network, router),
        global_state=GlobalStateManager(network, threshold_fraction=0.1),
        rng=random.Random(0),
    )


def compose_by_hand(context, catalog, name, delay_budget=500.0):
    stages, component_ids = COMPOSITIONS[name]
    graph = FunctionGraph.path([catalog[f] for f in range(stages)])
    request = make_request(graph, request_id=9, delay_budget=delay_budget)
    assignment = {
        index: context.registry.component(component_id)
        for index, component_id in enumerate(component_ids)
    }
    return CompositionEvaluator(context).build_component_graph(request, assignment)


def plain_verdict(context, composition):
    """Eqs. 3–5 and Eq. 1 recomputed placement by placement and link by
    link, in the evaluator's float order, without the graph's demand."""
    request = composition.request
    graph = request.function_graph
    placements = [composition.component(i) for i in range(len(graph))]
    for path in graph.all_paths():
        total = QoSVector.zero()
        for position, index in enumerate(path):
            total = total.combine(context.precise_component_qos(placements[index]))
            if position + 1 < len(path):
                edge = (index, path[position + 1])
                total = total.combine(composition.virtual_link(edge).qos)
        if not total.satisfies(request.qos_requirement):
            return "qos_violation"
    demand = {}
    for index, component in enumerate(placements):
        need = request.requirement_for(index).values
        held = demand.get(component.node_id)
        demand[component.node_id] = (
            need if held is None else tuple(h + n for h, n in zip(held, need))
        )
    available = {
        node_id: context.allocator.available_excluding(
            request.request_id, node_id
        ).values
        for node_id in demand
    }
    for node_id, need in demand.items():
        if any(a < n - 1e-9 for a, n in zip(available[node_id], need)):
            return "node_resources"
    crossing = {}
    for edge in graph.edges:
        for link_id in composition.virtual_link(edge).overlay_link_ids:
            crossing[link_id] = crossing.get(link_id, 0.0) + request.bandwidth_for(edge)
    for link_id, kbps in crossing.items():
        if context.network.link(link_id).available_kbps < kbps - 1e-9:
            return "link_bandwidth"
    phi = 0.0
    for index, component in enumerate(placements):
        need = request.requirement_for(index).values
        terms = []
        for n, a, d in zip(need, available[component.node_id], demand[component.node_id]):
            rest = a - d + n
            terms.append(0.0 if n <= 0.0 else float("inf") if rest <= 0.0 else n / rest)
        phi += sum(terms)
    for edge in graph.edges:
        link_ids = composition.virtual_link(edge).overlay_link_ids
        bandwidth = request.bandwidth_for(edge)
        if not link_ids or bandwidth <= 0.0:
            continue
        bottleneck = min(context.network.link(i).available_kbps for i in link_ids)
        phi += float("inf") if bottleneck <= 0.0 else bandwidth / bottleneck
    return phi


def tighten(context, composition, node, link):
    """Leave v0 short of the summed demand of the placements on it but able
    to host any one of them, and e0 short of the summed bandwidth of the
    virtual links crossing it but able to carry any one of them."""
    node_demand, link_demand = composition.demand()
    if node:
        v0 = context.network.node(0)
        one = composition.request.requirement_for(0)
        assert node_demand[0].values[0] - 1.0 >= one.values[0]
        v0.allocate(rv(v0.capacity.values[0] - (node_demand[0].values[0] - 1.0), 0.0))
    if link:
        e0 = context.network.link(0)
        request = composition.request
        crossing = [
            request.bandwidth_for(edge)
            for edge, virtual in composition.virtual_links.items()
            if 0 in virtual.overlay_link_ids
        ]
        assert len(crossing) == 2
        target = (link_demand[0] + max(crossing)) / 2.0
        e0.allocate_bandwidth(e0.capacity_kbps - target)


#: state -> (delay budget, tighten v0, tighten e0, expected verdict kind);
#: every shortfall below is one the per-placement checks cannot see
STATES = {
    "free": (500.0, False, False, float),
    "link_short": (500.0, False, True, "link_bandwidth"),
    "node_and_link_short": (500.0, True, True, "node_resources"),
    "all_short": (5.0, True, True, "qos_violation"),
}


@pytest.mark.parametrize("state", sorted(STATES))
@pytest.mark.parametrize("name", sorted(COMPOSITIONS))
def test_judge_matches_plain_recomputation(catalog, name, state):
    context = line_context(catalog)
    delay_budget, node, link, expected = STATES[state]
    composition = compose_by_hand(context, catalog, name, delay_budget)
    # the request also holds a transient reservation, which the judge
    # must add back (pre-request availability)
    context.allocator.reserve_component(9, context.registry.component(0), rv(7, 30))
    tighten(context, composition, node, link)
    evaluator = CompositionEvaluator(context)
    verdict = evaluator.judge(composition, evaluator.reads(composition.request))
    want = plain_verdict(context, composition)
    if expected is float:
        assert isinstance(verdict, float) and isinstance(want, float)
        assert verdict.hex() == want.hex()
    else:
        assert verdict == want == expected


@pytest.mark.parametrize("name", sorted(COMPOSITIONS))
def test_demand_sums_co_located_placements_and_shared_links(catalog, name):
    context = line_context(catalog)
    composition = compose_by_hand(context, catalog, name)
    request = composition.request
    stages = len(request.function_graph)
    node_demand, link_demand = composition.demand()
    on_v0 = [i for i in range(stages) if composition.component(i).node_id == 0]
    want = request.requirement_for(on_v0[0])
    for index in on_v0[1:]:
        want = want + request.requirement_for(index)
    assert len(on_v0) == stages - 1
    assert node_demand[0] == want
    crossing = [
        edge
        for edge, virtual in composition.virtual_links.items()
        if virtual.overlay_link_ids
    ]
    assert len(crossing) == 2
    shared = request.bandwidth_for(crossing[0]) + request.bandwidth_for(crossing[1])
    assert link_demand == {0: shared, 1: shared}
    assert composition.demand() is composition.demand()


@pytest.mark.parametrize("name", sorted(COMPOSITIONS))
def test_commit_and_release_move_exactly_the_graph_demand(catalog, name):
    context = line_context(catalog)
    composition = compose_by_hand(context, catalog, name)
    network = context.network
    node_demand, link_demand = composition.demand()
    allocation = context.allocator.commit(composition)
    assert allocation.node_demands == node_demand
    assert allocation.link_demands == link_demand
    for node in network.nodes:
        assert node.allocated == node_demand.get(node.node_id, rv(0, 0))
    for link in network.links:
        assert link.allocated_kbps == link_demand.get(link.link_id, 0.0)
    context.allocator.release(allocation)
    assert all(node.allocated == rv(0, 0) for node in network.nodes)
    assert all(link.allocated_kbps == 0.0 for link in network.links)


def test_optimal_memo_shared_across_leaves_changes_nothing():
    """One set of live reads per search returns what fresh reads at every
    leaf return: the same composition, φ and explored count."""
    system = build_small_system(seed=3, num_nodes=12)
    context = system.composition_context(rng=random.Random(3))
    rng = random.Random(3)
    searched = 0
    for request_id in range(12):
        template = system.templates.sample(rng)
        request = make_request(
            template.graph, request_id=request_id, delay_budget=400.0,
            loss_budget=0.3, cpu=rng.uniform(2, 12),
        )
        shared = OptimalComposer(context).compose(request)
        fresh_composer = OptimalComposer(context)
        evaluator = fresh_composer.evaluator
        judge = evaluator.judge
        leaves = []

        def afresh(composition, reads, judge=judge, evaluator=evaluator, leaves=leaves):
            leaves.append(reads)
            return judge(composition, evaluator.reads(composition.request))

        evaluator.judge = afresh
        fresh = fresh_composer.compose(request)
        assert (shared.success, shared.phi, shared.explored) == (
            fresh.success, fresh.phi, fresh.explored,
        )
        assert shared.failure_reason == fresh.failure_reason
        if shared.success:
            searched += len(leaves) > 1
            assert shared.composition.components == fresh.composition.components
            context.allocator.commit(shared.composition)
    assert searched >= 3
