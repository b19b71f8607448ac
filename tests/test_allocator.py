"""Unit tests for transient reservations and session allocation."""

import pytest

from repro.allocation.allocator import AdmissionError, ResourceAllocator
from repro.core.composer import CompositionEvaluator
from repro.model.function_graph import FunctionGraph
from tests.conftest import make_request, rv


@pytest.fixture
def allocator(micro_network, micro_router):
    return ResourceAllocator(micro_network, micro_router, transient_timeout_s=10.0)


@pytest.fixture
def components(micro_network):
    by_id = {}
    for node in micro_network.nodes:
        for component in node.components:
            by_id[component.component_id] = component
    return by_id


class TestTransientReservations:
    def test_reserve_consumes_resources(self, micro_network, allocator, components):
        assert allocator.reserve_component(1, components[0], rv(5, 20))
        assert micro_network.node(0).available == rv(95, 980)

    def test_idempotent_per_component(self, micro_network, allocator, components):
        allocator.reserve_component(1, components[0], rv(5, 20))
        assert allocator.reserve_component(1, components[0], rv(5, 20))
        # footnote 7: reserved once, not twice
        assert micro_network.node(0).available == rv(95, 980)

    def test_insufficient_resources_refused(self, allocator, components):
        node_id = components[1].node_id
        before = allocator.available_excluding(1, node_id)
        assert not allocator.reserve_component(1, components[1], rv(500, 20))
        # a refused probe holds nothing that could be added back
        assert allocator.available_excluding(1, node_id) == before

    def test_available_excluding_adds_back_own_holdings(
        self, allocator, components
    ):
        allocator.reserve_component(1, components[0], rv(5, 20))
        assert allocator.available_excluding(1, 0) == rv(100, 1000)
        # a different request sees the reduced availability
        assert allocator.available_excluding(2, 0) == rv(95, 980)

    def test_cancel_releases_everything(self, micro_network, allocator, components):
        allocator.reserve_component(1, components[0], rv(5, 20))
        allocator.reserve_component(1, components[1], rv(5, 20))
        allocator.cancel_transient(1)
        assert micro_network.node(0).available == rv(100, 1000)
        assert micro_network.node(1).available == rv(50, 500)

    def test_cancel_unknown_request_is_noop(self, allocator):
        allocator.cancel_transient(42)  # must not raise

    def test_expiry(self, micro_network, allocator, components):
        allocator.reserve_component(1, components[0], rv(5, 20), now=0.0)
        assert allocator.expire_due(5.0) == []
        expired = allocator.expire_due(10.0)
        assert expired == [1]
        assert micro_network.node(0).available == rv(100, 1000)
        assert allocator.expired_reservations == 1

    def test_new_reservation_extends_deadline(self, allocator, components):
        allocator.reserve_component(1, components[0], rv(5, 20), now=0.0)
        allocator.reserve_component(1, components[1], rv(5, 20), now=8.0)
        assert allocator.expire_due(12.0) == []  # deadline moved to 18
        assert allocator.expire_due(18.0) == [1]


@pytest.fixture
def composition(catalog, micro_context):
    """F0→c0@v0, F1→c1@v1 composed through the evaluator."""
    graph = FunctionGraph.path([catalog[0], catalog[1]])
    request = make_request(graph, stream_rate=100.0, kbps_per_unit=2.0)
    evaluator = CompositionEvaluator(micro_context)
    registry = micro_context.registry
    assignment = {
        0: registry.component(0),
        1: registry.component(1),
    }
    return evaluator.build_component_graph(request, assignment)


class TestSessions:
    def test_commit_allocates_nodes_and_links(
        self, micro_network, allocator, composition
    ):
        allocation = allocator.commit(composition)
        assert micro_network.node(0).available == rv(95, 980)
        assert micro_network.node(1).available == rv(45, 480)
        # bandwidth on the overlay link v0-v1 (link 0): rate 100 * 0.6
        # selectivity of catalog[0] (filtering) * 2 kbps/unit
        expected_bw = composition.request.bandwidth_for((0, 1))
        assert micro_network.link(0).available_kbps == pytest.approx(
            10_000.0 - expected_bw
        )
        assert allocator.session(0) is allocation
        assert allocator.active_session_count == 1

    def test_commit_cancels_transient_first(
        self, micro_network, allocator, composition, components
    ):
        request_id = composition.request.request_id
        allocator.reserve_component(request_id, components[0], rv(5, 20))
        allocator.reserve_component(request_id, components[2], rv(5, 20))
        allocator.commit(composition)
        # the losing reservation on v2 was released
        assert micro_network.node(2).available == rv(100, 1000)

    def test_release_restores_everything(self, micro_network, allocator, composition):
        snapshot = [node.available for node in micro_network.nodes]
        bw_snapshot = [link.available_kbps for link in micro_network.links]
        allocation = allocator.commit(composition)
        allocator.release(allocation)
        assert [n.available for n in micro_network.nodes] == snapshot
        assert [l.available_kbps for l in micro_network.links] == bw_snapshot
        assert allocator.active_session_count == 0

    def test_double_release_rejected(self, allocator, composition):
        allocation = allocator.commit(composition)
        allocator.release(allocation)
        with pytest.raises(ValueError, match="already released"):
            allocator.release(allocation)

    def test_double_commit_rejected(self, allocator, composition):
        allocator.commit(composition)
        with pytest.raises(AdmissionError, match="already has a session"):
            allocator.commit(composition)

    def test_commit_insufficient_node_resources(
        self, micro_network, allocator, composition
    ):
        micro_network.node(1).allocate(rv(48, 490))  # nearly full
        with pytest.raises(AdmissionError, match="cannot admit"):
            allocator.commit(composition)
        # nothing leaked
        assert micro_network.node(0).available == rv(100, 1000)

    def test_commit_insufficient_bandwidth(
        self, micro_network, allocator, composition
    ):
        micro_network.link(0).allocate_bandwidth(9_990.0)
        with pytest.raises(AdmissionError, match="cannot admit"):
            allocator.commit(composition)
        assert micro_network.node(0).available == rv(100, 1000)
        assert micro_network.node(1).available == rv(50, 500)

    def test_co_located_composition_aggregates_node_demand(
        self, catalog, micro_context, allocator, micro_network
    ):
        graph = FunctionGraph.path([catalog[1]])
        request = make_request(graph, cpu=30.0, memory=100.0)
        evaluator = CompositionEvaluator(micro_context)
        assignment = {0: micro_context.registry.component(1)}
        composition = evaluator.build_component_graph(request, assignment)
        allocator.commit(composition)
        assert micro_network.node(1).available == rv(20, 400)

    def test_invalid_timeout(self, micro_network, micro_router):
        with pytest.raises(ValueError, match="timeout"):
            ResourceAllocator(micro_network, micro_router, transient_timeout_s=0.0)
