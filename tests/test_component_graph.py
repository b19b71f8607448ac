"""Unit tests for composed component graphs."""

import math

import pytest

from repro.model.component_graph import ComponentGraph, VirtualLinkPath
from repro.model.function_graph import FunctionGraph
from repro.model.resources import ResourceSchema, ResourceSpec, ResourceVector
from tests.conftest import make_component, make_request, qv, rv


def vl(src, dst, link_ids=(), delay=0.0, loss=0.0):
    return VirtualLinkPath(src, dst, tuple(link_ids), qv(delay, loss))


@pytest.fixture
def graph(catalog):
    return FunctionGraph.path([catalog[0], catalog[1]])


@pytest.fixture
def composed(catalog, graph):
    """F0 → c0@v0, F1 → c1@v1, one virtual link of 10 ms."""
    request = make_request(graph)
    assignment = {
        0: make_component(0, catalog[0], 0, delay=10.0, loss=0.01),
        1: make_component(1, catalog[1], 1, delay=20.0, loss=0.02),
    }
    links = {(0, 1): vl(0, 1, [5], delay=10.0, loss=0.005)}
    return ComponentGraph(request, assignment, links)


class TestValidation:
    def test_incomplete_assignment_rejected(self, catalog, graph):
        request = make_request(graph)
        with pytest.raises(ValueError, match="must cover every function"):
            ComponentGraph(request, {0: make_component(0, catalog[0], 0)}, {})

    def test_wrong_function_rejected(self, catalog, graph):
        request = make_request(graph)
        assignment = {
            0: make_component(0, catalog[0], 0),
            1: make_component(1, catalog[2], 1),  # wrong function for F1
        }
        with pytest.raises(ValueError, match="Eq. 2"):
            ComponentGraph(request, assignment, {(0, 1): vl(0, 1)})

    def test_missing_link_rejected(self, catalog, graph):
        request = make_request(graph)
        assignment = {
            0: make_component(0, catalog[0], 0),
            1: make_component(1, catalog[1], 1),
        }
        with pytest.raises(ValueError, match="links must cover"):
            ComponentGraph(request, assignment, {})

    def test_link_endpoint_mismatch_rejected(self, catalog, graph):
        request = make_request(graph)
        assignment = {
            0: make_component(0, catalog[0], 0),
            1: make_component(1, catalog[1], 1),
        }
        with pytest.raises(ValueError, match="starts at"):
            ComponentGraph(request, assignment, {(0, 1): vl(9, 1)})


class TestAccessors:
    def test_components_in_placement_order(self, composed):
        assert [c.component_id for c in composed.components] == [0, 1]

    def test_node_ids_deduplicated(self, catalog, graph):
        request = make_request(graph)
        assignment = {
            0: make_component(0, catalog[0], 3),
            1: make_component(1, catalog[1], 3),
        }
        composed = ComponentGraph(request, assignment, {(0, 1): vl(3, 3)})
        assert composed.node_ids() == (3,)

    def test_virtual_link_lookup(self, composed):
        assert composed.virtual_link((0, 1)).overlay_link_ids == (5,)

    def test_co_located_flag(self):
        assert vl(1, 1).co_located
        assert not vl(1, 2, [4]).co_located


class TestQoSAggregation:
    def test_path_qos_sums_components_and_links(self, composed):
        qos = composed.path_qos()[(0, 1)]
        assert qos.delay == pytest.approx(40.0)
        expected_loss = 1 - (1 - 0.01) * (1 - 0.005) * (1 - 0.02)
        assert qos.loss_rate == pytest.approx(expected_loss)

    def test_qos_satisfied_against_budget(self, composed):
        assert composed.qos_satisfied()  # budget 200ms / 0.2 from make_request

    def test_qos_violation_detected(self, catalog, graph):
        request = make_request(graph, delay_budget=30.0)
        assignment = {
            0: make_component(0, catalog[0], 0, delay=25.0),
            1: make_component(1, catalog[1], 1, delay=25.0),
        }
        composed = ComponentGraph(request, assignment, {(0, 1): vl(0, 1)})
        assert not composed.qos_satisfied()

    def test_component_qos_override(self, composed):
        override = {0: qv(100.0, 0.0), 1: qv(150.0, 0.0)}
        qos = composed.worst_path_qos(override)
        assert qos.delay == pytest.approx(260.0)  # 100 + 10 (link) + 150

    def test_worst_path_qos_takes_critical_path(self, catalog):
        dag = FunctionGraph.two_branch(
            catalog[0], [catalog[1]], [catalog[2]], catalog[3]
        )
        request = make_request(dag)
        assignment = {
            0: make_component(0, catalog[0], 0, delay=10.0),
            1: make_component(1, catalog[1], 1, delay=50.0),  # slow branch
            2: make_component(2, catalog[2], 2, delay=5.0),
            3: make_component(3, catalog[3], 0, delay=10.0),
        }
        links = {
            (0, 1): vl(0, 1, [0], delay=1.0),
            (0, 2): vl(0, 2, [1], delay=1.0),
            (1, 3): vl(1, 0, [2], delay=1.0),
            (2, 3): vl(2, 0, [3], delay=1.0),
        }
        composed = ComponentGraph(request, assignment, links)
        # critical path: 10 + 1 + 50 + 1 + 10
        assert composed.worst_path_qos().delay == pytest.approx(72.0)


class TestCongestionAggregation:
    def test_fig4_style_example(self, catalog, graph):
        """Single-resource version of the paper's Fig. 4 arithmetic:
        φ = Σ r/available + Σ b/available_bw."""
        schema = ResourceSchema([ResourceSpec("memory")])
        request = make_request(graph, stream_rate=100.0, kbps_per_unit=2.0)
        request = request.__class__(
            request_id=0,
            function_graph=graph,
            qos_requirement=request.qos_requirement,
            node_requirements={
                0: ResourceVector(schema, [20.0]),
                1: ResourceVector(schema, [10.0]),
            },
            bandwidth_requirements={(0, 1): 200.0},
            stream_rate=100.0,
        )
        assignment = {
            0: make_component(0, catalog[0], 0),
            1: make_component(1, catalog[1], 1),
        }
        composed = ComponentGraph(
            request, assignment, {(0, 1): vl(0, 1, [7])}
        )
        phi = composed.congestion_aggregation(
            node_available=lambda n: ResourceVector(schema, [50.0 if n == 0 else 60.0]),
            link_available_bw=lambda e: 1000.0,
        )
        assert phi == pytest.approx(20 / 50 + 10 / 60 + 200 / 1000)

    def test_co_located_link_contributes_zero(self, catalog, graph):
        request = make_request(graph)
        assignment = {
            0: make_component(0, catalog[0], 4),
            1: make_component(1, catalog[1], 4),
        }
        composed = ComponentGraph(request, assignment, {(0, 1): vl(4, 4)})
        phi = composed.congestion_aggregation(
            node_available=lambda n: rv(100, 1000),
            link_available_bw=lambda e: pytest.fail("co-located link queried"),
        )
        # only the two node terms remain
        requirement = request.requirement_for(0)
        # co-location: each term sees availability minus the *other* demand
        expected = 2 * sum(
            r / (a - r)
            for r, a in zip(requirement.values, rv(100, 1000).values)
        )
        assert phi == pytest.approx(expected)

    def test_saturated_node_gives_inf(self, composed):
        phi = composed.congestion_aggregation(
            node_available=lambda n: rv(0, 0),
            link_available_bw=lambda e: 1000.0,
        )
        assert math.isinf(phi)

    def test_saturated_link_gives_inf(self, composed):
        phi = composed.congestion_aggregation(
            node_available=lambda n: rv(100, 1000),
            link_available_bw=lambda e: 0.0,
        )
        assert math.isinf(phi)

    def test_smaller_phi_on_less_loaded_nodes(self, composed):
        lighter = composed.congestion_aggregation(
            lambda n: rv(100, 1000), lambda e: 10_000.0
        )
        heavier = composed.congestion_aggregation(
            lambda n: rv(20, 100), lambda e: 10_000.0
        )
        assert lighter < heavier
