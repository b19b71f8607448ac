"""Shared fixtures: hand-built micro systems and seeded small systems.

Two kinds of test substrate:

* ``micro_*`` — a fully hand-constructed 3-node overlay with known delays,
  capacities, and components, for tests that assert exact numbers;
* ``small_system`` — a seeded end-to-end build (60 routers, 12 nodes) for
  integration tests that need the full stack but not paper scale.
"""

from __future__ import annotations

import random

import pytest

from repro.allocation.allocator import ResourceAllocator
from repro.core.composer import CompositionContext
from repro.discovery.deployment import DeploymentProfile
from repro.discovery.registry import ComponentRegistry
from repro.model.component import Component
from repro.model.function_graph import FunctionGraph
from repro.model.functions import FunctionCatalog
from repro.model.node import Node
from repro.model.qos import QoSVector
from repro.model.request import StreamRequest, derive_bandwidth_requirements
from repro.model.resources import DEFAULT_RESOURCE_SCHEMA, ResourceVector
from repro.simulation.system import SystemConfig, build_system
from repro.state.global_state import GlobalStateManager
from repro.topology.overlay import OverlayLink, OverlayNetwork
from repro.topology.routing import OverlayRouter


def rv(cpu: float, memory: float) -> ResourceVector:
    """Shorthand resource vector on the default schema."""
    return ResourceVector(DEFAULT_RESOURCE_SCHEMA, [cpu, memory])


def qv(delay: float, loss: float = 0.0) -> QoSVector:
    """Shorthand QoS vector."""
    return QoSVector(delay, loss)


def make_component(
    component_id: int,
    function,
    node_id: int,
    delay: float = 10.0,
    loss: float = 0.001,
    max_input_rate: float = 1000.0,
    output_format: str = "fmt0",
    input_formats=None,
) -> Component:
    return Component(
        component_id=component_id,
        function=function,
        node_id=node_id,
        qos=qv(delay, loss),
        input_formats=(
            function.input_formats if input_formats is None else frozenset(input_formats)
        ),
        output_format=output_format,
        max_input_rate=max_input_rate,
    )


@pytest.fixture
def catalog():
    return FunctionCatalog(size=8, num_formats=2)


@pytest.fixture
def micro_network(catalog):
    """Three nodes in a triangle with asymmetric delays and capacities.

    * v0: 100 cpu / 1000 MB, hosts c0 (function 0)
    * v1:  50 cpu /  500 MB, hosts c1 (function 1)
    * v2: 100 cpu / 1000 MB, hosts c2 (function 1)  — less loaded twin of c1
    * e0: v0-v1 delay 10 ms, e1: v1-v2 delay 10 ms, e2: v0-v2 delay 25 ms
    """
    nodes = [
        Node(0, router_id=0, capacity=rv(100, 1000)),
        Node(1, router_id=1, capacity=rv(50, 500)),
        Node(2, router_id=2, capacity=rv(100, 1000)),
    ]
    links = [
        OverlayLink(0, 0, 1, delay_ms=10.0, loss_rate=0.001, capacity_kbps=10_000.0),
        OverlayLink(1, 1, 2, delay_ms=10.0, loss_rate=0.001, capacity_kbps=10_000.0),
        OverlayLink(2, 0, 2, delay_ms=25.0, loss_rate=0.002, capacity_kbps=10_000.0),
    ]
    network = OverlayNetwork(nodes, links)
    components = [
        make_component(0, catalog[0], 0),
        make_component(1, catalog[1], 1),
        make_component(2, catalog[1], 2),
    ]
    for component in components:
        network.node(component.node_id).host(component)
    return network


@pytest.fixture
def micro_registry(micro_network):
    registry = ComponentRegistry()
    for node in micro_network.nodes:
        for component in node.components:
            registry.register(component)
    return registry


@pytest.fixture
def micro_router(micro_network):
    return OverlayRouter(micro_network)


@pytest.fixture
def micro_context(micro_network, micro_router, micro_registry):
    global_state = GlobalStateManager(micro_network, threshold_fraction=0.1)
    return CompositionContext(
        network=micro_network,
        router=micro_router,
        registry=micro_registry,
        allocator=ResourceAllocator(micro_network, micro_router),
        global_state=global_state,
        rng=random.Random(7),
    )


def make_request(
    graph: FunctionGraph,
    request_id: int = 0,
    delay_budget: float = 200.0,
    loss_budget: float = 0.2,
    cpu: float = 5.0,
    memory: float = 20.0,
    stream_rate: float = 100.0,
    kbps_per_unit: float = 2.0,
    duration: float = 600.0,
) -> StreamRequest:
    """A request over ``graph`` with uniform per-placement requirements."""
    return StreamRequest(
        request_id=request_id,
        function_graph=graph,
        qos_requirement=qv(delay_budget, loss_budget),
        node_requirements={i: rv(cpu, memory) for i in range(len(graph))},
        bandwidth_requirements=derive_bandwidth_requirements(
            graph, stream_rate, kbps_per_unit
        ),
        stream_rate=stream_rate,
        duration=duration,
    )


@pytest.fixture
def micro_request(catalog):
    """A path request F0 → F1 matching the micro network's components."""
    graph = FunctionGraph.path([catalog[0], catalog[1]])
    return make_request(graph)


@pytest.fixture(scope="session")
def small_system():
    """A seeded end-to-end system small enough for fast integration tests.

    Session-scoped and therefore READ-ONLY: tests that mutate state must
    build their own via ``build_small_system()``.
    """
    return build_small_system()


def build_small_system(seed: int = 5, num_nodes: int = 12):
    config = SystemConfig(
        num_routers=60,
        num_nodes=num_nodes,
        neighbors_per_node=3,
        catalog_size=10,
        num_templates=6,
        template_path_length=(2, 3),
        deployment=DeploymentProfile(components_per_node=(1, 3)),
        seed=seed,
    )
    return build_system(config)
