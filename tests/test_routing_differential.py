"""Differential tests: our routing vs networkx on random topologies.

The overlay router (scipy Dijkstra + predecessor walks + caches) is the
substrate every virtual link rests on; these tests cross-check it against
an independent implementation (networkx) on randomised meshes, including
after failure-driven recomputation.  The virtual-link QoS the router and
the neighbourhood index report is checked against the plain
``combine_all`` fold of the path's link QoS.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.model.node import Node
from repro.model.qos import combine_all
from repro.topology.neighborhood import NeighborhoodIndex
from repro.topology.overlay import OverlayLink, OverlayNetwork
from repro.topology.routing import OverlayRouter
from tests.conftest import rv


def random_mesh(seed: int, num_nodes: int = 12, extra_edges: int = 10,
                loss_range=None):
    """A connected random overlay with random delays, and random loss
    rates drawn from ``loss_range`` when given (0.001 everywhere else)."""
    rng = random.Random(seed)
    nodes = [Node(i, i, rv(10, 10)) for i in range(num_nodes)]
    pairs = set()
    order = list(range(1, num_nodes))
    rng.shuffle(order)
    previous = 0
    for node in order:  # random spanning tree for connectivity
        pairs.add((min(previous, node), max(previous, node)))
        previous = rng.choice([previous, node])
    while len(pairs) < num_nodes - 1 + extra_edges:
        a, b = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    links = [
        OverlayLink(i, a, b, delay_ms=rng.uniform(1.0, 50.0),
                    loss_rate=rng.uniform(*loss_range) if loss_range else 0.001,
                    capacity_kbps=10_000.0)
        for i, (a, b) in enumerate(sorted(pairs))
    ]
    return OverlayNetwork(nodes, links)


def to_networkx(network: OverlayNetwork, excluded=frozenset()) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(
        n.node_id for n in network.nodes if n.node_id not in excluded
    )
    for link in network.links:
        if link.node_a in excluded or link.node_b in excluded:
            continue
        graph.add_edge(link.node_a, link.node_b, weight=link.delay_ms)
    return graph


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None)
def test_distances_match_networkx(seed):
    network = random_mesh(seed)
    router = OverlayRouter(network)
    reference = dict(nx.all_pairs_dijkstra_path_length(to_networkx(network)))
    for a in range(len(network)):
        for b in range(len(network)):
            assert router.delay(a, b) == pytest.approx(reference[a][b])


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None)
def test_extracted_paths_have_optimal_length(seed):
    """The predecessor-walk path's total delay equals the distance."""
    network = random_mesh(seed)
    router = OverlayRouter(network)
    rng = random.Random(seed)
    for _ in range(10):
        a, b = rng.randrange(len(network)), rng.randrange(len(network))
        path = router.overlay_path(a, b)
        total = sum(network.link(i).delay_ms for i in path)
        assert total == pytest.approx(router.delay(a, b))
        # and the path is actually a walk from a to b
        position = a
        for link_id in path:
            position = network.link(link_id).other_end(position)
        assert position == b


@given(
    st.integers(min_value=0, max_value=300),
    st.sets(st.integers(min_value=0, max_value=20), max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_distances_match_networkx_after_link_failures(seed, down_links):
    """Per-link failures must route exactly like deleting those edges."""
    network = random_mesh(seed)
    router = OverlayRouter(network)
    down_links = {l for l in down_links if l < len(network.links)}
    router.set_down_links(down_links)
    graph = nx.Graph()
    graph.add_nodes_from(n.node_id for n in network.nodes)
    for link in network.links:
        if link.link_id not in down_links:
            graph.add_edge(link.node_a, link.node_b, weight=link.delay_ms)
    reference = dict(nx.all_pairs_dijkstra_path_length(graph))
    for a in range(len(network)):
        for b in range(len(network)):
            if b in reference.get(a, {}):
                assert router.delay(a, b) == pytest.approx(reference[a][b])
                if a != b:
                    path = router.overlay_path(a, b)
                    assert not set(path) & down_links
            else:
                assert not router.reachable(a, b)


@given(
    st.integers(min_value=0, max_value=300),
    st.sets(st.integers(min_value=0, max_value=11), max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_distances_match_networkx_after_failures(seed, down):
    network = random_mesh(seed)
    router = OverlayRouter(network)
    router.set_down_nodes(down)
    reference_graph = to_networkx(network, excluded=frozenset(down))
    reference = dict(nx.all_pairs_dijkstra_path_length(reference_graph))
    for a in range(len(network)):
        for b in range(len(network)):
            if a in down or b in down:
                if a != b:
                    assert not router.reachable(a, b)
                continue
            if b in reference.get(a, {}):
                assert router.delay(a, b) == pytest.approx(reference[a][b])
            else:
                assert not router.reachable(a, b)


@given(
    st.integers(min_value=0, max_value=300),
    st.sets(st.integers(min_value=0, max_value=11), max_size=4),
    st.sets(st.integers(min_value=0, max_value=20), max_size=4),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=40, deadline=None)
def test_virtual_link_qos_equals_path_fold(seed, down_nodes, down_links, k):
    """Every QoS view of a virtual link is the exact ``combine_all`` fold of
    its path's link QoS: the router's pair QoS and rows, and the
    neighbourhood index's links to members (``==``, not approx)."""
    network = random_mesh(seed, loss_range=(0.0, 0.2))
    router = OverlayRouter(network)
    router.set_down_nodes(down_nodes)
    router.set_down_links({l for l in down_links if l < len(network.links)})
    index = NeighborhoodIndex(router, k=k)
    for a in range(len(network)):
        delay_row, loss_row = router.virtual_link_rows(a)
        for b in range(len(network)):
            if not router.reachable(a, b):
                continue
            fold = combine_all(
                network.link(link_id).qos for link_id in router.overlay_path(a, b)
            ).values
            assert router.virtual_link_qos(a, b).values == fold
            assert (float(delay_row[b]), float(loss_row[b])) == fold
            link = index.virtual_link(a, b)
            if link is not None:
                assert link.qos.values == fold
