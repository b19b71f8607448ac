"""Unit tests for the overlay mesh and overlay links."""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.topology import overlay
from repro.topology.ip_network import IPNetwork
from repro.topology.overlay import (
    InsufficientBandwidthError,
    OverlayLink,
    OverlayNetwork,
    build_overlay_network,
    k_smallest_stable,
    nearest_targets,
    tighten_bounds,
)
from repro.topology.powerlaw import PowerLawTopologyGenerator
from repro.model.node import Node
from repro.topology.routing import OverlayRouter
from tests.conftest import rv
from tests.test_routing_differential import random_mesh

#: (overlay nodes, build seeds) of the end-to-end build differentials
BUILD_SIZES = [(60, (1, 2, 3)), (600, (1, 2)), (2048, (1,))]


@functools.lru_cache(maxsize=None)
def ip_for(num_nodes):
    """The IP network the build differentials place ``num_nodes`` on."""
    return IPNetwork(
        PowerLawTopologyGenerator(
            num_routers=max(120, math.ceil(num_nodes * 1.2)), seed=num_nodes
        ).generate()
    )


def overlay_figures(network):
    """Node placement, then every link's pair, delay, loss and capacity."""
    return (
        [(n.router_id, n.capacity) for n in network.nodes],
        [
            (l.endpoints, l.delay_ms, l.loss_rate, l.capacity_kbps)
            for l in network.links
        ],
    )


@pytest.fixture
def link():
    return OverlayLink(0, 2, 1, delay_ms=5.0, loss_rate=0.001, capacity_kbps=1000.0)


class TestOverlayLink:
    def test_endpoints_normalised(self, link):
        assert link.endpoints == (1, 2)

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            OverlayLink(0, 1, 1, 1.0, 0.0, 100.0)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            OverlayLink(0, 0, 1, 1.0, 0.0, 0.0)

    def test_qos_vector(self, link):
        assert link.qos.delay == 5.0
        assert link.qos.loss_rate == 0.001

    def test_allocate_release_cycle(self, link):
        link.allocate_bandwidth(400.0)
        assert link.available_kbps == 600.0
        link.release_bandwidth(400.0)
        assert link.available_kbps == 1000.0

    def test_overallocation_rejected(self, link):
        with pytest.raises(InsufficientBandwidthError):
            link.allocate_bandwidth(1000.1)

    def test_negative_amounts_rejected(self, link):
        with pytest.raises(ValueError, match="negative"):
            link.allocate_bandwidth(-1.0)
        with pytest.raises(ValueError, match="negative"):
            link.release_bandwidth(-1.0)

    def test_release_more_than_allocated_rejected(self, link):
        link.allocate_bandwidth(10.0)
        with pytest.raises(ValueError, match="exceeds"):
            link.release_bandwidth(20.0)

    def test_other_end(self, link):
        assert link.other_end(1) == 2
        assert link.other_end(2) == 1
        with pytest.raises(ValueError, match="not an endpoint"):
            link.other_end(5)

    def test_listener_fires(self, link):
        events = []
        link.add_change_listener(lambda l: events.append(l.available_kbps))
        link.allocate_bandwidth(100.0)
        link.release_bandwidth(50.0)
        assert events == [900.0, 950.0]


class TestOverlayNetwork:
    def test_micro_adjacency(self, micro_network):
        assert set(micro_network.neighbors(0)) == {1, 2}
        assert len(micro_network.adjacent_links(1)) == 2

    def test_link_between(self, micro_network):
        assert micro_network.link_between(0, 1).link_id == 0
        assert micro_network.link_between(1, 0).link_id == 0

    def test_path_available_bw_bottleneck(self, micro_network):
        micro_network.link(0).allocate_bandwidth(9_500.0)
        assert micro_network.path_available_bw([0, 1]) == pytest.approx(500.0)
        micro_network.link(0).release_bandwidth(9_500.0)

    def test_empty_path_infinite_bw(self, micro_network):
        assert micro_network.path_available_bw([]) == float("inf")

    def test_non_dense_node_ids_rejected(self):
        with pytest.raises(ValueError, match="dense"):
            OverlayNetwork([Node(1, 0, rv(1, 1))], [])

    def test_duplicate_links_rejected(self):
        nodes = [Node(0, 0, rv(1, 1)), Node(1, 1, rv(1, 1))]
        links = [
            OverlayLink(0, 0, 1, 1.0, 0.0, 100.0),
            OverlayLink(1, 1, 0, 1.0, 0.0, 100.0),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            OverlayNetwork(nodes, links)


class TestBuildOverlayNetwork:
    @pytest.fixture(scope="class")
    def ip(self):
        return IPNetwork(PowerLawTopologyGenerator(num_routers=120, seed=2).generate())

    def test_requested_size(self, ip):
        network = build_overlay_network(ip, 20, rng=random.Random(1))
        assert len(network) == 20

    def test_minimum_neighbor_degree(self, ip):
        network = build_overlay_network(
            ip, 20, neighbors_per_node=4, rng=random.Random(1)
        )
        # every node picked 4 nearest peers; union can only add degree
        assert all(len(network.neighbors(n.node_id)) >= 4 for n in network.nodes)

    def test_distinct_routers(self, ip):
        network = build_overlay_network(ip, 30, rng=random.Random(3))
        routers = [node.router_id for node in network.nodes]
        assert len(set(routers)) == len(routers)

    def test_link_delay_matches_ip_distance(self, ip):
        network = build_overlay_network(ip, 10, rng=random.Random(4))
        link = network.links[0]
        expected = ip.delay(
            network.node(link.node_a).router_id,
            network.node(link.node_b).router_id,
        )
        assert link.delay_ms == pytest.approx(expected)

    def test_too_many_nodes_rejected(self, ip):
        with pytest.raises(ValueError, match="cannot place"):
            build_overlay_network(ip, 500, rng=random.Random(0))

    @pytest.mark.parametrize("seed", range(8))
    def test_mesh_always_connected(self, ip, seed):
        """k-nearest unions can isolate clusters; the builder must bridge
        them — an unreachable node pair would make compositions
        structurally impossible."""
        network = build_overlay_network(
            ip, 25, neighbors_per_node=2, rng=random.Random(seed)
        )
        router = OverlayRouter(network)
        assert all(router.reachable(0, n) for n in range(len(network)))

    def test_deterministic_given_rng(self, ip):
        a = build_overlay_network(ip, 15, rng=random.Random(9))
        b = build_overlay_network(ip, 15, rng=random.Random(9))
        assert [l.endpoints for l in a.links] == [l.endpoints for l in b.links]
        assert [n.capacity for n in a.nodes] == [n.capacity for n in b.nodes]

    def test_link_delays_match_pairwise_solver(self, ip):
        """Every link's delay equals the independently-computed pairwise
        router distance — the deduped/batched path reads the same floats
        the naive per-pair solver would."""
        network = build_overlay_network(ip, 20, rng=random.Random(8))
        for link in network.links:
            expected = ip.delay(
                network.node(link.node_a).router_id,
                network.node(link.node_b).router_id,
            )
            assert link.delay_ms == expected


class TestPartialSortNeighborSelection:
    """``k_smallest_stable`` must pick *exactly* the prefix a full stable
    argsort would — including across ties — so the partial-sort build
    chooses byte-identical neighbour pairs to the old O(n log n) path."""

    def test_matches_full_stable_argsort_prefix(self):
        gen = np.random.default_rng(3)
        for trial in range(60):
            n = int(gen.integers(1, 40))
            if trial % 2:
                row = gen.random(n)
            else:
                # integer-valued rows force heavy ties, the hard case for
                # partition-based selection
                row = gen.integers(0, 4, n).astype(float)
            for count in (1, 2, n // 2 + 1, n - 1, n, n + 3):
                if count < 1:
                    continue
                got = k_smallest_stable(row, count)
                want = np.argsort(row, kind="stable")[:count]
                assert np.array_equal(got, want), (row, count)

    def test_all_tied_row_keeps_index_order(self):
        row = np.zeros(9)
        assert k_smallest_stable(row, 4).tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("num_nodes,seeds", BUILD_SIZES)
    def test_build_identical_to_full_argsort_path(
        self, num_nodes, seeds, monkeypatch
    ):
        """End to end: the partial-sort build and the old full-argsort
        build produce identical overlays (same node placement, same
        neighbour pairs, same link figures) for every seed and size."""
        ip = ip_for(num_nodes)
        for seed in seeds:
            fast = build_overlay_network(ip, num_nodes, rng=random.Random(seed))
            with monkeypatch.context() as m:
                m.setattr(
                    overlay,
                    "k_smallest_stable",
                    lambda row, count: np.argsort(row, kind="stable"),
                )
                full = build_overlay_network(
                    ip, num_nodes, rng=random.Random(seed)
                )
            assert overlay_figures(fast) == overlay_figures(full)


class TestNearestTargets:
    """``nearest_targets`` must return exactly the full solve's (delay,
    column) prefix whatever its limit: a limit that cuts the row short of
    ``count`` targets or of a must-reach column falls back to the full
    solve, so the limit decides only the cost."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_nodes=st.integers(min_value=2, max_value=30),
        extra_edges=st.integers(min_value=0, max_value=40),
        down_share=st.floats(min_value=0.0, max_value=0.4),
        link_share=st.floats(min_value=0.0, max_value=0.4),
        size=st.sampled_from(["one", "small", "all"]),
        limit_kind=st.sampled_from(["zero", "below", "at", "above", "inf"]),
        subset=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_prefix_matches_full_solve(
        self, seed, num_nodes, extra_edges, down_share, link_share, size,
        limit_kind, subset,
    ):
        """Under random down nodes (crashed sources included) and down
        links, every prefix, its delays and its predecessors equal the
        full scipy solve's, and so does every delay the row reached."""
        spanning = num_nodes - 1
        extra_edges = min(extra_edges, num_nodes * spanning // 2 - spanning)
        network = random_mesh(seed, num_nodes, extra_edges)
        rng = random.Random(seed)
        down_nodes = {v for v in range(num_nodes) if rng.random() < down_share}
        down_links = {
            link.link_id for link in network.links if rng.random() < link_share
        }
        count = {
            "one": 1,
            "small": rng.randint(2, 8),
            "all": num_nodes + rng.randint(0, 5),
        }[size]
        targets = (
            np.array(sorted(rng.sample(range(num_nodes), rng.randint(1, num_nodes))))
            if subset
            else None
        )
        with OverlayRouter(network) as router:
            router.set_down_nodes(down_nodes)
            router.set_down_links(down_links)
            for source in range(num_nodes):
                distances, predecessors = router.solve_tree(source)
                full_row = distances if targets is None else distances[targets]
                want = k_smallest_stable(full_row, count)
                want = want[np.isfinite(full_row[want])]
                radius = float(full_row[want[-1]]) if len(want) else 0.0
                limit = {
                    "zero": 0.0,
                    "below": radius * rng.random(),
                    "at": radius,
                    "above": radius * (1.0 + rng.random()),
                    "inf": math.inf,
                }[limit_kind]
                must_reach = rng.sample(
                    range(len(full_row)), rng.randint(0, min(3, len(full_row)))
                )
                row, reached, nearest, got_predecessors = nearest_targets(
                    router.live_graph, source, count, limit, targets, must_reach
                )
                assert np.array_equal(nearest, want), (source, limit)
                assert np.array_equal(row[nearest], full_row[want])
                nodes = nearest if targets is None else targets[nearest]
                assert np.array_equal(got_predecessors[nodes], predecessors[nodes])
                assert np.array_equal(reached, np.flatnonzero(np.isfinite(row)))
                assert np.array_equal(row[reached], full_row[reached])
                assert np.array_equal(row[must_reach], full_row[must_reach])

    def test_partitioned_graph_returns_every_reachable_target(self):
        """Fewer reachable targets than ``count``: the row falls back to
        the full solve and returns all of them, nearest first."""
        network = random_mesh(3, num_nodes=12, extra_edges=0)
        with OverlayRouter(network) as router:
            # a spanning tree: any down link splits it in two
            router.set_down_links({network.links[4].link_id})
            distances, _ = router.solve_tree(0)
            reachable = np.flatnonzero(np.isfinite(distances))
            assert 0 < len(reachable) < len(network)
            for limit in (0.0, 1.0, math.inf):
                _, reached, nearest, _ = nearest_targets(
                    router.live_graph, 0, len(network), limit
                )
                assert np.array_equal(reached, reachable)
                assert np.array_equal(
                    nearest, reachable[np.argsort(distances[reachable], kind="stable")]
                )

    def test_bounds_shrink_to_the_triangle_inequality(self):
        """After a solve of v with count-th delay r(v), each reached node
        u is bounded by r(v) + d(v, u), and v itself by r(v)."""
        network = random_mesh(5, num_nodes=15, extra_edges=10)
        with OverlayRouter(network) as router:
            bounds = np.full(len(network), math.inf)
            row, reached, nearest, _ = nearest_targets(router.live_graph, 2, 4)
            tighten_bounds(bounds, row, reached, nearest, 4)
            radius = row[nearest[-1]]
            assert bounds[2] == radius
            assert np.array_equal(bounds, radius + row)
            # a shorter row than the count bounds nothing
            before = bounds.copy()
            tighten_bounds(bounds, row, reached, nearest[:3], 4)
            assert np.array_equal(bounds, before)

    @pytest.mark.parametrize("num_nodes,seeds", BUILD_SIZES)
    def test_bounded_build_identical_to_full_solves(
        self, num_nodes, seeds, monkeypatch
    ):
        """End to end: a build whose every solve runs with no limit yields
        the identical overlay (node placement, pairs, delays, losses and
        capacities) — the triangle-inequality limits and the must-reach
        partners only decide how far each solve goes."""
        ip = ip_for(num_nodes)
        unbounded = overlay.nearest_targets

        def full_solve(graph, source, count, limit, *rest):
            return unbounded(graph, source, count, math.inf, *rest)

        for seed in seeds:
            bounded = build_overlay_network(ip, num_nodes, rng=random.Random(seed))
            with monkeypatch.context() as m:
                m.setattr(overlay, "nearest_targets", full_solve)
                full = build_overlay_network(
                    ip, num_nodes, rng=random.Random(seed)
                )
            assert overlay_figures(bounded) == overlay_figures(full)
