"""Unit tests for overlay routing and virtual links."""

import pytest

from repro.topology.routing import OverlayRouter, RoutingError
from repro.model.node import Node
from repro.topology.overlay import OverlayLink, OverlayNetwork
from tests.conftest import rv


class TestShortestPaths:
    def test_direct_cheaper_path_wins(self, micro_router):
        # v0 -> v2: direct link is 25 ms, via v1 is 20 ms
        assert micro_router.overlay_path(0, 2) == (0, 1)
        assert micro_router.delay(0, 2) == pytest.approx(20.0)

    def test_single_hop(self, micro_router):
        assert micro_router.overlay_path(0, 1) == (0,)

    def test_self_path_empty(self, micro_router):
        assert micro_router.overlay_path(1, 1) == ()
        assert micro_router.delay(1, 1) == 0.0

    def test_paths_cached(self, micro_router):
        first = micro_router.overlay_path(0, 2)
        assert micro_router.overlay_path(0, 2) is first

    def test_unreachable_raises(self):
        nodes = [Node(0, 0, rv(1, 1)), Node(1, 1, rv(1, 1)), Node(2, 2, rv(1, 1))]
        links = [OverlayLink(0, 0, 1, 1.0, 0.0, 100.0)]
        router = OverlayRouter(OverlayNetwork(nodes, links))
        assert not router.reachable(0, 2)
        with pytest.raises(RoutingError, match="no overlay path"):
            router.overlay_path(0, 2)


class TestVirtualLinks:
    def test_qos_aggregates_along_path(self, micro_router):
        qos = micro_router.virtual_link_qos(0, 2)
        assert qos.delay == pytest.approx(20.0)
        expected_loss = 1 - (1 - 0.001) ** 2
        assert qos.loss_rate == pytest.approx(expected_loss)

    def test_co_located_zero_qos(self, micro_router):
        qos = micro_router.virtual_link_qos(2, 2)
        assert qos.delay == 0.0
        assert qos.loss_rate == 0.0

    def test_virtual_link_object(self, micro_router):
        vl = micro_router.virtual_link(0, 2)
        assert vl.src_node_id == 0
        assert vl.dst_node_id == 2
        assert vl.overlay_link_ids == (0, 1)
        assert not vl.co_located

    def test_co_located_virtual_link(self, micro_router):
        vl = micro_router.virtual_link(1, 1)
        assert vl.co_located

    def test_available_bandwidth_is_bottleneck(self, micro_network, micro_router):
        micro_network.link(1).allocate_bandwidth(9_000.0)
        try:
            assert micro_router.available_bandwidth(0, 2) == pytest.approx(1_000.0)
        finally:
            micro_network.link(1).release_bandwidth(9_000.0)

    def test_co_located_bandwidth_infinite(self, micro_router):
        assert micro_router.available_bandwidth(1, 1) == float("inf")

    def test_qos_cache_symmetric_pairs(self, micro_router):
        a = micro_router.virtual_link_qos(0, 2)
        b = micro_router.virtual_link_qos(2, 0)
        assert a == b
