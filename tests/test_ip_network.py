"""Unit tests for IP-layer routing."""

import numpy as np
import pytest

from repro.topology.ip_network import IPNetwork
from repro.topology.powerlaw import PowerLawTopologyGenerator, RouterGraph, RouterLink


@pytest.fixture(scope="module")
def small_ip():
    """A hand-built 4-router line with known delays: 0 -1- 1 -2- 2 -4- 3."""
    links = (
        RouterLink(0, 0, 1, 1.0, 1000.0, 0.0),
        RouterLink(1, 1, 2, 2.0, 1000.0, 0.0),
        RouterLink(2, 2, 3, 4.0, 1000.0, 0.0),
    )
    return IPNetwork(RouterGraph(4, links))


class TestShortestPaths:
    def test_direct_link(self, small_ip):
        assert small_ip.delay(0, 1) == 1.0

    def test_multi_hop_sums(self, small_ip):
        assert small_ip.delay(0, 3) == 7.0

    def test_self_delay_zero(self, small_ip):
        assert small_ip.delay(2, 2) == 0.0

    def test_symmetric(self, small_ip):
        assert small_ip.delay(0, 3) == small_ip.delay(3, 0)

    def test_delays_from_shape(self, small_ip):
        matrix = small_ip.delays_from([0, 2])
        assert matrix.shape == (2, 4)
        assert matrix[0, 3] == 7.0
        assert matrix[1, 0] == 3.0

    def test_delays_between_square(self, small_ip):
        matrix = small_ip.delays_between([0, 1, 3])
        assert matrix.shape == (3, 3)
        assert matrix[0, 2] == 7.0
        assert np.allclose(matrix, matrix.T)


class TestTriangleInequality:
    def test_on_generated_topology(self):
        graph = PowerLawTopologyGenerator(num_routers=120, seed=9).generate()
        network = IPNetwork(graph)
        routers = [0, 5, 11, 23, 47]
        delays = network.delays_between(routers)
        n = len(routers)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert delays[i, j] <= delays[i, k] + delays[k, j] + 1e-9
