"""Differential tests for routing under churn.

A routing tree is valid for one topology epoch: every change to the down
sets drops the router's cached trees, together with the virtual links
cached on them, and the next query re-solves.  So after any crash,
recovery or link-flap sequence, every answer a churned router gives —
distances, loss rows, paths, QoS, bottleneck bandwidth, reachability —
must be identical to one computed by a router freshly constructed with
the same down sets; the differentials below pin that no cache outlives an
epoch.  Random meshes draw delays from a continuous distribution, so
shortest paths are unique and the comparison can demand exact equality.
``test_routing_differential`` checks fresh routers against networkx
under the same kinds of churn.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.routing import OverlayRouter, RoutingError
from tests.test_routing_differential import bandwidth_row, link_rows, random_mesh


def random_churn_sequence(rng, num_nodes, steps):
    """Randomised down-set trajectory: each step crashes and/or recovers."""
    down = set()
    sequence = []
    for _ in range(steps):
        up = [n for n in range(num_nodes) if n not in down]
        crashes = rng.sample(up, k=min(len(up) - 1, rng.randrange(0, 3)))
        recoveries = rng.sample(sorted(down), k=min(len(down), rng.randrange(0, 3)))
        down |= set(crashes)
        down -= set(recoveries)
        sequence.append(frozenset(down))
    return sequence


def assert_routers_identical(incremental, fresh, network, down):
    n = len(network)
    for source in range(n):
        if source in down:
            continue
        inc_delay, inc_loss = link_rows(incremental, source)
        ref_delay, ref_loss = link_rows(fresh, source)
        live = [d for d in range(n) if d not in down]
        assert np.array_equal(inc_delay[live], ref_delay[live])
        assert np.array_equal(inc_loss[live], ref_loss[live])
        # crashed destinations must read unreachable either way
        for d in down:
            assert not np.isfinite(inc_delay[d])
            assert not incremental.reachable(source, d)
        inc_bw = bandwidth_row(incremental, source)
        ref_bw = bandwidth_row(fresh, source)
        assert np.array_equal(inc_bw[live], ref_bw[live])
        for dest in live:
            assert incremental.reachable(source, dest) == fresh.reachable(
                source, dest
            )
            if not fresh.reachable(source, dest):
                with pytest.raises(RoutingError):
                    incremental.overlay_path(source, dest)
                continue
            assert incremental.overlay_path(source, dest) == fresh.overlay_path(
                source, dest
            )
            assert incremental.virtual_link_qos(
                source, dest
            ) == fresh.virtual_link_qos(source, dest)
            assert incremental.available_bandwidth(
                source, dest
            ) == fresh.available_bandwidth(source, dest)


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=20, deadline=None)
def test_incremental_matches_fresh_router_under_churn(seed):
    network = random_mesh(seed, num_nodes=12, extra_edges=8)
    incremental = OverlayRouter(network)
    rng = random.Random(seed * 31 + 7)
    for down in random_churn_sequence(rng, len(network), steps=6):
        # warm a few trees *before* the event, so a cache that outlived
        # its epoch would show in the comparison
        for source in rng.sample(range(len(network)), k=4):
            if source in down:
                continue
            link_rows(incremental, source)
            bandwidth_row(incremental, source)
        incremental.set_down_nodes(down)
        fresh = OverlayRouter(network)
        fresh.set_down_nodes(down)
        assert_routers_identical(incremental, fresh, network, down)


def random_link_churn_sequence(rng, num_links, steps):
    """Randomised down-link trajectory: each step fails and/or heals."""
    down = set()
    sequence = []
    for _ in range(steps):
        up = [l for l in range(num_links) if l not in down]
        failures = rng.sample(up, k=min(len(up), rng.randrange(0, 3)))
        recoveries = rng.sample(sorted(down), k=min(len(down), rng.randrange(0, 3)))
        down |= set(failures)
        down -= set(recoveries)
        sequence.append(frozenset(down))
    return sequence


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=15, deadline=None)
def test_incremental_matches_fresh_router_under_link_churn(seed):
    """After any link flap sequence the router answers like a freshly
    built one."""
    network = random_mesh(seed, num_nodes=12, extra_edges=8)
    incremental = OverlayRouter(network)
    rng = random.Random(seed * 17 + 3)
    for down_links in random_link_churn_sequence(rng, len(network.links), steps=6):
        for source in rng.sample(range(len(network)), k=4):
            link_rows(incremental, source)
            bandwidth_row(incremental, source)
        incremental.set_down_links(down_links)
        fresh = OverlayRouter(network)
        fresh.set_down_links(down_links)
        assert_routers_identical(incremental, fresh, network, set())


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=10, deadline=None)
def test_incremental_matches_under_mixed_node_and_link_churn(seed):
    """Interleaved node crashes and link flaps — the full fault cocktail's
    routing view — must answer like a freshly built router."""
    network = random_mesh(seed, num_nodes=12, extra_edges=8)
    incremental = OverlayRouter(network)
    rng = random.Random(seed * 13 + 5)
    node_sequence = random_churn_sequence(rng, len(network), steps=5)
    link_sequence = random_link_churn_sequence(rng, len(network.links), steps=5)
    for down, down_links in zip(node_sequence, link_sequence):
        for source in rng.sample(range(len(network)), k=3):
            if source not in down:
                link_rows(incremental, source)
        incremental.set_down_nodes(down)
        incremental.set_down_links(down_links)
        fresh = OverlayRouter(network)
        fresh.set_down_nodes(down)
        fresh.set_down_links(down_links)
        assert_routers_identical(incremental, fresh, network, down)


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=10, deadline=None)
def test_incremental_matches_under_bandwidth_churn(seed):
    """Interleaved bandwidth allocations must show through the live
    bottleneck queries regardless of tree invalidation."""
    network = random_mesh(seed, num_nodes=10, extra_edges=6)
    incremental = OverlayRouter(network)
    rng = random.Random(seed + 99)
    down = set()
    for step in range(5):
        for link in rng.sample(network.links, k=3):
            link.allocate_bandwidth(rng.uniform(0.0, link.available_kbps))
        victim = rng.randrange(len(network))
        if victim in down:
            down.discard(victim)
        else:
            down.add(victim)
        incremental.set_down_nodes(down)
        fresh = OverlayRouter(network)
        fresh.set_down_nodes(down)
        for a in range(len(network)):
            for b in range(len(network)):
                if a in down or b in down:
                    continue
                if fresh.reachable(a, b):
                    assert incremental.available_bandwidth(
                        a, b
                    ) == fresh.available_bandwidth(a, b)


class TestTreeLifetime:
    """Every cached tree belongs to the current epoch."""

    @staticmethod
    def _warm(router, network):
        """Cache every source's tree, with a virtual link cached on it."""
        for source in range(len(network)):
            link_rows(router, source)
            dest = (source + 1) % len(network)
            if router.reachable(source, dest):
                router.overlay_path(source, dest)
                router.virtual_link_qos(source, dest)
        assert router.cached_tree_count == len(network)

    @pytest.mark.parametrize("kind", ["nodes", "links"])
    def test_changed_down_set_drops_every_tree(self, kind):
        network = random_mesh(4, num_nodes=10, extra_edges=6)
        router = OverlayRouter(network)
        set_down = getattr(router, f"set_down_{kind}")
        self._warm(router, network)
        epoch = router.epoch
        set_down({3})
        assert router.cached_tree_count == 0
        assert router.epoch == epoch + 1
        # the same set again is no topology change: nothing moves
        self._warm(router, network)
        set_down({3})
        assert router.cached_tree_count == len(network)
        assert router.epoch == epoch + 1
        # recovery is a change like any other
        set_down(set())
        assert router.cached_tree_count == 0
        assert router.epoch == epoch + 2

    def test_unknown_link_id_changes_nothing(self):
        network = random_mesh(4, num_nodes=10, extra_edges=6)
        router = OverlayRouter(network)
        router.set_down_links({0})
        self._warm(router, network)
        epoch = router.epoch
        with pytest.raises(ValueError):
            router.set_down_links({0, 1, len(network.links)})
        with pytest.raises(ValueError):
            router.set_down_links({-1})
        assert router.down_links == frozenset({0})
        assert router.epoch == epoch
        assert router.cached_tree_count == len(network)


class TestRowContracts:
    def test_recovery_bumps_affected_versions(self):
        network = random_mesh(11, num_nodes=10, extra_edges=6)
        router = OverlayRouter(network)
        for source in range(len(network)):
            link_rows(router, source)
        router.set_down_nodes({4})
        router.set_down_nodes(set())  # recovery can create shortcuts
        # every tree solved while v4 was down must have been dropped
        fresh = OverlayRouter(network)
        for source in range(len(network)):
            inc_delay, _ = link_rows(router, source)
            ref_delay, _ = link_rows(fresh, source)
            assert np.array_equal(inc_delay, ref_delay)

    def test_bottleneck_row_against_path_walk(self):
        network = random_mesh(5)
        router = OverlayRouter(network)
        rng = random.Random(5)
        for link in rng.sample(network.links, k=5):
            link.allocate_bandwidth(rng.uniform(0.0, link.available_kbps))
        for source in (0, 3, 7):
            row = bandwidth_row(router, source)
            assert row[source] == np.inf
            for dest in range(len(network)):
                if dest == source:
                    continue
                path = router.overlay_path(source, dest)
                expected = min(
                    network.link(link_id).available_kbps for link_id in path
                )
                assert row[dest] == pytest.approx(expected)

    def test_bottleneck_row_with_external_link_state(self):
        network = random_mesh(6)
        router = OverlayRouter(network)
        stale = np.full(len(network.links), 123.0)
        row = bandwidth_row(router, 2, stale)
        for dest in range(len(network)):
            if dest != 2:
                assert row[dest] == pytest.approx(123.0)
