"""Bounded router caches: decision-identity, eviction accounting, teardown.

The scale tentpole bounds the router's per-source tree/path/QoS caches
with an LRU so router memory is O(cache_size × N) instead of O(N²).  The
contract that makes the bound safe: **eviction is decision-invisible** —
delays are continuous so shortest paths are unique, and a re-solve of an
evicted source reproduces the identical tree.  The hypothesis property
here drives a router with the tiniest legal bound (2) through arbitrary
interleavings of queries and churn and demands answers identical to a
router whose bound exceeds the node count, so it never evicts.

Also covered: eviction/hit counters landing in traces, the listener-leak
fix (``close()`` on router and global state), and the LRU primitive
itself.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model.lru import LRUDict
from repro.observability import TraceRecorder
from repro.simulation import SystemConfig, build_system
from repro.state.global_state import GlobalStateManager
from repro.topology.routing import OverlayRouter
from tests.test_routing_differential import random_mesh
from tests.test_routing_incremental import (
    assert_routers_identical,
    random_churn_sequence,
)


class TestLRUDict:
    def test_bound_and_eviction_order(self):
        evicted = []
        lru = LRUDict(capacity=2, on_evict=lambda k, v: evicted.append(k))
        lru[1] = "a"
        lru[2] = "b"
        assert lru.get(1) == "a"  # 1 becomes MRU
        lru[3] = "c"  # evicts 2, the LRU
        assert evicted == [2]
        assert 2 not in lru and 1 in lru and 3 in lru
        assert lru.evictions == 1

    def test_peek_does_not_touch_recency(self):
        lru = LRUDict(capacity=2)
        lru[1] = "a"
        lru[2] = "b"
        assert lru.peek(1) == "a"  # must NOT promote 1
        lru[3] = "c"
        assert 1 not in lru  # 1 was still LRU, so it went

    def test_update_existing_key_does_not_evict(self):
        lru = LRUDict(capacity=2)
        lru[1] = "a"
        lru[2] = "b"
        lru[1] = "a2"
        assert len(lru) == 2 and lru.evictions == 0
        assert lru[1] == "a2"

    def test_pop_and_clear_skip_eviction_callback(self):
        evicted = []
        lru = LRUDict(capacity=4, on_evict=lambda k, v: evicted.append(k))
        lru[1] = "a"
        lru[2] = "b"
        assert lru.pop(1) == "a"
        lru.clear()
        assert evicted == [] and lru.evictions == 0

    def test_capacity_validation(self):
        for capacity in (0, None):
            with pytest.raises(ValueError):
                LRUDict(capacity=capacity)

    def test_keys_in_recency_order(self):
        lru = LRUDict(capacity=3)
        lru[1] = lru[2] = lru[3] = "x"
        lru.get(1)
        assert lru.keys() == [2, 3, 1]


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=20, deadline=None)
def test_tiny_lru_matches_unbounded_under_query_churn_interleaving(seed):
    """Any interleaving of compose-like queries and node churn with a
    size-2 tree cache answers identically to a router that never evicts."""
    network = random_mesh(seed, num_nodes=12, extra_edges=8)
    bounded = OverlayRouter(network, tree_cache_size=2)
    reference = OverlayRouter(network, tree_cache_size=len(network))
    rng = random.Random(seed * 23 + 1)
    for down in random_churn_sequence(rng, len(network), steps=5):
        # interleaved queries keep the tiny cache thrashing (evicting and
        # re-solving) while the reference never evicts
        for _ in range(6):
            source = rng.randrange(len(network))
            if source in down:
                continue
            bounded.virtual_link_rows(source)
            bounded.bottleneck_bandwidth_row(source)
            reference.virtual_link_rows(source)
        bounded.set_down_nodes(down)
        reference.set_down_nodes(down)
        assert_routers_identical(bounded, reference, network, down)
    assert bounded.cached_tree_count <= 2
    assert reference.tree_evictions == 0
    if len(network) > 2:
        assert bounded.tree_evictions > 0, "bound never exercised"


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=10, deadline=None)
def test_tiny_lru_matches_unbounded_under_link_churn(seed):
    network = random_mesh(seed, num_nodes=10, extra_edges=6)
    bounded = OverlayRouter(network, tree_cache_size=2)
    reference = OverlayRouter(network, tree_cache_size=len(network))
    rng = random.Random(seed * 19 + 5)
    down_links = set()
    for _ in range(5):
        for _ in range(5):
            source = rng.randrange(len(network))
            bounded.virtual_link_rows(source)
            bounded.bottleneck_bandwidth_row(source)
        flapped = rng.sample(range(len(network.links)), k=2)
        down_links ^= set(flapped)
        bounded.set_down_links(down_links)
        reference.set_down_links(down_links)
        assert_routers_identical(bounded, reference, network, set())


def test_path_and_qos_caches_stay_subset_of_trees():
    """The memory bound rests on the invariant that the path/QoS caches
    never hold a source whose tree was evicted."""
    network = random_mesh(3, num_nodes=12, extra_edges=8)
    router = OverlayRouter(network, tree_cache_size=3)
    rng = random.Random(17)
    for _ in range(60):
        a, b = rng.randrange(len(network)), rng.randrange(len(network))
        if a == b:
            continue
        router.overlay_path(a, b)
        router.virtual_link_qos(a, b)
        tree_sources = set(router._trees.keys())
        assert set(router._path_cache) <= tree_sources
        assert set(router._qos_cache) <= tree_sources
    assert router.tree_evictions > 0


def test_eviction_and_hit_counters_appear_in_traces():
    network = random_mesh(5, num_nodes=10, extra_edges=6)
    recorder = TraceRecorder()
    router = OverlayRouter(network, recorder=recorder, tree_cache_size=2)
    for source in range(len(network)):
        router.virtual_link_rows(source)  # cold solves + evictions
    router.virtual_link_rows(len(network) - 1)  # warm hit
    counters = recorder.registry.snapshot()["counters"]
    assert counters.get("router.tree_evictions", 0) > 0
    assert counters.get("router.tree_hit", 0) > 0
    assert counters.get("router.tree_solve", 0) == len(network)


def test_build_system_threads_cache_bound():
    config = SystemConfig(num_routers=120, num_nodes=40, seed=3, router_cache_size=5)
    system = build_system(config)
    assert system.router.tree_cache_capacity == 5
    for source in range(20):
        system.router.virtual_link_rows(source)
    assert system.router.cached_tree_count <= 5


class TestListenerTeardown:
    def test_router_close_removes_link_listeners(self):
        network = random_mesh(2, num_nodes=8, extra_edges=4)
        baseline = len(network.links[0]._listeners)
        routers = [OverlayRouter(network) for _ in range(3)]
        assert len(network.links[0]._listeners) == baseline + 3
        for router in routers:
            router.close()
            router.close()  # idempotent
        assert len(network.links[0]._listeners) == baseline

    def test_router_context_manager(self):
        network = random_mesh(2, num_nodes=8, extra_edges=4)
        baseline = len(network.links[0]._listeners)
        with OverlayRouter(network) as router:
            assert np.isfinite(router.delay(0, 3))
        assert len(network.links[0]._listeners) == baseline

    def test_closed_router_ignores_bandwidth_changes(self):
        network = random_mesh(2, num_nodes=8, extra_edges=4)
        router = OverlayRouter(network)
        live = OverlayRouter(network)
        link = network.links[0]
        router.close()
        link.allocate_bandwidth(1000.0)
        # the live router tracked the change; the closed one did not
        assert live._link_available[link.link_id] == link.available_kbps
        assert router._link_available[link.link_id] != link.available_kbps
        live.close()
        link.release_bandwidth(1000.0)

    def test_global_state_close_removes_listeners(self):
        network = random_mesh(4, num_nodes=8, extra_edges=4)
        node = network.nodes[0]
        link = network.links[0]
        node_baseline = len(node._listeners)
        link_baseline = len(link._listeners)
        managers = [GlobalStateManager(network) for _ in range(3)]
        assert len(node._listeners) == node_baseline + 3
        assert len(link._listeners) == link_baseline + 3
        for manager in managers:
            manager.close()
            manager.close()
        assert len(node._listeners) == node_baseline
        assert len(link._listeners) == link_baseline

    def test_remove_listener_absent_is_noop(self):
        network = random_mesh(4, num_nodes=8, extra_edges=4)
        network.nodes[0].remove_change_listener(lambda n: None)
        network.nodes[0].remove_liveness_listener(lambda n: None)
        network.links[0].remove_change_listener(lambda l: None)


class TestMemoryFootprint:
    def test_router_footprint_tracks_cache_bound(self):
        network = random_mesh(6, num_nodes=12, extra_edges=8)
        small = OverlayRouter(network, tree_cache_size=2)
        large = OverlayRouter(network)
        for source in range(len(network)):
            small.virtual_link_rows(source)
            large.virtual_link_rows(source)
        small_fp = small.memory_footprint()
        large_fp = large.memory_footprint()
        for key in ("trees", "path_cache", "qos_cache", "link_arrays", "total"):
            assert key in small_fp
        assert small_fp["trees"] < large_fp["trees"]
        assert small_fp["total"] == sum(
            v for k, v in small_fp.items() if k != "total"
        )

    def test_global_state_footprint(self):
        network = random_mesh(6, num_nodes=12, extra_edges=8)
        footprint = GlobalStateManager(network).memory_footprint()
        assert footprint["link_state"] >= len(network.links) * 8
        assert footprint["total"] == footprint["node_state"] + footprint["link_state"]
