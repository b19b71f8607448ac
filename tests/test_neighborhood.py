"""Router-neighbourhood index: byte-identity to the full router and to
an independent heap solver, churn, LRU bounding, and the prune-spec
resolver.

The index's whole value proposition is that for *members* of a source's
bounded tree, every figure it answers — delay, composed loss, path links,
bottleneck bandwidth — is byte-identical to the full
:class:`~repro.topology.routing.OverlayRouter` answer (module docstring
of :mod:`repro.topology.neighborhood` argues why; these tests check it
exactly, ``==`` on floats).  The index and the router share one tree
solve, so those checks alone would be circular: the oracle differential
compares every entry array with the heap-based bounded Dijkstra in
``tests/oracles/bounded_dijkstra.py``, which shares no code with either.
Churn tests are differential: after an arbitrary fault/recovery sequence
the index must answer identically to an index built fresh against the
same router.  The solve-bound tests check that the triangle-inequality
limits decide only how far each scipy solve goes, and live for one
router epoch.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.topology import overlay
from repro.topology.neighborhood import (
    AUTO_PRUNE_FLOOR,
    NeighborhoodIndex,
    resolve_prune_k,
)
from repro.topology.routing import OverlayRouter
from tests.oracles.bounded_dijkstra import bounded_dijkstra
from tests.test_routing_differential import random_mesh


def assert_entry_matches_router(index, router, source, k):
    """Member figures must equal the full router's, byte for byte."""
    entry = index.entry(source, k)
    delay_row, loss_row = router.virtual_link_rows(source)

    # membership: exactly the k delay-nearest reachable nodes (delays are
    # continuous, so the prefix is unique)
    finite = np.isfinite(delay_row)
    reachable = int(finite.sum())
    assert len(entry) == min(k, reachable)
    full_order = np.argsort(delay_row, kind="stable")[:reachable]
    assert np.array_equal(entry.members, full_order[: len(entry)])

    members = entry.members
    assert entry.members[0] == source
    assert np.array_equal(entry.delay, delay_row[members])
    assert np.array_equal(entry.loss, loss_row[members])
    for position, node_id in enumerate(members.tolist()):
        assert entry.path_links(position) == router.overlay_path(source, node_id)
        assert entry.position(node_id) == position
    # positions() agrees with position() and flags non-members
    probe = np.arange(len(router.network))
    positions = entry.positions(probe)
    for node_id in probe.tolist():
        assert positions[node_id] == entry.position(node_id)
    assert ((positions >= 0).sum()) == len(entry)
    return entry


class TestBoundedTreeIdentity:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("k", [1, 4, 12, 50])
    def test_member_figures_match_full_router(self, seed, k):
        network = random_mesh(seed, num_nodes=25, extra_edges=30)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=k)
            for source in range(len(network)):
                assert_entry_matches_router(index, router, source, k)
            index.close()

    def test_live_bandwidth_matches_router(self):
        network = random_mesh(5, num_nodes=20, extra_edges=25)
        rng = random.Random(9)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=8)
            # perturb residual bandwidth so the min-fold has work to do
            for link in network.links:
                link.allocate_bandwidth(rng.uniform(0.0, 5_000.0))
            for source in range(len(network)):
                entry = index.entry(source)
                for node_id in entry.members.tolist():
                    got = index.live_bandwidth(source, node_id)
                    want = (
                        float("inf")
                        if node_id == source
                        else router.available_bandwidth(source, node_id)
                    )
                    assert got == want
                # non-members answer None (caller falls back to the router)
                non_members = set(range(len(network))) - set(
                    entry.members.tolist()
                )
                for node_id in sorted(non_members):
                    assert index.live_bandwidth(source, node_id) is None
            index.close()

    def test_stale_bottleneck_row_matches_router_row(self):
        network = random_mesh(6, num_nodes=20, extra_edges=25)
        rng = random.Random(10)
        stale = np.asarray(
            [rng.uniform(1_000.0, 9_000.0) for _ in network.links]
        )
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=9)
            for source in range(len(network)):
                entry = index.entry(source)
                row = index.stale_bottleneck_row(entry, stale, link_version=1)
                full = router.bottleneck_bandwidth_row(source, stale)
                assert np.array_equal(row, full[entry.members])
                # cached for the same link version, recomputed on a bump
                assert index.stale_bottleneck_row(entry, stale, 1) is row
                assert index.stale_bottleneck_row(entry, stale, 2) is not row
            index.close()

    def test_virtual_link_matches_router(self):
        network = random_mesh(7, num_nodes=18, extra_edges=20)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=7)
            for source in range(len(network)):
                entry = index.entry(source)
                for node_id in entry.members.tolist():
                    if node_id == source:
                        continue
                    got = index.virtual_link(source, node_id)
                    want = router.virtual_link(source, node_id)
                    assert got.overlay_link_ids == want.overlay_link_ids
                    assert got.qos.values == want.qos.values
            index.close()

    def test_k_at_least_n_covers_every_reachable_node(self):
        network = random_mesh(8, num_nodes=15, extra_edges=12)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=len(network))
            entry = index.entry(4)
            assert len(entry) == len(network)
            index.close()


class TestOracleDifferential:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_nodes=st.integers(min_value=2, max_value=30),
        extra_edges=st.integers(min_value=0, max_value=40),
        down_share=st.floats(min_value=0.0, max_value=0.4),
        link_share=st.floats(min_value=0.0, max_value=0.4),
        size=st.sampled_from(["one", "small", "all"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_entries_match_heap_solver(
        self, seed, num_nodes, extra_edges, down_share, link_share, size
    ):
        """Every entry array equals the independent heap solver's, under
        random down nodes (crashed sources included) and down links."""
        spanning = num_nodes - 1
        extra_edges = min(extra_edges, num_nodes * spanning // 2 - spanning)
        network = random_mesh(seed, num_nodes, extra_edges, loss_range=(0.0, 0.2))
        rng = random.Random(seed)
        down_nodes = {v for v in range(num_nodes) if rng.random() < down_share}
        down_links = {
            link.link_id for link in network.links if rng.random() < link_share
        }
        k = {
            "one": 1,
            "small": rng.randint(2, 8),
            "all": num_nodes + rng.randint(0, 5),
        }[size]
        with OverlayRouter(network) as router:
            router.set_down_nodes(down_nodes)
            router.set_down_links(down_links)
            index = NeighborhoodIndex(router, k=k)
            for source in range(num_nodes):
                entry = index.entry(source)
                want = bounded_dijkstra(network, source, k, down_nodes, down_links)
                got = (entry.members, entry.delay, entry.loss, entry.uplink,
                       entry.parent_pos)
                for name, a, b in zip(
                    ("members", "delay", "loss", "uplink", "parent_pos"), got, want
                ):
                    assert np.array_equal(a, b), (name, source, a, b)
                if size == "all":
                    # the full router's rows over every reachable node
                    members, delay, loss, _, _ = want
                    delay_row, loss_row = router.virtual_link_rows(source)
                    assert np.array_equal(delay_row[members], delay)
                    assert np.array_equal(loss_row[members], loss)
                    assert np.count_nonzero(np.isfinite(delay_row)) == len(members)
            index.close()


class TestChurnMaintenance:
    def test_differential_under_random_churn(self):
        """After arbitrary node/link churn, the cached index answers
        exactly like one built fresh against the same router."""
        network = random_mesh(13, num_nodes=22, extra_edges=26)
        rng = random.Random(31)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=8)
            down_nodes: set = set()
            down_links: set = set()
            for _step in range(25):
                action = rng.random()
                if action < 0.35 and len(down_nodes) < 6:
                    down_nodes.add(rng.randrange(len(network)))
                    router.set_down_nodes(down_nodes)
                elif action < 0.5 and down_nodes:
                    down_nodes.discard(rng.choice(sorted(down_nodes)))
                    router.set_down_nodes(down_nodes)
                elif action < 0.8 and len(down_links) < 6:
                    down_links.add(rng.randrange(len(network.links)))
                    router.set_down_links(down_links)
                elif down_links:
                    down_links.discard(rng.choice(sorted(down_links)))
                    router.set_down_links(down_links)
                fresh = NeighborhoodIndex(router, k=8)
                for source in rng.sample(range(len(network)), 6):
                    a = index.entry(source)
                    b = fresh.entry(source)
                    assert np.array_equal(a.members, b.members)
                    assert np.array_equal(a.delay, b.delay)
                    assert np.array_equal(a.loss, b.loss)
                    assert np.array_equal(a.uplink, b.uplink)
                fresh.close()
            assert index.churn_drops > 0
            index.close()

    def test_stale_entry_is_counted_and_resolved(self):
        network = random_mesh(2, num_nodes=10, extra_edges=8)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=5)
            first = index.entry(0)
            assert index.entry(0) is first
            router.set_down_links({network.links[0].link_id})
            assert index.entry(0) is not first
            assert (index.solves, index.churn_drops) == (2, 1)
            index.close()

    def test_crashed_source_yields_singleton_entry(self):
        network = random_mesh(2, num_nodes=10, extra_edges=8)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=5)
            router.set_down_nodes({3})
            entry = index.entry(3)
            assert entry.members.tolist() == [3]
            index.close()


class TestSolveBounds:
    """The index solves a cold entry only as far as a triangle-inequality
    bound from its earlier solves; the bound decides the cost, never the
    entry, and lives for one router epoch."""

    @staticmethod
    def record_limits(monkeypatch):
        """The ``limit`` of every scipy solve the index runs from now on."""
        limits = []
        solve = overlay.dijkstra

        def recording(*args, **kwargs):
            limits.append(kwargs["limit"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(overlay, "dijkstra", recording)
        return limits

    @staticmethod
    def assert_matches_oracle(entry, network, source, k, down_nodes=frozenset()):
        want = bounded_dijkstra(network, source, k, down_nodes)
        got = (entry.members, entry.delay, entry.loss, entry.uplink, entry.parent_pos)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_warm_entries_solve_once_within_their_bound(self, monkeypatch):
        """Only the first entry has no bound; every later one is one
        bounded solve that reaches its k members (no fallback)."""
        network = random_mesh(21, num_nodes=30, extra_edges=40)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=6)
            limits = self.record_limits(monkeypatch)
            for source in range(len(network)):
                self.assert_matches_oracle(index.entry(source), network, source, 6)
            assert limits[0] == math.inf
            assert len(limits) == len(network)
            assert all(math.isfinite(limit) for limit in limits[1:])
            index.close()

    def test_churn_resets_bounds(self, monkeypatch):
        """A crash on the source's paths lengthens them past its cached
        bound: the next entry is solved in full at the new epoch (the old
        bound is not tried) and equals a fresh solve."""
        network = random_mesh(13, num_nodes=30, extra_edges=40)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=8)
            for source in range(len(network)):
                index.entry(source)
            before = index.entry(0)
            crashed = set(before.members[1:5].tolist())
            router.set_down_nodes(crashed)
            # the old k-th member delay no longer covers k live nodes
            distances, _ = router.solve_tree(0)
            assert np.count_nonzero(distances <= before.delay[-1]) < 8
            limits = self.record_limits(monkeypatch)
            entry = index.entry(0)
            assert limits == [math.inf]
            self.assert_matches_oracle(entry, network, 0, 8, crashed)
            fresh = NeighborhoodIndex(router, k=8)
            assert np.array_equal(entry.members, fresh.entry(0).members)
            fresh.close()
            index.close()

    def test_widen_sizes_solve_in_full(self, monkeypatch):
        """Widen-retry sizes bypass the configured-size bounds: each is
        one full solve, equal to the oracle's entry of that size."""
        network = random_mesh(8, num_nodes=30, extra_edges=40)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=4)
            for source in range(len(network)):
                index.entry(source)
            limits = self.record_limits(monkeypatch)
            for source in range(len(network)):
                self.assert_matches_oracle(
                    index.entry(source, 16), network, source, 16
                )
            assert limits == [math.inf] * len(network)
            index.close()


class TestBounding:
    def test_lru_capacity_holds_and_evictions_count(self):
        network = random_mesh(4, num_nodes=20, extra_edges=20)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=6, capacity=3)
            for source in range(len(network)):
                index.entry(source)
                assert index.cached_entry_count <= 3
            assert index.evictions > 0
            # an evicted source re-solves value-identically
            entry = index.entry(0)
            fresh = NeighborhoodIndex(router, k=6)
            assert np.array_equal(entry.members, fresh.entry(0).members)
            fresh.close()
            index.close()

    def test_memory_footprint_attributes_parts(self):
        network = random_mesh(4, num_nodes=20, extra_edges=20)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=6)
            empty = index.memory_footprint()
            for source in range(10):
                index.entry(source)
            loaded = index.memory_footprint()
            assert set(loaded) == {"entries", "bandwidth_rows", "bounds", "total"}
            # the per-node solve bounds are the index's only O(N) state
            assert empty["total"] == empty["bounds"] == 8 * len(network)
            assert loaded["entries"] > 0
            assert loaded["bandwidth_rows"] == 0
            stale = np.ones(len(network.links))
            index.stale_bottleneck_row(index.entry(0), stale, link_version=1)
            rows = index.memory_footprint()["bandwidth_rows"]
            assert rows == 6 * 8
            assert loaded["total"] == sum(
                v for k, v in loaded.items() if k != "total"
            )
            index.close()

    def test_entries_are_o_of_k_not_n(self):
        network = random_mesh(4, num_nodes=40, extra_edges=50)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=4)
            entry = index.entry(0)
            assert len(entry) == 4
            assert entry.members.nbytes == 4 * 8
            index.close()


class TestResolvePruneK:
    def test_none_disables(self):
        assert resolve_prune_k(None, 10_000) is None

    def test_auto_floor_and_growth(self):
        assert resolve_prune_k("auto", 100) == 100  # capped at N
        assert resolve_prune_k("auto", 1_000) == AUTO_PRUNE_FLOOR
        assert resolve_prune_k("auto", 10_000) == 800
        assert resolve_prune_k("auto", 50_000) == 1789

    def test_explicit_int_capped_at_n(self):
        assert resolve_prune_k(64, 10_000) == 64
        assert resolve_prune_k(5_000, 400) == 400

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="candidate_prune_k"):
            resolve_prune_k("fast", 100)
        with pytest.raises(ValueError, match=">= 1"):
            resolve_prune_k(0, 100)
        with pytest.raises(ValueError, match=">= 1"):
            resolve_prune_k(-3, 100)

    def test_index_rejects_bad_k(self):
        network = random_mesh(1, num_nodes=8, extra_edges=4)
        with OverlayRouter(network) as router:
            with pytest.raises(ValueError, match=">= 1"):
                NeighborhoodIndex(router, k=0)
