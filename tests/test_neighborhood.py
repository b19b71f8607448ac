"""The shortest-path tree readers, the neighbourhood index built on
them, churn, LRU bounding, and the prune-spec resolver.

One tree class answers every virtual-link read, for the router's full
trees and the index's bounded ones alike: delay and composed loss at
positions, stale bottleneck bandwidth into a memo, the live bottleneck
walk, path links and the virtual link.  ``TestTreeReaders`` checks that
contract once, on a full tree and on bounded trees at k < N and k ≥ N:
every figure read for a member equals the full tree's, float for float
(``==``), and a non-member reads as unreachable.  The scorer keeps one
home for the stale-bandwidth memos of both kinds, restarted when the
link version or the router epoch moves.  ``TestBoundedTreeIdentity``,
``TestLossOnDemand`` and ``TestStaleBandwidthOnDemand`` pin the bounded
cases of the same contract on fixed meshes and on batches of member
positions, which the node-batch sweep reaches only rarely at small k.
Index and router share one tree solve, so those checks alone would be
circular: the oracle differential compares every entry array with the
heap-based bounded Dijkstra in ``tests/oracles/bounded_dijkstra.py``,
which shares no code with either.  Churn tests are differential: after
an arbitrary fault/recovery sequence the index must answer identically
to an index built fresh against the same router.  The solve-bound tests
check that the triangle-inequality limits decide only how far each scipy
solve goes, and live for one router epoch.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ACPComposer
from repro.experiments import EVALUATION_DEPLOYMENT
from repro.observability import TraceRecorder
from repro.simulation import SystemConfig, build_system
from repro.topology import overlay
from repro.topology.neighborhood import (
    AUTO_PRUNE_FLOOR,
    NeighborhoodIndex,
    resolve_prune_k,
)
from repro.topology.routing import OverlayRouter
from tests.oracles.bounded_dijkstra import bounded_dijkstra
from tests.test_fastscore import outcome_signature, requests_for
from tests.test_routing_differential import (
    bandwidth_row,
    link_rows,
    random_mesh,
)


def entry_arrays(entry):
    """``(members, delay, loss, uplink, parent)`` over an entry's members
    in settle order, the heap oracle's layout."""
    count = len(entry.members)
    return (
        entry.members,
        entry.delay[:count],
        entry.loss_at(np.arange(count)),
        entry.uplink[:count],
        entry.parent[:count],
    )


def assert_entry_matches_router(index, router, source, k):
    """Member figures must equal the full router's, byte for byte."""
    entry = index.entry(source, k)
    delay_row, loss_row = link_rows(router, source)

    # membership: exactly the k delay-nearest reachable nodes (delays are
    # continuous, so the prefix is unique)
    reachable = int(np.isfinite(delay_row).sum())
    members = entry.members
    count = len(members)
    assert count == min(k, reachable)
    full_order = np.argsort(delay_row, kind="stable")[:reachable]
    assert np.array_equal(members, full_order[:count])

    assert members[0] == source
    delay, loss = entry.link_rows(np.arange(count))
    assert np.array_equal(delay, delay_row[members])
    assert np.array_equal(loss, loss_row[members])
    for position, node_id in enumerate(members.tolist()):
        assert entry.path_links(position) == router.overlay_path(source, node_id)
        assert entry.position(node_id) == position
    # positions() agrees with position() and flags non-members
    probe = np.arange(len(router.network))
    positions = entry.positions(probe)
    for node_id in probe.tolist():
        assert positions[node_id] == entry.position(node_id)
    assert ((positions >= 0).sum()) == count
    return entry


def reference_reads(router, source, stale):
    """Per node the full tree reaches from ``source``: delay, loss, path
    links, stale bottleneck over ``stale`` and live bottleneck, each from
    the router's pair reads and a plain min along the path."""
    reads = {}
    for node in range(len(router.network)):
        if not router.reachable(source, node):
            continue
        path = router.overlay_path(source, node)
        reads[node] = (
            router.virtual_link_qos(source, node).values,
            path,
            min((stale[link] for link in path), default=math.inf),
            router.available_bandwidth(source, node),
        )
    return reads


def churn(network, rng, down_share, link_share):
    """A random down-node set and down-link set."""
    down_nodes = {v for v in range(len(network)) if rng.random() < down_share}
    down_links = {
        link.link_id for link in network.links if rng.random() < link_share
    }
    return down_nodes, down_links


class TestTreeReaders:
    """The one tree class's readers, on every kind of tree."""

    @pytest.mark.parametrize("kind", ["full", "bounded-below-n", "bounded-at-least-n"])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_nodes=st.integers(min_value=2, max_value=30),
        extra_edges=st.integers(min_value=0, max_value=40),
        down_share=st.floats(min_value=0.0, max_value=0.4),
        link_share=st.floats(min_value=0.0, max_value=0.4),
        k_draw=st.integers(min_value=0, max_value=10_000),
        reads=st.lists(
            st.lists(st.integers(min_value=0, max_value=10_000), max_size=12),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_reads_match_full_tree(
        self, kind, seed, num_nodes, extra_edges, down_share, link_share, k_draw, reads
    ):
        """Node batches in any order, with repeats, read into one tree's
        memos under two link versions, then again after a churn step,
        equal a fresh router's figures at every node the tree holds, and
        read ``inf`` delay, zero loss, ``-inf`` stale bandwidth and no
        path or live bandwidth at every other node.  A bounded tree holds
        exactly the first min(k, reachable) nodes by (delay, node id)."""
        spanning = num_nodes - 1
        extra_edges = min(extra_edges, num_nodes * spanning // 2 - spanning)
        network = random_mesh(seed, num_nodes, extra_edges, loss_range=(0.0, 0.2))
        rng = random.Random(seed)
        for link in network.links:
            link.allocate_bandwidth(rng.uniform(0.0, 5_000.0))
        versions = [
            np.asarray([rng.uniform(1_000.0, 9_000.0) for _ in network.links])
            for _ in range(2)
        ]
        if kind == "full":
            k = None
        elif kind == "bounded-below-n":
            k = 1 + k_draw % max(1, num_nodes - 1)
        else:
            k = num_nodes + k_draw % 6
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=k or 1)
            for _step in range(2):
                down_nodes, down_links = churn(network, rng, down_share, link_share)
                router.set_down_nodes(down_nodes)
                router.set_down_links(down_links)
                with OverlayRouter(network) as fresh:
                    fresh.set_down_nodes(down_nodes)
                    fresh.set_down_links(down_links)
                    for source in range(num_nodes):
                        self.check_source(
                            router, index, fresh, source, k, versions, reads
                        )
            index.close()

    @staticmethod
    def check_source(router, index, fresh, source, k, versions, reads):
        num_nodes = len(router.network)
        tree = router._tree(source) if k is None else index.entry(source, k)
        held = None
        for stale in versions:
            want = reference_reads(fresh, source, stale)
            if held is None:
                held = set(want)
                if k is not None:
                    by_delay = sorted(want, key=lambda node: (want[node][0][0], node))
                    assert tree.members.tolist() == by_delay[:k]
                    held = set(by_delay[:k])
            memo = np.full(len(tree.delay), np.nan)
            for batch in reads:
                nodes = np.array([read % num_nodes for read in batch], dtype=np.int64)
                positions = tree.positions(nodes)
                delay, loss = tree.link_rows(positions)
                bandwidth = tree.stale_bandwidth(positions, stale, memo)
                for i, node in enumerate(nodes.tolist()):
                    got = ((delay[i], loss[i]), bandwidth[i])
                    if node in held:
                        assert got == (want[node][0], want[node][2]), (source, node)
                    else:
                        assert got == ((math.inf, 0.0), -math.inf), (source, node)
        for node in range(num_nodes):
            link = tree.virtual_link(node)
            live = tree.live_bandwidth(node, router.link_available)
            if node in held:
                qos, path, _, available = want[node]
                assert tree.path_links(tree.position(node)) == path
                assert (link.overlay_link_ids, link.qos.values) == (path, qos)
                assert live == available
            else:
                assert (link, live) == (None, None)
                if k is not None:
                    assert tree.position(node) == -1

    @pytest.mark.parametrize("k", [None, 3, 40])
    def test_memoised_reads_skip_the_fold(self, k, monkeypatch):
        """Once every position read is memoised, loss and stale bandwidth
        answer from one gather: the same floats, and no ``fold_paths``."""
        from repro.topology import routing

        network = random_mesh(11, 24, 30, loss_range=(0.0, 0.2))
        stale = np.linspace(1_000.0, 9_000.0, len(network.links))
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=k or 1)
            trees = [
                router._tree(source) if k is None else index.entry(source, k)
                for source in range(len(network))
            ]
            batches = []
            for tree in trees:
                every = np.arange(len(tree.delay))
                some = every[::-3][:5].repeat(2)
                memo = np.full(len(tree.delay), np.nan)
                first = [
                    (tree.loss_at(p).tolist(), tree.stale_bandwidth(p, stale, memo).tolist())
                    for p in (every, some)
                ]
                batches.append((tree, memo, every, some, first))

            def no_fold(*args, **kwargs):
                raise AssertionError("a memoised read entered fold_paths")

            monkeypatch.setattr(routing, "fold_paths", no_fold)
            for tree, memo, every, some, first in batches:
                again = [
                    (tree.loss_at(p).tolist(), tree.stale_bandwidth(p, stale, memo).tolist())
                    for p in (every, some)
                ]
                assert again == first
            index.close()

    def test_scorer_keeps_one_memo_home_for_both_kinds(self):
        """Full and bounded trees fold stale bandwidth into rows of the
        scorer's one LRU, keyed by upstream node and tree size; a row is
        reused until the link version or the router epoch moves, and the
        ``fastscore.bw_row_build`` / ``bw_row_hit`` counters count both
        kinds."""
        system = build_system(
            SystemConfig(num_routers=240, num_nodes=100, seed=7, candidate_prune_k=12)
        )
        recorder = TraceRecorder()
        context = system.composition_context(recorder=recorder)
        scorer = context.fast_scorer()
        global_state = context.global_state
        index = context.neighborhood_index()
        nodes = np.arange(len(system.network))

        def read(source, k):
            if k is None:
                return scorer._stale_bandwidth(source, nodes, None, None)
            entry = index.entry(source, k)
            positions = entry.positions(nodes)
            return scorer._stale_bandwidth(source, nodes, k, (entry, positions))

        def full_row(source):
            memo = np.full(len(nodes), np.nan)
            return context.router.bottleneck_bandwidth_row(
                source, global_state.link_available_array, nodes, memo
            )

        def memo_of(source, k):
            return scorer._bandwidth_rows.get((source, k))[1]

        builds = hits = 0
        for step in ("cold", "warm", "link version", "epoch"):
            if step == "link version":
                for link in system.network.links:
                    link.allocate_bandwidth(0.5 * link.available_kbps)
                global_state.force_refresh()
            elif step == "epoch":
                context.router.set_down_links({system.network.links[0].link_id})
            memos = {}
            for k in (None, 12, 48):
                want = full_row(3)
                got = read(3, k)
                if k is None:
                    assert np.array_equal(got, want)
                else:
                    members = index.entry(3, k).members
                    inside = np.isin(nodes, members)
                    assert np.array_equal(got[inside], want[inside])
                    assert (got[~inside] == -math.inf).all()
                memos[k] = memo_of(3, k)
            if step == "warm":
                hits += 3
                assert all(memos[k] is before[k] for k in memos)
            else:
                builds += 3
                if step != "cold":
                    assert all(memos[k] is not before[k] for k in memos)
            before = memos
            counters = recorder.registry.snapshot()["counters"]
            assert counters.get("fastscore.bw_row_build", 0) == builds
            assert counters.get("fastscore.bw_row_hit", 0) == hits
        index.close()

    def test_context_reads_fall_back_to_the_router(self):
        """A pruned context answers a member pair from the neighbourhood
        and any other pair from the router, with the router's figures."""
        system = build_system(
            SystemConfig(num_routers=240, num_nodes=100, seed=7, candidate_prune_k=8)
        )
        context = system.composition_context()
        router = context.router
        entry = context.neighborhood_index().entry(5)
        for node in range(len(system.network)):
            if node == 5 or not router.reachable(5, node):
                continue
            link = context.virtual_link(5, node)
            want = router.virtual_link(5, node)
            assert (link.overlay_link_ids, link.qos.values) == (
                want.overlay_link_ids,
                want.qos.values,
            )
            assert context.live_available_bandwidth(5, node) == (
                router.available_bandwidth(5, node)
            )
            member = entry.position(node) >= 0
            assert (context.neighborhood_index().virtual_link(5, node) is None) != member
        context.neighborhood_index().close()


class TestBoundedTreeIdentity:
    """Fixed meshes and k: a bounded tree's member figures equal the
    full router's pair and row reads, byte for byte."""

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
                positions = np.arange(len(entry.members))
                memo = np.full(len(entry.delay), np.nan)
                row = index.stale_bottleneck_row(entry, stale, positions, memo)
                full = bandwidth_row(router, source, stale)
                assert np.array_equal(row, full[entry.members])
                # the caller's memo answers later reads whatever values
                # they pass; a fresh memo (the scorer starts one when the
                # link version moves) folds the new values
                halved = stale / 2
                again = index.stale_bottleneck_row(entry, halved, positions, memo)
                assert np.array_equal(again, row)
                memo = np.full(len(entry.delay), np.nan)
                fresh = index.stale_bottleneck_row(entry, halved, positions, memo)
                want = bandwidth_row(router, source, halved)[entry.members]
                assert np.array_equal(fresh, want)
                assert not np.array_equal(fresh, row)
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
            assert len(entry.members) == len(network)
            index.close()


class TestLossOnDemand:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_nodes=st.integers(min_value=2, max_value=30),
        extra_edges=st.integers(min_value=0, max_value=40),
        down_share=st.floats(min_value=0.0, max_value=0.4),
        link_share=st.floats(min_value=0.0, max_value=0.4),
        k=st.integers(min_value=1, max_value=35),
        reads=st.lists(
            st.lists(st.integers(min_value=0, max_value=10_000), max_size=12),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_loss_at_matches_router_rows(
        self, seed, num_nodes, extra_edges, down_share, link_share, k, reads
    ):
        """Member positions in any order, with repeats, read batch after
        batch into one memo, equal the router's loss row float for float,
        under random down nodes (crashed sources included) and down links."""
        spanning = num_nodes - 1
        extra_edges = min(extra_edges, num_nodes * spanning // 2 - spanning)
        network = random_mesh(seed, num_nodes, extra_edges, loss_range=(0.0, 0.2))
        rng = random.Random(seed)
        down_nodes, down_links = churn(network, rng, down_share, link_share)
        with OverlayRouter(network) as router:
            router.set_down_nodes(down_nodes)
            router.set_down_links(down_links)
            index = NeighborhoodIndex(router, k=k)
            for source in range(num_nodes):
                entry = index.entry(source)
                count = len(entry.members)
                _, loss_row = link_rows(router, source)
                for batch in reads:
                    positions = np.array(
                        [read % count for read in batch], dtype=np.int64
                    )
                    got = entry.loss_at(positions)
                    want = loss_row[entry.members[positions]]
                    assert got.tolist() == want.tolist(), (source, positions)
                # the virtual link reads the same memo
                position = reads[0][0] % count if reads[0] else 0
                if position:
                    link = index.virtual_link(source, int(entry.members[position]))
                    assert link.qos.values[1] == loss_row[entry.members[position]]
                every = entry.loss_at(np.arange(count))
                assert every.tolist() == loss_row[entry.members].tolist()
            index.close()


class TestStaleBandwidthOnDemand:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_nodes=st.integers(min_value=2, max_value=30),
        extra_edges=st.integers(min_value=0, max_value=40),
        down_share=st.floats(min_value=0.0, max_value=0.4),
        link_share=st.floats(min_value=0.0, max_value=0.4),
        k=st.integers(min_value=1, max_value=35),
        reads=st.lists(
            st.lists(st.integers(min_value=0, max_value=10_000), max_size=12),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_position_subsets_match_router_row_across_link_versions(
        self, seed, num_nodes, extra_edges, down_share, link_share, k, reads
    ):
        """Member positions in any order, with repeats, read batch after
        batch into one memo per link version, under two link versions
        with different stale values, equal the router's row at the
        members float for float, under random down nodes and down links."""
        spanning = num_nodes - 1
        extra_edges = min(extra_edges, num_nodes * spanning // 2 - spanning)
        network = random_mesh(seed, num_nodes, extra_edges)
        rng = random.Random(seed)
        down_nodes, down_links = churn(network, rng, down_share, link_share)
        versions = [
            np.asarray([rng.uniform(1_000.0, 9_000.0) for _ in network.links])
            for _ in range(2)
        ]
        with OverlayRouter(network) as router:
            router.set_down_nodes(down_nodes)
            router.set_down_links(down_links)
            index = NeighborhoodIndex(router, k=k)
            for source in range(num_nodes):
                entry = index.entry(source)
                count = len(entry.members)
                for stale in versions:
                    full = bandwidth_row(router, source, stale)
                    memo = np.full(len(entry.delay), np.nan)
                    for batch in reads:
                        positions = np.array(
                            [read % count for read in batch], dtype=np.int64
                        )
                        got = index.stale_bottleneck_row(
                            entry, stale, positions, memo
                        )
                        want = full[entry.members[positions]]
                        assert got.tolist() == want.tolist(), (source, positions)
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
                got = entry_arrays(entry)
                for name, a, b in zip(
                    ("members", "delay", "loss", "uplink", "parent"), got, want
                ):
                    assert np.array_equal(a, b), (name, source, a, b)
                if size == "all":
                    # the full router's rows over every reachable node
                    members, delay, loss, _, _ = want
                    delay_row, loss_row = link_rows(router, source)
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
                    for a, b in zip(
                        entry_arrays(index.entry(source)),
                        entry_arrays(fresh.entry(source)),
                    ):
                        assert np.array_equal(a, b)
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
        for a, b in zip(entry_arrays(entry), want):
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
            assert np.count_nonzero(distances <= before.delay[len(before.members) - 1]) < 8
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
    def test_system_cache_sizes_bound_the_pruned_caches(self):
        """On a pruned system ``neighborhood_cache_size`` bounds the index's
        entries and ``scorer_row_cache_size`` the scorer's memo rows of the
        bounded trees; tiny bounds evict and decide exactly like bounds
        that never evict."""
        signatures = []
        for neighborhood_cache, row_cache in ((3, 2), (1000, 1000)):
            system = build_system(
                SystemConfig(
                    num_routers=240,
                    num_nodes=100,
                    deployment=EVALUATION_DEPLOYMENT,
                    seed=7,
                    candidate_prune_k=12,
                    neighborhood_cache_size=neighborhood_cache,
                    scorer_row_cache_size=row_cache,
                )
            )
            context = system.composition_context(rng=random.Random(11))
            composer = ACPComposer(context, probing_ratio=0.3)
            outcomes = []
            for request in requests_for(system, 25):
                outcomes.append(outcome_signature(request, composer.compose(request)))
                context.allocator.cancel_transient(request.request_id)
            signatures.append(outcomes)
            index = context.neighborhood_index()
            rows = context.fast_scorer()._bandwidth_rows
            assert index.cached_entry_count <= neighborhood_cache
            assert len(rows) <= row_cache
            evicting = neighborhood_cache == 3
            assert (index.evictions > 0, rows.evictions > 0) == (evicting, evicting)
            assert all(k is not None for _, k in rows)
            index.close()
        assert signatures[0] == signatures[1]

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
            assert set(loaded) == {"entries", "bounds", "total"}
            # the per-node solve bounds are the index's only O(N) state
            assert empty["total"] == empty["bounds"] == 8 * len(network)
            assert loaded["entries"] > 0
            # a virtual link cached on an entry is counted with it
            index.virtual_link(0, int(index.entry(0).members[1]))
            assert index.memory_footprint()["entries"] > loaded["entries"]
            assert loaded["total"] == sum(
                v for k, v in loaded.items() if k != "total"
            )
            index.close()

    def test_entries_are_o_of_k_not_n(self):
        network = random_mesh(4, num_nodes=40, extra_edges=50)
        with OverlayRouter(network) as router:
            index = NeighborhoodIndex(router, k=4)
            entry = index.entry(0)
            assert len(entry.members) == 4
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
