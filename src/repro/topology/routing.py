"""Overlay routing and virtual links.

Section 2.1: "The connection between two adjacent components is called
virtual link (l_i), which consists of a set of overlay links.  The QoS of
the virtual link is the aggregation of QoS values among its constituent
overlay links; the bandwidth availability ba_li is the bottleneck bandwidth
among the overlay links."

:class:`OverlayRouter` answers virtual-link queries — the overlay-link path
between any node pair, its static QoS (delay sums, loss composes), and its
*current* bottleneck bandwidth — from **lazy per-source shortest-path
trees**.  A single-source scipy Dijkstra runs the first time a source is
queried and is cached; the paths and QoS answered from a tree are cached
on that tree.

A tree is valid for one topology epoch.  A change to the down sets
(:meth:`set_down_nodes`, :meth:`set_down_links`) bumps :attr:`epoch`,
rebuilds the routing graph without the down elements (a failed overlay
link is removed exactly like a link adjacent to a crashed node) and drops
every cached tree with the answers cached on it.  Delays are continuous,
so every shortest path is unique and a churned router answers exactly
like a freshly built one with the same down sets
(``tests/test_routing_incremental.py`` checks this under randomized
churn, and ``tests/test_routing_differential.py`` checks both against
networkx).

Every tree, cached here or bounded in :mod:`repro.topology.neighborhood`,
comes from one pipeline: scipy's C Dijkstra over :attr:`live_graph` (in
full by :meth:`solve_tree` here, up to a distance limit by
:func:`~repro.topology.overlay.nearest_targets` there, which settles
every node within the limit identically), then :meth:`tree_edges`
(arriving link ids through a sorted pair-key array).  Composed loss and
stale bottleneck bandwidth are never folded over a whole tree: every
read goes through :func:`fold_paths`, which folds parent-first only down
the paths to the nodes read and memoises each value, so a tree pays per
path read, not per node, and both answer the same floats.

Co-located pairs (a == b) yield the empty path with zero QoS — footnote 4's
"0 network delay" and footnote 8's infinite residual bandwidth.
"""

from __future__ import annotations

import math
import sys
from types import TracebackType
from typing import Dict, Iterable, List, Optional, Tuple, Type

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.model.component_graph import VirtualLinkPath
from repro.model.lru import LRUDict
from repro.model.qos import QoSVector
from repro.observability.hotpath import hot_path
from repro.observability import NULL_RECORDER, Recorder
from repro.topology.overlay import OverlayLink, OverlayNetwork


class RoutingError(RuntimeError):
    """Raised when no overlay path exists between two nodes."""


def fold_paths(
    memo: np.ndarray,
    nodes: np.ndarray,
    parents: np.ndarray,
    uplink: np.ndarray,
    link_values: np.ndarray,
    loss: bool,
) -> np.ndarray:
    """Values of a tree's ``memo`` row at ``nodes`` (any order, repeats
    allowed), folding first the ones not memoised yet.

    ``memo`` holds NaN until a node is folded, and its final value at
    every root a walk can reach (the source, unreachable nodes).  For each
    pending node the walk climbs ``parents`` to the nearest memoised
    ancestor, then folds back down parent-first with the edge value
    ``link_values[uplink[node]]``, memoising every value: composed loss
    ``1 − (1 − parent)(1 − edge)`` when ``loss``, else the min.  These are
    the float operations a whole-tree pass in settle order would do, on
    the same floats in the same order, but only down the paths read.
    """
    path: List[int] = []
    for node in nodes.tolist():
        value = memo.item(node)
        while value != value:  # NaN: not folded yet
            path.append(node)
            node = parents.item(node)
            value = memo.item(node)
        while path:
            node = path.pop()
            edge = link_values.item(uplink.item(node))
            if loss:
                value = 1.0 - (1.0 - value) * (1.0 - edge)
            elif edge < value:
                value = edge
            memo[node] = value
    return memo[nodes]


class _SourceTree:
    """One source's shortest-path tree, its composed-loss memo, and the
    paths and QoS answered from it.

    ``distances`` is exposed to callers read-only.
    """

    __slots__ = ("distances", "predecessors", "finite", "uplink", "loss", "paths", "qos")

    def __init__(
        self, distances: np.ndarray, predecessors: np.ndarray, uplink: np.ndarray
    ) -> None:
        self.distances = distances
        self.predecessors = predecessors
        self.finite = np.isfinite(distances)
        #: per destination, the link id of the tree edge arriving at it
        #: (-1 at the source and at unreachable destinations)
        self.uplink = uplink
        #: composed loss per destination, NaN until :func:`fold_paths`
        #: reads it (0 at the source and at unreachable destinations)
        self.loss = np.where(uplink >= 0, math.nan, 0.0)
        #: per destination, the overlay path and the virtual-link QoS
        self.paths: Dict[int, Tuple[int, ...]] = {}
        self.qos: Dict[int, QoSVector] = {}
        distances.setflags(write=False)

    def nbytes(self) -> int:
        """Resident bytes of this tree's arrays, the loss memo included."""
        parts = (self.distances, self.predecessors, self.finite, self.uplink, self.loss)
        return sum(int(part.nbytes) for part in parts)


class OverlayRouter:
    """Delay-based shortest-path routing over an overlay mesh."""

    def __init__(
        self,
        network: OverlayNetwork,
        recorder: Recorder = NULL_RECORDER,
        tree_cache_size: int = 1024,
    ) -> None:
        self.network = network
        self.recorder = recorder
        self._down_nodes: frozenset = frozenset()
        self._down_links: frozenset = frozenset()
        self._closed = False
        #: monotone topology epoch, bumped once per down-set change; every
        #: cached tree was solved in the current epoch
        self.epoch = 0
        # per-source trees, LRU-bounded; the paths and QoS cached on a tree
        # leave with it, so router cache memory is O(tree_cache_size × N),
        # never O(N²).  Evictions are decision-invisible: delays are
        # continuous, so a re-solve of an evicted source reproduces the
        # identical tree.
        self._trees: LRUDict[int, _SourceTree] = LRUDict(
            capacity=tree_cache_size, on_evict=self._on_tree_evicted
        )
        self._zero_qos = QoSVector.zero()

        links = network.links
        count = len(links)
        self._link_a = np.fromiter(
            (link.node_a for link in links), dtype=np.int64, count=count
        )
        self._link_b = np.fromiter(
            (link.node_b for link in links), dtype=np.int64, count=count
        )
        self._link_delay = np.fromiter(
            (link.delay_ms for link in links), dtype=np.float64, count=count
        )
        self._link_loss = np.fromiter(
            (link.loss_rate for link in links), dtype=np.float64, count=count
        )
        # tree edge (parent, node) -> link id: one searchsorted over the
        # sorted keys parent·N + node, both directions of every link
        n = len(network)
        pair_key = np.concatenate(
            (self._link_a * n + self._link_b, self._link_b * n + self._link_a)
        )
        by_key = np.argsort(pair_key)
        self._pair_key = pair_key[by_key]
        self._pair_link = np.concatenate(
            (np.arange(count, dtype=np.int64),) * 2
        )[by_key]
        # live residual bandwidth, maintained O(1) per allocation so the
        # bottleneck queries never re-read every link object
        self._link_available = np.fromiter(
            (link.available_kbps for link in links), dtype=np.float64, count=count
        )
        for link in links:
            link.add_change_listener(self._on_link_bandwidth)

        self._build_matrix()

    # -- substrate -------------------------------------------------------------

    def _on_link_bandwidth(self, link: OverlayLink) -> None:
        self._link_available[link.link_id] = link.available_kbps

    @property
    def link_available(self) -> np.ndarray:
        """Live per-link residual bandwidth, indexed by link id.

        Maintained O(1) per allocation via link listeners.  Treat as
        read-only — it is the array the router's own bottleneck queries
        fold over, shared so neighbourhood-pruned paths min-fold the
        identical floats.
        """
        return self._link_available

    @property
    def tree_cache_capacity(self) -> int:
        """Configured bound on cached source trees."""
        return self._trees.capacity

    @property
    def cached_tree_count(self) -> int:
        """Source trees currently resident (≤ :attr:`tree_cache_capacity`)."""
        return len(self._trees)

    @property
    def tree_evictions(self) -> int:
        """Source trees evicted by the capacity bound since construction."""
        return self._trees.evictions

    def _on_tree_evicted(self, source: int, tree: _SourceTree) -> None:
        if self.recorder.enabled:
            self.recorder.inc("router.tree_evictions")

    def close(self) -> None:
        """Detach this router from the shared network and free its caches.

        Routers register a bandwidth listener on every overlay link; a
        router that is discarded without ``close()`` stays referenced by
        the network and keeps its arrays alive (and updated) forever —
        exactly what the differential tests' fresh-router-per-step pattern
        used to leak.  Idempotent; the router must not be queried after.
        """
        if self._closed:
            return
        self._closed = True
        for link in self.network.links:
            link.remove_change_listener(self._on_link_bandwidth)
        self._trees.clear()

    def __enter__(self) -> "OverlayRouter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    def memory_footprint(self) -> Dict[str, int]:
        """Approximate resident bytes per router substructure.

        ``nbytes`` for the numpy state (exact) plus ``sys.getsizeof``
        container overheads for the paths and QoS cached on the trees
        (close).  BENCH_scale uses this to attribute memory per subsystem;
        ``total`` sums the parts.
        """
        trees = 0
        path_cache = 0
        qos_cache = 0
        for _, tree in self._trees.items():
            trees += tree.nbytes()
            path_cache += sys.getsizeof(tree.paths)
            for path in tree.paths.values():
                path_cache += sys.getsizeof(path)
            qos_cache += sys.getsizeof(tree.qos)
            for qos in tree.qos.values():
                qos_cache += sys.getsizeof(qos) + sys.getsizeof(qos.values)
        link_arrays = int(
            self._link_a.nbytes
            + self._link_b.nbytes
            + self._link_delay.nbytes
            + self._link_loss.nbytes
            + self._link_available.nbytes
            + self._pair_key.nbytes
            + self._pair_link.nbytes
        )
        footprint = {
            "trees": trees,
            "path_cache": path_cache,
            "qos_cache": qos_cache,
            "link_arrays": link_arrays,
        }
        footprint["total"] = sum(footprint.values())
        return footprint

    def _build_matrix(self) -> None:
        """CSR routing graph for the current down sets.

        Links adjacent to a down node are removed — a crashed node cannot
        relay overlay traffic — and so are links that are down themselves
        (a failed link is a down endpoint at per-link granularity).
        """
        n = len(self.network)
        if self._down_nodes or self._down_links:
            keep = np.ones(len(self._link_a), dtype=bool)
            if self._down_nodes:
                down = np.fromiter(
                    # repro-lint: disable=DET103 -- feeds np.isin masks only; element order is unobservable
                    self._down_nodes, dtype=np.int64, count=len(self._down_nodes)
                )
                keep &= ~(np.isin(self._link_a, down) | np.isin(self._link_b, down))
            if self._down_links:
                down_links = np.fromiter(
                    # repro-lint: disable=DET103 -- feeds a boolean index assignment; element order is unobservable
                    self._down_links, dtype=np.int64, count=len(self._down_links)
                )
                keep[down_links] = False
            link_a = self._link_a[keep]
            link_b = self._link_b[keep]
            delays = self._link_delay[keep]
        else:
            link_a, link_b, delays = self._link_a, self._link_b, self._link_delay
        self._matrix = csr_matrix(
            (
                np.concatenate((delays, delays)),
                (
                    np.concatenate((link_a, link_b)),
                    np.concatenate((link_b, link_a)),
                ),
            ),
            shape=(n, n),
        )

    @property
    def live_graph(self) -> csr_matrix:
        """The CSR routing graph of the current down sets (both directions
        of every live link), rebuilt whenever :attr:`epoch` moves; treat
        as read-only."""
        return self._matrix

    def solve_tree(self, source: int) -> Tuple[np.ndarray, np.ndarray]:
        """Uncached shortest-path tree of ``source`` on the live graph:
        ``(distances, predecessors)`` over every node.

        The CSR graph already holds both directions of every live link,
        so a directed solve equals the undirected one and skips the
        transpose scipy builds for ``directed=False``.
        """
        distances, predecessors = dijkstra(
            self._matrix, directed=True, indices=source, return_predecessors=True
        )
        return distances, predecessors

    def tree_edges(
        self, predecessors: np.ndarray, nodes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Parent and arriving link id of tree nodes (reachable non-source
        nodes of one tree), the link ids by one searchsorted over the
        sorted pair keys."""
        parents = predecessors[nodes].astype(np.int64)
        links = self._pair_link[
            np.searchsorted(self._pair_key, parents * len(self.network) + nodes)
        ]
        return parents, links

    @property
    def link_loss(self) -> np.ndarray:
        """Per-link loss rate, indexed by link id; treat as read-only."""
        return self._link_loss

    def _tree(self, source: int) -> _SourceTree:
        tree = self._trees.get(source)
        if tree is None:
            if self.recorder.enabled:
                self.recorder.inc("router.tree_solve")
            distances, predecessors = self.solve_tree(source)
            # scipy marks the source and unreachable nodes with a negative
            # predecessor; every other node has a tree edge
            nodes = np.flatnonzero(predecessors >= 0)
            uplink = np.full(len(distances), -1, dtype=np.int64)
            uplink[nodes] = self.tree_edges(predecessors, nodes)[1]
            tree = _SourceTree(distances, predecessors, uplink)
            self._trees[source] = tree
        elif self.recorder.enabled:
            self.recorder.inc("router.tree_hit")
        return tree

    # -- liveness (failure injection) -----------------------------------------

    @property
    def down_nodes(self) -> frozenset:
        return self._down_nodes

    def _new_epoch(self) -> int:
        """Rebuild the routing graph for the current down sets and drop
        every cached tree; returns how many were dropped."""
        dropped = len(self._trees)
        self.epoch += 1
        self._build_matrix()
        self._trees.clear()
        return dropped

    @hot_path(budget="O(L)")
    def set_down_nodes(self, node_ids: Iterable[int]) -> None:
        """Declare the set of crashed nodes and re-route around them.

        A changed set starts a new epoch (see :meth:`_new_epoch`); trees
        re-solve on demand.  Callers batch co-temporal failure and recovery
        events into one call (see
        :meth:`repro.simulation.failures.FailureInjector.crash_many`).
        """
        down = frozenset(node_ids)
        if down == self._down_nodes:
            return
        self._down_nodes = down
        dropped = self._new_epoch()
        if self.recorder.enabled:
            self.recorder.emit(
                "router.churn",
                epoch=self.epoch,
                down=len(down),
                dropped_trees=dropped,
            )

    @property
    def down_links(self) -> frozenset:
        return self._down_links

    @hot_path(budget="O(L)")
    def set_down_links(self, link_ids: Iterable[int]) -> None:
        """Declare the set of failed overlay links and re-route around them.

        The per-link analogue of :meth:`set_down_nodes`, with the same
        batching contract.  An unknown link id raises ``ValueError``
        before any state changes.
        """
        down = frozenset(link_ids)
        if down == self._down_links:
            return
        for link_id in sorted(down - self._down_links):
            if not 0 <= link_id < len(self.network.links):
                raise ValueError(f"unknown overlay link id {link_id}")
        self._down_links = down
        dropped = self._new_epoch()
        if self.recorder.enabled:
            self.recorder.emit(
                "router.link_churn",
                epoch=self.epoch,
                down=len(down),
                dropped_trees=dropped,
            )

    # -- paths -------------------------------------------------------------

    def delay(self, node_a: int, node_b: int) -> float:
        """Shortest overlay path delay in ms (0 for a == b)."""
        return float(self._tree(node_a).distances[node_b])

    def reachable(self, node_a: int, node_b: int) -> bool:
        return bool(self._tree(node_a).finite[node_b])

    def overlay_path(self, node_a: int, node_b: int) -> Tuple[int, ...]:
        """Overlay link ids along the delay-shortest path (empty if a == b).

        Raises:
            RoutingError: if the mesh does not connect the two nodes.
        """
        if node_a == node_b:
            return ()
        tree = self._tree(node_a)
        cached = tree.paths.get(node_b)
        if cached is not None:
            return cached
        if not tree.finite[node_b]:
            raise RoutingError(f"no overlay path v{node_a} -> v{node_b}")
        link_ids = []
        current = node_b
        uplink = tree.uplink
        predecessors = tree.predecessors
        while current != node_a:
            link_ids.append(int(uplink[current]))
            current = int(predecessors[current])
        path = tuple(reversed(link_ids))
        tree.paths[node_b] = path
        return path

    # -- virtual links -------------------------------------------------------

    def virtual_link_qos(self, node_a: int, node_b: int) -> QoSVector:
        """Static aggregated QoS of the virtual link between two nodes.

        Reads the per-source loss memo of :meth:`virtual_link_rows` — the
        same floats the vectorised scoring path (``repro.core.fastscore``)
        ranks on — so the cache is keyed on the *directed* pair; both
        directions fold the same links and agree to within summation order.
        """
        if node_a == node_b:
            return self._zero_qos
        tree = self._tree(node_a)
        cached = tree.qos.get(node_b)
        if cached is None:
            if not tree.finite[node_b]:
                raise RoutingError(f"no overlay path v{node_a} -> v{node_b}")
            loss = self._fold_loss(tree, np.array([node_b]))
            cached = QoSVector(float(tree.distances[node_b]), loss.item())
            tree.qos[node_b] = cached
        return cached

    def _fold_loss(self, tree: _SourceTree, nodes: np.ndarray) -> np.ndarray:
        return fold_paths(
            tree.loss, nodes, tree.predecessors, tree.uplink, self._link_loss, True
        )

    def virtual_link_rows(
        self, source: int, nodes: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Virtual-link QoS from ``source`` to ``nodes`` (default: every
        node), as arrays.

        Returns ``(delay, loss)``: per destination the delay sum and the
        composed loss rate along the delay-shortest path.  Unreachable
        destinations — including crashed ones — have infinite delay (loss
        is 0 there; callers must mask on reachability or liveness).  Loss
        is folded by :func:`fold_paths` only down the paths to the nodes
        not read before, composing ``1 − (1 − a)(1 − b)`` per tree edge
        from 0 at the source, the same raw-space fold
        :meth:`virtual_link_qos` reads, so both views agree.  With
        ``nodes`` the arrays are fresh gathers; without, both are
        **read-only views** of the whole rows, valid until :attr:`epoch`
        moves, and the call walks every node, O(N) per call (the form
        tests and oracles read).
        """
        tree = self._tree(source)
        if nodes is not None:
            return tree.distances[nodes], self._fold_loss(tree, nodes)
        self._fold_loss(tree, np.arange(len(self.network)))
        loss = tree.loss.view()
        loss.setflags(write=False)
        return tree.distances, loss

    def virtual_link(self, node_a: int, node_b: int) -> VirtualLinkPath:
        """The virtual link between two (possibly identical) nodes."""
        path = self.overlay_path(node_a, node_b)
        return VirtualLinkPath(
            src_node_id=node_a,
            dst_node_id=node_b,
            overlay_link_ids=path,
            qos=self.virtual_link_qos(node_a, node_b),
        )

    def bottleneck_bandwidth_row(
        self,
        source: int,
        link_available_kbps: Optional[np.ndarray] = None,
        nodes: Optional[np.ndarray] = None,
        memo: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Bottleneck bandwidth from ``source`` to ``nodes``, as an array.

        ``link_available_kbps`` substitutes a coarse-grain per-link view
        (``GlobalStateManager.link_available_array``) for the live
        residuals.  Entries are ``-inf`` for unreachable destinations and
        ``+inf`` at the source (footnote 8's co-located case).  The min is
        folded by :func:`fold_paths` only down the paths to ``nodes``,
        into ``memo``: a row of NaN the caller starts for this source and
        keeps only as long as the tree's :attr:`epoch` and its link
        values.  A read whose values are all memoised is one gather and
        one NaN check and does not touch the tree cache.  ``nodes`` and
        ``memo`` go together: without both, the whole row is folded
        afresh, O(N) per call (the form tests and oracles read).
        """
        if (nodes is None) != (memo is None):
            raise ValueError("pass nodes and memo together, or neither")
        if memo is None:
            memo = np.full(len(self.network), math.nan)
            nodes = np.arange(len(memo))
        else:
            values = memo[nodes]
            if not np.isnan(values).any():
                return values
        tree = self._tree(source)
        if math.isnan(memo.item(source)):
            # a fresh memo: the walks' roots hold the full row's values
            memo[~tree.finite] = -math.inf
            memo[source] = math.inf
        if link_available_kbps is None:
            link_available_kbps = self._link_available
        return fold_paths(
            memo, nodes, tree.predecessors, tree.uplink, link_available_kbps, False
        )

    def available_bandwidth(self, node_a: int, node_b: int) -> float:
        """Current bottleneck bandwidth of the virtual link (live values).

        Walks the tree's uplink arrays directly — no path materialisation
        per query.
        """
        if node_a == node_b:
            return float("inf")
        tree = self._tree(node_a)
        if not tree.finite[node_b]:
            raise RoutingError(f"no overlay path v{node_a} -> v{node_b}")
        available = np.inf
        values = self._link_available
        uplink = tree.uplink
        predecessors = tree.predecessors
        current = node_b
        while current != node_a:
            value = values[uplink[current]]
            if value < available:
                available = value
            current = int(predecessors[current])
        return float(available)
