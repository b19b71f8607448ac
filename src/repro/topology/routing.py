"""Overlay routing and virtual links.

Section 2.1: "The connection between two adjacent components is called
virtual link (l_i), which consists of a set of overlay links.  The QoS of
the virtual link is the aggregation of QoS values among its constituent
overlay links; the bandwidth availability ba_li is the bottleneck bandwidth
among the overlay links."

:class:`ShortestPathTree` is the one tree type behind every virtual-link
answer, and holds the only implementation of each read: delay and
composed loss at positions, the stale bottleneck fold into a memo, the
live bottleneck walk, the path-links walk and the virtual link itself.
Its arrays are position-indexed.  A *full* tree, cached here per source,
indexes positions by node id and keeps no member index; a *bounded* tree
(:mod:`repro.topology.neighborhood`) indexes its ``k`` delay-nearest
members in settle order and ends in one "not here" slot, which the
position ``-1`` of a non-member reads: infinite delay, zero loss, ``-inf``
stale bandwidth, and no path.  An unreachable node of a full tree reads
the same.

:class:`OverlayRouter` answers virtual-link queries — the overlay-link path
between any node pair, its static QoS (delay sums, loss composes), and its
*current* bottleneck bandwidth — from **lazy per-source full trees**.  A
single-source scipy Dijkstra runs the first time a source is queried and
is cached; the virtual links answered from a tree are cached on it.

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

Every tree, full or bounded, comes from one pipeline: scipy's C Dijkstra
over :attr:`live_graph` (in full by :meth:`solve_tree` here, up to a
distance limit by :func:`~repro.topology.overlay.nearest_targets` there,
which settles every node within the limit identically), then
:meth:`tree_edges` (arriving link ids through a sorted pair-key array).
Composed loss and stale bottleneck bandwidth are never folded over a
whole tree: every read goes through :func:`fold_paths`, which folds
parent-first only down the paths to the positions read and memoises each
value, so a tree pays per path read, not per node, and a bounded tree's
member answers the full tree's float for float.

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
    positions: np.ndarray,
    parents: np.ndarray,
    uplink: np.ndarray,
    link_values: np.ndarray,
    loss: bool,
) -> np.ndarray:
    """Values of a tree's ``memo`` row at ``positions`` (any order,
    repeats allowed), folding first the ones not memoised yet.

    ``memo`` holds NaN until a position is folded, and its final value at
    every root a walk can reach (the source, unreachable nodes, the "not
    here" slot).  For each pending position the walk climbs ``parents`` to
    the nearest memoised ancestor, then folds back down parent-first with
    the edge value ``link_values[uplink[node]]``, memoising every value:
    composed loss ``1 − (1 − parent)(1 − edge)`` when ``loss``, else the
    min.  These are the float operations a whole-tree pass in settle order
    would do, on the same floats in the same order, but only down the
    paths read.
    """
    path: List[int] = []
    for node in positions.tolist():
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
    return memo[positions]


class ShortestPathTree:
    """One source's shortest-path tree over positions, and the only
    implementation of each virtual-link read.

    ``delay``, ``parent`` (parent position, negative at every root) and
    ``uplink`` (arriving link id, -1 at every root) are position-indexed,
    and so is the composed-loss memo ``loss``.  A full tree's positions
    are node ids (``members`` is None); a bounded tree's are its
    ``members`` in settle order, the source first, followed by one "not
    here" slot that :meth:`positions` answers as ``-1`` for non-members.
    Row reads take positions; pair reads take a node id.
    """

    __slots__ = (
        "source",
        "epoch",
        "delay",
        "parent",
        "uplink",
        "loss",
        "links",
        "members",
        "_sorted_members",
        "_sorted_positions",
        "_link_loss",
    )

    def __init__(
        self,
        source: int,
        epoch: int,
        delay: np.ndarray,
        parent: np.ndarray,
        uplink: np.ndarray,
        link_loss: np.ndarray,
        members: Optional[np.ndarray] = None,
    ) -> None:
        """``link_loss`` is the router's per-link loss array (shared)."""
        self.source = source
        #: router epoch the tree was solved at (stale once the epoch moves)
        self.epoch = epoch
        self.delay = delay
        self.parent = parent
        self.uplink = uplink
        #: composed loss per position, NaN until :func:`fold_paths` reads
        #: it (0 at every root)
        self.loss = np.where(uplink >= 0, math.nan, 0.0)
        #: per destination node, the virtual link answered from this tree
        self.links: Dict[int, VirtualLinkPath] = {}
        self.members = members
        if members is not None:
            self._sorted_positions = np.argsort(members, kind="stable")
            self._sorted_members = members[self._sorted_positions]
        self._link_loss = link_loss

    @classmethod
    def bounded(
        cls,
        source: int,
        epoch: int,
        members: np.ndarray,
        delay: np.ndarray,
        parents: np.ndarray,
        links: np.ndarray,
        link_loss: np.ndarray,
    ) -> "ShortestPathTree":
        """A bounded tree over ``members`` in settle order (the source
        first) and their delays; ``parents`` and ``links`` cover the
        non-source members ``members[1:]``: parent node id and arriving
        link id."""
        count = len(members)
        parent = np.full(count + 1, -1, dtype=np.int64)
        uplink = np.full(count + 1, -1, dtype=np.int64)
        uplink[1:count] = links
        tree = cls(
            source, epoch, np.append(delay, math.inf), parent, uplink, link_loss, members
        )
        # a parent settles before its child, so it is a member too
        parent[1:count] = tree.positions(parents)
        return tree

    def positions(self, node_ids: np.ndarray) -> np.ndarray:
        """Position of each node id (-1 where not a member)."""
        if self.members is None:
            return node_ids
        sorted_members = self._sorted_members
        index = np.searchsorted(sorted_members, node_ids)
        index = np.minimum(index, len(sorted_members) - 1)
        found = sorted_members[index] == node_ids
        return np.where(found, self._sorted_positions[index], -1)

    def position(self, node_id: int) -> int:
        """Position of one node id (-1 when not a member)."""
        if self.members is None:
            return node_id
        sorted_members = self._sorted_members
        index = int(np.searchsorted(sorted_members, node_id))
        if index < len(sorted_members) and sorted_members.item(index) == node_id:
            return int(self._sorted_positions[index])
        return -1

    # -- row reads ---------------------------------------------------------

    def _read(
        self,
        memo: np.ndarray,
        positions: np.ndarray,
        link_values: np.ndarray,
        loss: bool,
    ) -> np.ndarray:
        """``memo`` at ``positions``: one gather and one NaN check when all
        are memoised, else :func:`fold_paths` down the paths not folded.

        The check is one dot product: every square is ≥ 0 or +inf, so the
        sum of squares is NaN exactly where some value is NaN, at a fixed
        cost per call that beats the fold's walk from a few positions up.
        """
        values = memo[positions]
        squares = values @ values
        if squares == squares:
            return values
        return fold_paths(memo, positions, self.parent, self.uplink, link_values, loss)

    def loss_at(self, positions: np.ndarray) -> np.ndarray:
        """Composed loss from the source to ``positions``, folded first
        for the positions not read before."""
        return self._read(self.loss, positions, self._link_loss, True)

    def link_rows(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(delay, loss)`` from the source to ``positions``: the delay
        sum and the composed loss rate along each shortest path."""
        return self.delay[positions], self.loss_at(positions)

    def stale_bandwidth(
        self, positions: np.ndarray, link_values: np.ndarray, memo: np.ndarray
    ) -> np.ndarray:
        """Bottleneck of ``link_values`` from the source to ``positions``,
        min-folded into ``memo``: a row of NaN over this tree's positions
        that the caller starts and keeps only as long as the tree's epoch
        and its link values.  It reads ``+inf`` at the source and ``-inf``
        where the tree does not reach."""
        root = self.source if self.members is None else 0
        if math.isnan(memo.item(root)):
            # a fresh memo: the walks' roots hold their final values
            memo[self.uplink < 0] = -math.inf
            memo[root] = math.inf
        return self._read(memo, positions, link_values, False)

    # -- pair reads --------------------------------------------------------

    def live_bandwidth(self, node_id: int, link_values: np.ndarray) -> Optional[float]:
        """Bottleneck of ``link_values`` from the source to ``node_id``, or
        None where the tree does not reach it."""
        position = self.position(node_id)
        if self.delay.item(position) == math.inf:
            return None
        uplink = self.uplink
        parent = self.parent
        available = math.inf
        link = uplink.item(position)
        while link >= 0:
            value = link_values.item(link)
            if value < available:
                available = value
            position = parent.item(position)
            link = uplink.item(position)
        return available

    def path_links(self, position: int) -> Tuple[int, ...]:
        """Overlay link ids from the source to ``position``, in path order."""
        uplink = self.uplink
        parent = self.parent
        links: List[int] = []
        link = uplink.item(position)
        while link >= 0:
            links.append(link)
            position = parent.item(position)
            link = uplink.item(position)
        links.reverse()
        return tuple(links)

    def virtual_link(self, node_id: int) -> Optional[VirtualLinkPath]:
        """The virtual link from the source to ``node_id`` (cached on the
        tree), or None where the tree does not reach it."""
        link = self.links.get(node_id)
        if link is None:
            position = self.position(node_id)
            delay = self.delay.item(position)
            if delay == math.inf:
                return None
            link = VirtualLinkPath(
                src_node_id=self.source,
                dst_node_id=node_id,
                overlay_link_ids=self.path_links(position),
                qos=QoSVector(delay, self.loss_at(np.array([position])).item()),
            )
            self.links[node_id] = link
        return link

    def nbytes(self) -> int:
        """Resident bytes of the tree's arrays, the loss memo and the
        virtual links cached on it."""
        parts = [self.delay, self.parent, self.uplink, self.loss]
        if self.members is not None:
            parts += [self.members, self._sorted_members, self._sorted_positions]
        links = sys.getsizeof(self.links)
        for link in self.links.values():
            links += sys.getsizeof(link) + sys.getsizeof(link.overlay_link_ids)
        return links + sum(int(part.nbytes) for part in parts)


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
        # per-source full trees, LRU-bounded; the virtual links cached on a
        # tree leave with it, so router cache memory is
        # O(tree_cache_size × N), never O(N²).  Evictions are
        # decision-invisible: delays are continuous, so a re-solve of an
        # evicted source reproduces the identical tree.
        self._trees: LRUDict[int, ShortestPathTree] = LRUDict(
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

    def _on_tree_evicted(self, source: int, tree: ShortestPathTree) -> None:
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
        container overheads for the virtual links cached on the trees
        (close).  BENCH_scale uses this to attribute memory per subsystem;
        ``total`` sums the parts.
        """
        trees = sum(tree.nbytes() for _, tree in self._trees.items())
        link_arrays = int(
            self._link_a.nbytes
            + self._link_b.nbytes
            + self._link_delay.nbytes
            + self._link_loss.nbytes
            + self._link_available.nbytes
            + self._pair_key.nbytes
            + self._pair_link.nbytes
        )
        footprint = {"trees": trees, "link_arrays": link_arrays}
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

    def _tree(self, source: int) -> ShortestPathTree:
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
            tree = ShortestPathTree(
                source, self.epoch, distances, predecessors, uplink, self._link_loss
            )
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
        return float(self._tree(node_a).delay[node_b])

    def reachable(self, node_a: int, node_b: int) -> bool:
        return math.isfinite(self._tree(node_a).delay.item(node_b))

    def overlay_path(self, node_a: int, node_b: int) -> Tuple[int, ...]:
        """Overlay link ids along the delay-shortest path (empty if a == b).

        Raises:
            RoutingError: if the mesh does not connect the two nodes.
        """
        return self.virtual_link(node_a, node_b).overlay_link_ids

    # -- virtual links -------------------------------------------------------

    def virtual_link_qos(self, node_a: int, node_b: int) -> QoSVector:
        """Static aggregated QoS of the virtual link between two nodes: the
        same floats the vectorised scoring path (``repro.core.fastscore``)
        ranks on, from the tree of ``node_a``; both directions fold the
        same links and agree to within summation order."""
        return self.virtual_link(node_a, node_b).qos

    def virtual_link_rows(
        self, source: int, nodes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Virtual-link QoS from ``source`` to ``nodes``, as arrays.

        Returns ``(delay, loss)``: per destination the delay sum and the
        composed loss rate along the delay-shortest path.  Unreachable
        destinations — including crashed ones — have infinite delay (loss
        is 0 there; callers must mask on reachability or liveness).  See
        :meth:`ShortestPathTree.link_rows`.
        """
        return self._tree(source).link_rows(nodes)

    def virtual_link(self, node_a: int, node_b: int) -> VirtualLinkPath:
        """The virtual link between two (possibly identical) nodes.

        Raises:
            RoutingError: if the mesh does not connect the two nodes.
        """
        if node_a == node_b:
            return VirtualLinkPath(node_a, node_b, (), self._zero_qos)
        link = self._tree(node_a).virtual_link(node_b)
        if link is None:
            raise RoutingError(f"no overlay path v{node_a} -> v{node_b}")
        return link

    def bottleneck_bandwidth_row(
        self,
        source: int,
        link_available_kbps: np.ndarray,
        nodes: np.ndarray,
        memo: np.ndarray,
    ) -> np.ndarray:
        """Bottleneck of ``link_available_kbps`` (a coarse-grain per-link
        view such as ``GlobalStateManager.link_available_array``, or
        :attr:`link_available`) from ``source`` to ``nodes``, folded into
        ``memo``, a row of NaN over every node that the caller keeps only
        as long as :attr:`epoch` and its link values.  Entries are ``-inf``
        for unreachable destinations and ``+inf`` at the source (footnote
        8's co-located case); see :meth:`ShortestPathTree.stale_bandwidth`.
        """
        return self._tree(source).stale_bandwidth(nodes, link_available_kbps, memo)

    def available_bandwidth(self, node_a: int, node_b: int) -> float:
        """Current bottleneck bandwidth of the virtual link (live values).

        Raises:
            RoutingError: if the mesh does not connect the two nodes.
        """
        if node_a == node_b:
            return math.inf
        available = self._tree(node_a).live_bandwidth(node_b, self._link_available)
        if available is None:
            raise RoutingError(f"no overlay path v{node_a} -> v{node_b}")
        return available
