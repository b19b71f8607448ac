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
every node within the limit identically) and :meth:`annotate` (arriving
link ids through a sorted pair-key array, loss folded parent-first), so
both answer the same floats.

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


class _SourceTree:
    """One source's shortest-path tree, its lazily-built per-row arrays,
    and the paths and QoS answered from it.

    ``distances``/``loss_row`` are exposed to callers read-only.
    """

    __slots__ = (
        "distances",
        "predecessors",
        "finite",
        "order",
        "uplink",
        "loss_row",
        "paths",
        "qos",
    )

    def __init__(self, distances: np.ndarray, predecessors: np.ndarray) -> None:
        self.distances = distances
        self.predecessors = predecessors
        self.finite = np.isfinite(distances)
        #: reachable destinations in nondecreasing distance order
        self.order: Optional[np.ndarray] = None
        #: per destination, the link id of the tree edge arriving at it
        #: (-1 at the source and at unreachable destinations)
        self.uplink: Optional[np.ndarray] = None
        self.loss_row: Optional[np.ndarray] = None
        #: per destination, the overlay path and the virtual-link QoS
        self.paths: Dict[int, Tuple[int, ...]] = {}
        self.qos: Dict[int, QoSVector] = {}
        distances.setflags(write=False)

    def nbytes(self) -> int:
        """Resident bytes of this tree's arrays (lazy rows count once built)."""
        total = self.distances.nbytes + self.predecessors.nbytes + self.finite.nbytes
        if self.order is not None:
            total += self.order.nbytes
        if self.uplink is not None:
            total += self.uplink.nbytes
        if self.loss_row is not None:
            total += self.loss_row.nbytes
        return int(total)


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

    def annotate(
        self, predecessors: np.ndarray, nodes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, List[float]]:
        """Parent, arriving link id and composed loss of tree nodes.

        ``nodes`` are reachable non-source nodes of one tree in settle
        (nondecreasing-distance) order, so each parent is folded before
        its children.  Loss composes per tree edge as
        ``1 − (1 − loss(parent))(1 − loss(edge))`` from 0 at the source,
        in raw space, the same float operations in the same order along
        every path.
        """
        parents = predecessors[nodes].astype(np.int64)
        links = self._pair_link[
            np.searchsorted(self._pair_key, parents * len(self.network) + nodes)
        ]
        loss_at = [0.0] * len(self.network)
        loss: List[float] = []
        for node, parent, edge_loss in zip(
            nodes.tolist(), parents.tolist(), self._link_loss[links].tolist()
        ):
            value = 1.0 - (1.0 - loss_at[parent]) * (1.0 - edge_loss)
            loss_at[node] = value
            loss.append(value)
        return parents, links, loss

    def _tree(self, source: int) -> _SourceTree:
        tree = self._trees.get(source)
        if tree is None:
            if self.recorder.enabled:
                self.recorder.inc("router.tree_solve")
            distances, predecessors = self.solve_tree(source)
            tree = _SourceTree(distances, predecessors)
            self._trees[source] = tree
        elif self.recorder.enabled:
            self.recorder.inc("router.tree_hit")
        return tree

    def _annotated(self, source: int) -> _SourceTree:
        """The tree plus its order/uplink/loss arrays (one O(N) pass)."""
        tree = self._tree(source)
        if tree.order is not None:
            return tree
        n = len(self.network)
        # infinities sort last, so the reachable nodes are a prefix
        order = np.argsort(tree.distances, kind="stable")[
            : np.count_nonzero(tree.finite)
        ]
        order = order[order != source]
        _, links, loss = self.annotate(tree.predecessors, order)
        uplink = np.full(n, -1, dtype=np.int64)
        uplink[order] = links
        loss_row = np.zeros(n)
        loss_row[order] = loss
        tree.order = order
        tree.uplink = uplink
        loss_row.setflags(write=False)
        tree.loss_row = loss_row
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
        tree = self._annotated(node_a)
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

        Reads the per-source rows of :meth:`virtual_link_rows` — the same
        floats the vectorised scoring path (``repro.core.fastscore``) ranks
        on — so the cache is keyed on the *directed* pair; both directions
        fold the same links and agree to within summation order.
        """
        if node_a == node_b:
            return self._zero_qos
        tree = self._annotated(node_a)
        cached = tree.qos.get(node_b)
        if cached is None:
            if not tree.finite[node_b]:
                raise RoutingError(f"no overlay path v{node_a} -> v{node_b}")
            cached = QoSVector(
                float(tree.distances[node_b]), float(tree.loss_row[node_b])
            )
            tree.qos[node_b] = cached
        return cached

    def virtual_link_rows(self, source: int) -> Tuple[np.ndarray, np.ndarray]:
        """Virtual-link QoS from ``source`` to *every* node, as arrays.

        Returns ``(delay_row, loss_row)``: per destination the delay sum
        and the composed loss rate along the delay-shortest path.
        Unreachable destinations — including crashed ones — have infinite
        delay (loss is left at 0 there; callers must mask on reachability
        or liveness).  Both arrays are **read-only views** of router state,
        valid until :attr:`epoch` moves; the loss accumulation walks the
        shortest-path tree in distance order, applying the same raw-space
        composition ``1 − (1 − a)(1 − b)`` per tree edge that
        :meth:`virtual_link_qos` folds along the path, so both views agree.
        """
        tree = self._annotated(source)
        return tree.distances, tree.loss_row

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
        self, source: int, link_available_kbps: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Bottleneck bandwidth from ``source`` to *every* node, as an array.

        One pass down the shortest-path tree replaces a per-destination
        path walk; ``link_available_kbps`` substitutes a coarse-grain
        per-link view (``GlobalStateManager.link_available_array``) for the
        live residuals.  Entries are ``-inf`` for unreachable destinations
        and ``+inf`` at the source (footnote 8's co-located case).  The
        result is freshly computed — callers cache it keyed on
        (:attr:`epoch`, their link-state version).
        """
        tree = self._annotated(source)
        values = (
            self._link_available
            if link_available_kbps is None
            else link_available_kbps
        )
        order = tree.order
        row = [-math.inf] * len(self.network)
        row[source] = math.inf
        for destination, parent, value in zip(
            order.tolist(),
            tree.predecessors[order].tolist(),
            values[tree.uplink[order]].tolist(),
        ):
            upstream = row[parent]
            row[destination] = value if value < upstream else upstream
        return np.array(row)

    def available_bandwidth(self, node_a: int, node_b: int) -> float:
        """Current bottleneck bandwidth of the virtual link (live values).

        Walks the tree's uplink arrays directly — no path materialisation
        per query.
        """
        if node_a == node_b:
            return float("inf")
        tree = self._annotated(node_a)
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
