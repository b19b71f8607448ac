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
queried and is cached; churn (:meth:`set_down_nodes`) invalidates only the
trees the event can actually affect:

* a **crash** of node ``d`` drops only the trees that route *through* ``d``
  (``d`` appears in the tree's relay set).  Trees where ``d`` is a leaf are
  patched in place — the entry *for* ``d`` becomes unreachable, every other
  distance, path, loss and bandwidth answer provably cannot change;
* a **recovery** of node ``r`` can create new shortcuts, so it drops the
  trees whose reachable set touches ``r`` or any of its neighbours (any new
  path must enter ``r`` through a previously-reachable neighbour) — and
  nothing else, which matters when crashes have partitioned the mesh.

Link faults (:meth:`set_down_links`) get the same treatment at finer
granularity — a down overlay link is excluded from the routing matrix
exactly like a link adjacent to a down endpoint:

* a **link failure** drops only the trees that use the link as a *tree
  edge* (one endpoint is the predecessor of the other); removing a
  non-tree edge provably cannot change any shortest path, so every other
  tree survives untouched;
* a **link recovery** can only create shortcuts reachable through one of
  its endpoints, so it drops the trees whose reachable set touches either
  endpoint.

Every tree, cached here or bounded in :mod:`repro.topology.neighborhood`,
comes from one pipeline: :meth:`solve_tree` (scipy's C Dijkstra) and
:meth:`annotate` (arriving link ids through a sorted pair-key array, loss
folded parent-first), so both answer the same floats.

Each tree carries a **row version** (the topology epoch it was solved at);
derived caches (``repro.core.fastscore``) key per-source state on
:meth:`row_version` so a churn event rebuilds only the affected columns.
In-place leaf patches deliberately do *not* bump the version: they only
flip entries for down destinations, which every consumer already masks via
node liveness.  ``epoch`` remains the global topology counter (bumped once
per :meth:`set_down_nodes` change).

Co-located pairs (a == b) yield the empty path with zero QoS — footnote 4's
"0 network delay" and footnote 8's infinite residual bandwidth.

With distinct path costs the incrementally maintained state is identical
to a freshly constructed router's (``tests/test_routing_incremental.py``
checks this under randomized churn, and
``tests/test_routing_differential.py`` checks both against networkx); on
exact cost ties a surviving tree may break the tie differently than a
fresh solve would — both choices are optimal.
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
from repro.model.qos import MetricKind, QoSVector, combine_all
from repro.observability.hotpath import hot_path
from repro.observability import NULL_RECORDER, Recorder
from repro.topology.overlay import OverlayLink, OverlayNetwork


class RoutingError(RuntimeError):
    """Raised when no overlay path exists between two nodes."""


class _SourceTree:
    """One source's shortest-path tree plus lazily-built per-row arrays.

    ``distances``/``loss_row`` are exposed to callers read-only; the
    router unfreezes them only for leaf-crash patches it owns.
    """

    __slots__ = (
        "source",
        "version",
        "distances",
        "predecessors",
        "finite",
        "relay",
        "order",
        "uplink",
        "loss_row",
    )

    def __init__(
        self,
        source: int,
        version: int,
        distances: np.ndarray,
        predecessors: np.ndarray,
    ) -> None:
        self.source = source
        self.version = version
        self.distances = distances
        self.predecessors = predecessors
        self.finite = np.isfinite(distances)
        # relay nodes: every node that forwards to at least one child in
        # the tree.  A crash outside this set (a leaf) cannot change any
        # distance except the crashed node's own entry.
        relay = np.zeros(len(distances), dtype=bool)
        used = predecessors[self.finite]
        used = used[used >= 0]
        relay[used] = True
        self.relay = relay
        #: reachable destinations in nondecreasing distance order
        self.order: Optional[np.ndarray] = None
        #: per destination, the link id of the tree edge arriving at it
        #: (-1 at the source and at unreachable/patched destinations)
        self.uplink: Optional[np.ndarray] = None
        self.loss_row: Optional[np.ndarray] = None
        distances.setflags(write=False)

    def nbytes(self) -> int:
        """Resident bytes of this tree's arrays (lazy rows count once built)."""
        total = (
            self.distances.nbytes
            + self.predecessors.nbytes
            + self.finite.nbytes
            + self.relay.nbytes
        )
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
        #: monotone topology epoch, bumped once per down-set change; per
        #: source, :meth:`row_version` is the finer-grained cache key
        self.epoch = 0
        # per-source caches: trees are the LRU-bounded master; the path and
        # QoS caches only ever hold sources present in ``_trees`` (the
        # eviction callback drops their entries), so total router cache
        # memory is O(tree_cache_size × N), never O(N²).  Evictions are
        # decision-invisible: delays are continuous, so a re-solve of an
        # evicted source reproduces the identical tree.
        self._trees: LRUDict[int, _SourceTree] = LRUDict(
            capacity=tree_cache_size, on_evict=self._on_tree_evicted
        )
        self._path_cache: Dict[int, Dict[int, Tuple[int, ...]]] = {}  # repro-lint: disable=SHR402 -- evicted in lockstep with the _trees LRU above; bound is tree_cache_size, a second LRU would double the bookkeeping for the same bound
        self._qos_cache: Dict[int, Dict[int, QoSVector]] = {}  # repro-lint: disable=SHR402 -- same lockstep eviction as _path_cache
        schema = (
            network.links[0].qos.schema
            if network.links
            else QoSVector.zero().schema
        )
        self._zero_qos = QoSVector.zero(schema)
        # the per-source rows of virtual_link_rows represent the full link
        # QoS only for the default (delay, loss) metric shape; other schemas
        # keep the per-pair combine_all fold
        self._rows_represent_qos = schema.kinds == (
            MetricKind.ADDITIVE,
            MetricKind.MULTIPLICATIVE_LOSS,
        )
        loss_index = next(
            (
                index
                for index, kind in enumerate(schema.kinds)
                if kind is MetricKind.MULTIPLICATIVE_LOSS
            ),
            None,
        )

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
            (
                link.qos.values[loss_index] if loss_index is not None else 0.0
                for link in links
            ),
            dtype=np.float64,
            count=count,
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
        """Capacity eviction of a source tree drops its sibling caches too,
        keeping the ``path/qos ⊆ trees`` invariant that bounds memory."""
        self._path_cache.pop(source, None)
        self._qos_cache.pop(source, None)
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
        self._path_cache.clear()
        self._qos_cache.clear()

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
        container overheads for the path/QoS caches (close).  BENCH_scale
        uses this to attribute memory per subsystem; ``total`` sums the
        parts.
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
        path_cache = sys.getsizeof(self._path_cache)
        for per_source in self._path_cache.values():
            path_cache += sys.getsizeof(per_source)
            for path in per_source.values():
                path_cache += sys.getsizeof(path)
        qos_cache = sys.getsizeof(self._qos_cache)
        for per_source_qos in self._qos_cache.values():
            qos_cache += sys.getsizeof(per_source_qos)
            for qos in per_source_qos.values():
                qos_cache += sys.getsizeof(qos) + sys.getsizeof(qos.values)
        footprint = {
            "trees": int(trees),
            "path_cache": int(path_cache),
            "qos_cache": int(qos_cache),
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
            tree = _SourceTree(source, self.epoch, distances, predecessors)
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

    def _patch_unreachable(self, tree: _SourceTree, node_id: int) -> None:
        """Mark a crashed leaf destination unreachable without a re-solve.

        Only the entry *for* the leaf changes — it has no children, so no
        other distance, path, or loss figure depends on it.  The tree's
        row version is intentionally kept: consumers mask down nodes via
        liveness, so their cached derivations stay valid.
        """
        distances = tree.distances
        distances.setflags(write=True)
        distances[node_id] = np.inf
        distances.setflags(write=False)
        tree.finite[node_id] = False
        if tree.loss_row is not None:
            tree.uplink[node_id] = -1
            loss_row = tree.loss_row
            loss_row.setflags(write=True)
            loss_row[node_id] = 0.0
            loss_row.setflags(write=False)

    # -- liveness (failure injection) -----------------------------------------

    @property
    def down_nodes(self) -> frozenset:
        return self._down_nodes

    @hot_path(budget="O(affected × N)")
    def set_down_nodes(self, node_ids: Iterable[int]) -> None:
        """Declare the set of crashed nodes and re-route around them.

        Invalidates only the per-source trees the change can affect
        (O(affected · N) plus lazy re-solves on demand).  Callers batch
        co-temporal failure and recovery events into one call (see
        :meth:`repro.simulation.failures.FailureInjector.crash_many`).
        """
        down = frozenset(node_ids)
        if down == self._down_nodes:
            return
        newly_down = down - self._down_nodes
        newly_up = self._down_nodes - down
        self._down_nodes = down
        self.epoch += 1
        self._build_matrix()
        changed_roots = newly_down | newly_up
        crashed = (
            # repro-lint: disable=DET103 -- feeds tree.relay[...].any() only; element order is unobservable
            np.fromiter(newly_down, dtype=np.int64, count=len(newly_down))
            if newly_down
            else None
        )
        # any new path via a recovered node enters it through one of its
        # neighbours, which must already be reachable from the source
        probe = set(newly_up)
        for node_id in newly_up:  # repro-lint: disable=DET103 -- accumulates into a set; order is unobservable
            probe.update(self.network.neighbors(node_id))
        recovered_probe = (
            # repro-lint: disable=DET103 -- feeds tree.finite[...].any() only; element order is unobservable
            np.fromiter(probe, dtype=np.int64, count=len(probe)) if probe else None
        )

        dropped = 0
        patched = 0
        # peek: an invalidation scan must not rewrite recency order
        # repro-lint: disable=DET103 -- LRUDict.keys() is a list snapshot in deterministic recency order, not hash order
        # repro-lint: disable=HOT503 -- scans the LRU-bounded tree cache: O(C) with C = tree_cache_size, not O(N)
        for source in self._trees.keys():
            tree = self._trees.peek(source)
            if tree is None:  # pragma: no cover - snapshot, no concurrent evict
                continue
            if (
                source in changed_roots
                or (crashed is not None and bool(tree.relay[crashed].any()))
                or (
                    recovered_probe is not None
                    and bool(tree.finite[recovered_probe].any())
                )
            ):
                self._trees.pop(source)
                self._path_cache.pop(source, None)
                self._qos_cache.pop(source, None)
                dropped += 1
            elif crashed is not None:
                paths = self._path_cache.get(source)
                qos = self._qos_cache.get(source)
                tree_patched = False
                for node_id in sorted(newly_down):
                    if tree.finite[node_id]:
                        self._patch_unreachable(tree, node_id)
                        tree_patched = True
                    if paths is not None:
                        paths.pop(node_id, None)
                    if qos is not None:
                        qos.pop(node_id, None)
                if tree_patched:
                    patched += 1
        if self.recorder.enabled:
            self.recorder.emit(
                "router.churn",
                epoch=self.epoch,
                down=len(down),
                dropped_trees=dropped,
                patched_trees=patched,
            )

    @property
    def down_links(self) -> frozenset:
        return self._down_links

    @hot_path(budget="O(affected × N)")
    def set_down_links(self, link_ids: Iterable[int]) -> None:
        """Declare the set of failed overlay links and re-route around them.

        The per-link analogue of :meth:`set_down_nodes`: it drops only the
        trees a change can affect:

        * a failed link invalidates a tree only when it is one of the
          tree's edges (an endpoint is the other's predecessor) — removing
          an edge no shortest path uses cannot change any answer;
        * a recovered link invalidates a tree only when the tree already
          reaches one of its endpoints — the only ways a new edge can
          shorten or create a path from that source.

        Callers batch co-temporal link failures and recoveries into one
        call, mirroring the node-churn batching contract.
        """
        down = frozenset(link_ids)
        if down == self._down_links:
            return
        for link_id in sorted(down - self._down_links):
            if not 0 <= link_id < len(self.network.links):
                raise ValueError(f"unknown overlay link id {link_id}")
        newly_down = down - self._down_links
        newly_up = self._down_links - down
        self._down_links = down
        self.epoch += 1
        self._build_matrix()
        failed = (
            # repro-lint: disable=DET103 -- feeds vectorised any() masks only; element order is unobservable
            np.fromiter(newly_down, dtype=np.int64, count=len(newly_down))
            if newly_down
            else None
        )
        recovered_ends = None
        if newly_up:
            up = np.fromiter(
                # repro-lint: disable=DET103 -- feeds tree.finite[...].any() only; element order is unobservable
                newly_up, dtype=np.int64, count=len(newly_up)
            )
            recovered_ends = np.concatenate((self._link_a[up], self._link_b[up]))

        dropped = 0
        # repro-lint: disable=DET103 -- LRUDict.keys() is a list snapshot in deterministic recency order, not hash order
        # repro-lint: disable=HOT503 -- scans the LRU-bounded tree cache: O(C) with C = tree_cache_size, not O(N)
        for source in self._trees.keys():
            tree = self._trees.peek(source)
            if tree is None:  # pragma: no cover - snapshot, no concurrent evict
                continue
            affected = False
            if failed is not None:
                ends_a = self._link_a[failed]
                ends_b = self._link_b[failed]
                # tree edge test: the link is used iff one endpoint is the
                # tree predecessor of the other (and that other is reached)
                affected = bool(
                    np.any(
                        (tree.finite[ends_a] & (tree.predecessors[ends_a] == ends_b))
                        | (tree.finite[ends_b] & (tree.predecessors[ends_b] == ends_a))
                    )
                )
            if not affected and recovered_ends is not None:
                affected = bool(tree.finite[recovered_ends].any())
            if affected:
                self._trees.pop(source)
                self._path_cache.pop(source, None)
                self._qos_cache.pop(source, None)
                dropped += 1
        if self.recorder.enabled:
            self.recorder.emit(
                "router.link_churn",
                epoch=self.epoch,
                down=len(down),
                dropped_trees=dropped,
            )

    def row_version(self, source: int) -> int:
        """Version of ``source``'s routing rows (the topology epoch its
        tree was solved at).  Consumers key per-source caches on this so
        churn rebuilds only the affected columns; entries for down
        destinations may be patched without a bump and must be masked via
        node liveness."""
        return self._tree(source).version

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
        cache = self._path_cache.get(node_a)
        if cache is None:
            cache = self._path_cache.setdefault(node_a, {})
        cached = cache.get(node_b)
        if cached is not None:
            return cached
        tree = self._annotated(node_a)
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
        cache[node_b] = path
        return path

    # -- virtual links -------------------------------------------------------

    def virtual_link_qos(self, node_a: int, node_b: int) -> QoSVector:
        """Static aggregated QoS of the virtual link between two nodes.

        For the default (delay, loss) schema this reads the per-source rows
        of :meth:`virtual_link_rows` — the same floats the vectorised
        scoring path (``repro.core.fastscore``) ranks on — so the cache is
        keyed on the *directed* pair; both directions fold the same links
        and agree to within summation order.
        """
        if node_a == node_b:
            return self._zero_qos
        cache = self._qos_cache.get(node_a)
        if cache is None:
            cache = self._qos_cache.setdefault(node_a, {})
        cached = cache.get(node_b)
        if cached is None:
            if self._rows_represent_qos:
                if not self.reachable(node_a, node_b):
                    raise RoutingError(f"no overlay path v{node_a} -> v{node_b}")
                delay_row, loss_row = self.virtual_link_rows(node_a)
                cached = QoSVector(
                    self._zero_qos.schema,
                    [float(delay_row[node_b]), float(loss_row[node_b])],
                )
            else:
                path = self.overlay_path(node_a, node_b)
                cached = combine_all(
                    (self.network.link(link_id).qos for link_id in path),
                    self._zero_qos.schema,
                )
            cache[node_b] = cached
        return cached

    def virtual_link_rows(self, source: int) -> Tuple[np.ndarray, np.ndarray]:
        """Virtual-link QoS from ``source`` to *every* node, as arrays.

        Returns ``(delay_row, loss_row)``: per destination the delay sum
        and the composed loss rate along the delay-shortest path.
        Unreachable destinations — including crashed ones — have infinite
        delay (loss is left at 0 there; callers must mask on reachability
        or liveness).  Both arrays are **read-only views** of router state,
        valid until :meth:`row_version` moves for this source; the loss
        accumulation walks the shortest-path tree in distance order,
        applying the same raw-space composition ``1 − (1 − a)(1 − b)`` per
        tree edge that :meth:`virtual_link_qos` folds along the path, so
        both views agree.
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
        (:meth:`row_version`, their link-state version).
        """
        tree = self._annotated(source)
        values = (
            self._link_available
            if link_available_kbps is None
            else link_available_kbps
        )
        order = tree.order
        links = tree.uplink[order]
        # a patched (crashed) leaf has no link and stays unreachable
        link_values = np.where(links >= 0, values[links], -np.inf)
        row = [-math.inf] * len(self.network)
        row[source] = math.inf
        for destination, parent, value in zip(
            order.tolist(), tree.predecessors[order].tolist(), link_values.tolist()
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
