"""Router-neighbourhood index: bounded shortest-path trees for pruning.

Probing scores every candidate through the virtual link from its
upstream node, so shortest-path-tree work sits under every probe.
Asaduzzaman & Maheswaran and Benoit et al. (PAPERS.md) observe that
mapping quality survives when each step considers only a resource's
*network neighbourhood* — which is what :class:`NeighborhoodIndex`
materialises: per source, the ``k`` delay-nearest routers (the source
itself first), in nondecreasing-delay order, with the delay, composed
loss, arriving tree link and predecessor position of each.  Entries
are O(k), never O(N), and LRU-bounded
(``SystemConfig.neighborhood_cache_size``), so resident memory is
O(cache × k) plus one O(N) bound array, and :meth:`memory_footprint`
attributes it for BENCH_scale.

A cold entry comes from the router's own tree pipeline, in three steps:

1. :func:`~repro.topology.overlay.nearest_targets` — scipy's C Dijkstra
   over the router's live CSR graph (down nodes and down links already
   removed), stopped at a distance limit;
2. the first ``k`` reached nodes in (distance, node id) order, a partial
   sort over the reached nodes only;
3. :meth:`OverlayRouter.tree_edges` on that k-prefix — arriving link ids,
   O(k log L), and parent positions, O(k log k).

Composed loss and stale bottleneck bandwidth are folded later, on first
read and only down the paths to the members read
(:func:`~repro.topology.routing.fold_paths`, the router's own fold),
memoised on the entry: loss for the entry's lifetime
(:meth:`NeighborhoodEntry.loss_at`), bandwidth for one global-state link
version (:meth:`NeighborhoodIndex.stale_bottleneck_row`).

The limit comes from the triangle inequality and needs no tuning.  A
solve of v whose k-th member lies at delay r(v) bounds every node u it
reached: u's own k-th member lies within r(v) + d(v, u).  The index
keeps one O(N) array of such bounds for its configured ``k``
(:func:`~repro.topology.overlay.tighten_bounds`) and solves u only that
far.  A source no solve has reached yet (in practice only an epoch's
first) is solved in full, and so are the widen-retry sizes, which the
bounds do not cover.  The bounds are valid for one router epoch: a
crash can lengthen paths, so they reset when the epoch moves.

The limit decides only the cost, never the entry.  Delays are positive,
so every node within the limit settles through the same relaxations as
in the full solve, with the same distance float and the same
predecessor, and every node beyond it is farther than every reached
one; a row that reaches ``k`` nodes therefore holds the full solve's
k-prefix, and a row cut short (fewer than ``k`` nodes within the limit)
is solved again with no limit.

Byte-identity contract: overlay delays are positive and continuous, so
shortest paths are unique, the source is the only node at distance 0,
and the entry is a prefix of the full tree in (distance, node id) order.
The router's rows come from the full solve and the same fold, so every
figure the index answers for a member (delay, loss, path links,
bottleneck bandwidth) equals the full router's float for float — which
is what makes pruned candidate scoring decision-identical to the full
scan whenever ``k >= N`` (``tests/test_fastscore_pruned.py``).  The
heap-based solver this replaced is kept as an independent oracle in
``tests/oracles/bounded_dijkstra.py``.

Churn: every effective ``set_down_nodes``/``set_down_links`` bumps
``router.epoch``, and :meth:`NeighborhoodIndex.entry` re-solves any
cached entry solved at another epoch.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.model.component_graph import VirtualLinkPath
from repro.model.lru import LRUDict
from repro.model.qos import QoSVector
from repro.observability import NULL_RECORDER, Recorder
from repro.topology.overlay import BOUND_SLACK, nearest_targets, tighten_bounds
from repro.topology.routing import OverlayRouter, fold_paths

#: ``SystemConfig.candidate_prune_k`` accepts ``None`` (full scan), the
#: string ``"auto"``, or an explicit positive neighbourhood size.
PruneSpec = Union[None, int, str]

#: Floor of the ``"auto"`` neighbourhood size: below this, pruning saves
#: nothing (the full candidate table is already this small) and the
#: widen-retry rate climbs.
AUTO_PRUNE_FLOOR = 256


def resolve_prune_k(spec: PruneSpec, num_nodes: int) -> Optional[int]:
    """Resolve a configured prune spec to a concrete neighbourhood size.

    ``None`` disables pruning (the full-scan default — committed figures
    replay byte-identically).  ``"auto"`` scales the neighbourhood as
    ``max(256, ceil(8·√N))`` capped at ``N``: wide enough that a level's
    probe budget ``⌈α·k⌉`` finds qualified candidates without widening in
    the common case, sublinear so per-source routing work stops growing
    with the overlay.  An explicit int is validated and capped at ``N``.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        if spec != "auto":
            raise ValueError(
                f"candidate_prune_k must be None, 'auto', or a positive "
                f"int, got {spec!r}"
            )
        return min(num_nodes, max(AUTO_PRUNE_FLOOR, math.ceil(8.0 * math.sqrt(num_nodes))))
    if spec < 1:
        raise ValueError(f"candidate_prune_k must be >= 1, got {spec}")
    return min(num_nodes, int(spec))


class NeighborhoodEntry:
    """One source's bounded shortest-path tree (its delay neighbourhood).

    Parallel arrays over the ``<= k`` members in settle order —
    ``members[0]`` is the source itself at distance 0, with uplink and
    parent position -1.  ``members_sorted`` / ``sorted_to_pos`` support
    O(log k) membership and batched gathers (``np.searchsorted``); the
    per-member arrays are O(k), never O(N).
    """

    __slots__ = (
        "source",
        "k",
        "version",
        "members",
        "members_sorted",
        "sorted_to_pos",
        "delay",
        "uplink",
        "parent_pos",
        "link_loss",
        "_loss",
        "bw_link_version",
        "bw_row",
    )

    def __init__(
        self,
        source: int,
        k: int,
        version: int,
        members: np.ndarray,
        delay: np.ndarray,
        parents: np.ndarray,
        uplink: np.ndarray,
        link_loss: np.ndarray,
    ) -> None:
        """``parents`` and ``uplink`` cover the non-source members
        ``members[1:]``: parent node id and arriving link id.
        ``link_loss`` is the router's per-link loss array (shared)."""
        self.source = source
        self.k = k
        #: router epoch the tree was solved at (stale once the epoch moves)
        self.version = version
        self.members = members
        self.delay = delay
        sort = np.argsort(members, kind="stable")
        self.members_sorted = members[sort]
        self.sorted_to_pos = sort
        self.parent_pos = np.empty(len(members), dtype=np.int64)
        self.uplink = np.empty(len(members), dtype=np.int64)
        self.parent_pos[0] = self.uplink[0] = -1
        # a parent settles before its child, so it is a member too
        self.parent_pos[1:] = sort[np.searchsorted(self.members_sorted, parents)]
        self.uplink[1:] = uplink
        self.link_loss = link_loss
        #: composed loss per member, NaN until :meth:`loss_at` folds it
        self._loss = np.full(len(members), math.nan)
        self._loss[0] = 0.0
        #: stale bottleneck bandwidth per member, NaN until
        #: :meth:`NeighborhoodIndex.stale_bottleneck_row` folds it, valid
        #: for one global-state link version
        self.bw_link_version = -1
        self.bw_row: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.members)

    def loss_at(self, positions: np.ndarray) -> np.ndarray:
        """Composed loss from the source to the members at ``positions``
        (any order, repeats allowed), folded for the members not read
        before by the router's fold, so each equals the router's float."""
        return fold_paths(
            self._loss, positions, self.parent_pos, self.uplink, self.link_loss, True
        )

    @property
    def loss(self) -> np.ndarray:
        """Composed loss to every member, in settle order."""
        return self.loss_at(np.arange(len(self.members)))

    def positions(self, node_ids: np.ndarray) -> np.ndarray:
        """Member position of each node id (-1 where not a member)."""
        sorted_members = self.members_sorted
        count = len(sorted_members)
        index = np.searchsorted(sorted_members, node_ids)
        index = np.minimum(index, count - 1)
        found = sorted_members[index] == node_ids
        return np.where(found, self.sorted_to_pos[index], -1)

    def position(self, node_id: int) -> int:
        """Member position of one node id (-1 when not a member)."""
        sorted_members = self.members_sorted
        index = int(np.searchsorted(sorted_members, node_id))
        if index < len(sorted_members) and int(sorted_members[index]) == node_id:
            return int(self.sorted_to_pos[index])
        return -1

    def path_links(self, position: int) -> Tuple[int, ...]:
        """Overlay link ids from the source to a member, in path order."""
        links: List[int] = []
        while position > 0:
            links.append(int(self.uplink[position]))
            position = int(self.parent_pos[position])
        links.reverse()
        return tuple(links)

    def nbytes(self) -> int:
        """Resident bytes of the tree arrays and the loss memo (the
        bandwidth memo ``bw_row`` apart)."""
        return int(
            self.members.nbytes
            + self.members_sorted.nbytes
            + self.sorted_to_pos.nbytes
            + self.delay.nbytes
            + self.uplink.nbytes
            + self.parent_pos.nbytes
            + self._loss.nbytes
        )


class NeighborhoodIndex:
    """LRU-bounded cache of per-source bounded shortest-path trees.

    Entries are keyed ``(source, k)`` — the widen-retry fallback asks for
    progressively larger neighbourhoods of the same source, and each size
    is a distinct (cheap, O(k)) entry.  An entry is valid for the router
    epoch it was solved at.
    """

    def __init__(
        self,
        router: OverlayRouter,
        k: int,
        capacity: int = 1024,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if k < 1:
            raise ValueError(f"neighbourhood size k must be >= 1, got {k}")
        self.router = router
        self.network = router.network
        self.k = k
        self.recorder = recorder
        #: trees solved, and cached entries rejected at lookup because the
        #: router epoch moved since their solve (plain counters so
        #: benchmarks need no recorder)
        self.solves = 0
        self.churn_drops = 0
        self._entries: LRUDict[Tuple[int, int], NeighborhoodEntry] = LRUDict(
            capacity=capacity, on_evict=self._on_evicted
        )
        #: per node, an upper bound on its k-th member delay from earlier
        #: solves (triangle inequality), valid for one router epoch
        self._bounds = np.full(len(self.network), math.inf)
        self._bounds_epoch = router.epoch

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Free all entries."""
        self._entries.clear()

    @property
    def cached_entry_count(self) -> int:
        return len(self._entries)

    @property
    def evictions(self) -> int:
        """Entries evicted by the capacity bound since construction."""
        return self._entries.evictions

    def _on_evicted(
        self, key: Tuple[int, int], entry: NeighborhoodEntry
    ) -> None:
        if self.recorder.enabled:
            self.recorder.inc("neighborhood.evictions")

    def memory_footprint(self) -> Dict[str, int]:
        """Resident bytes of the index (O(cache × k) + O(N)): the cached
        entries' tree arrays and loss memos, the stale bandwidth memos on
        them, and the per-node solve bounds."""
        entries = 0
        bandwidth_rows = 0
        for _, entry in self._entries.items():
            entries += entry.nbytes()
            if entry.bw_row is not None:
                bandwidth_rows += int(entry.bw_row.nbytes)
        footprint = {
            "entries": entries,
            "bandwidth_rows": bandwidth_rows,
            "bounds": int(self._bounds.nbytes),
        }
        footprint["total"] = sum(footprint.values())
        return footprint

    # -- solving -----------------------------------------------------------

    def entry(self, source: int, k: Optional[int] = None) -> NeighborhoodEntry:
        """The bounded tree for ``source`` (size ``k``, default the
        configured neighbourhood), solved on demand and LRU-cached."""
        size = self.k if k is None else k
        key = (source, size)
        entry = self._entries.get(key)
        if entry is not None:
            if entry.version == self.router.epoch:
                if self.recorder.enabled:
                    self.recorder.inc("neighborhood.hit")
                return entry
            self.churn_drops += 1
            if self.recorder.enabled:
                self.recorder.inc("neighborhood.churn_drops")
        entry = self._solve(source, size)
        self._entries[key] = entry
        self.solves += 1
        if self.recorder.enabled:
            self.recorder.inc("neighborhood.solve")
        return entry

    def _solve(self, source: int, k: int) -> NeighborhoodEntry:
        """The first ``k`` reachable nodes of the router's tree for
        ``source``, with their tree edges (see the module docstring)."""
        router = self.router
        if self._bounds_epoch != router.epoch:
            # churn may lengthen paths: an older bound could cut rows short
            self._bounds.fill(math.inf)
            self._bounds_epoch = router.epoch
        bounded = k == self.k
        limit = self._bounds[source] * (1.0 + BOUND_SLACK) if bounded else math.inf
        distances, reached, members, predecessors = nearest_targets(
            router.live_graph, source, k, limit
        )
        if bounded:
            tighten_bounds(self._bounds, distances, reached, members, k)
        parents, links = router.tree_edges(predecessors, members[1:])
        return NeighborhoodEntry(
            source,
            k,
            router.epoch,
            members,
            distances[members],
            parents,
            links,
            router.link_loss,
        )

    # -- queries -----------------------------------------------------------

    def stale_bottleneck_row(
        self,
        entry: NeighborhoodEntry,
        link_available_kbps: np.ndarray,
        link_version: int,
        positions: np.ndarray,
    ) -> np.ndarray:
        """Bottleneck bandwidth from the entry's source to the members at
        ``positions`` (any order, repeats allowed).

        The member-restricted twin of
        :meth:`OverlayRouter.bottleneck_bandwidth_row`: the same fold
        (:func:`~repro.topology.routing.fold_paths`) min-folds the identical
        link values only down the paths to the members read, so member
        figures match byte for byte.  Memoised on the entry
        (``entry.bw_row``) for one global-state link version.
        """
        if entry.bw_row is None or entry.bw_link_version != link_version:
            entry.bw_row = np.full(len(entry), math.nan)
            entry.bw_row[0] = math.inf
            entry.bw_link_version = link_version
        memo, parents, uplink = entry.bw_row, entry.parent_pos, entry.uplink
        return fold_paths(memo, positions, parents, uplink, link_available_kbps, False)

    def live_bandwidth(self, source: int, node_id: int) -> Optional[float]:
        """Live bottleneck bandwidth source → node via the bounded tree,
        or None when the node is outside the source's neighbourhood (the
        caller falls back to the full router).  Matches
        :meth:`OverlayRouter.available_bandwidth` exactly for members —
        the same link values under the same (exact) min fold.
        """
        if node_id == source:
            return float("inf")
        entry = self.entry(source)
        position = entry.position(node_id)
        if position < 0:
            return None
        values = self.router.link_available
        available = np.inf
        uplink = entry.uplink
        parent_pos = entry.parent_pos
        while position > 0:
            value = values[uplink[position]]
            if value < available:
                available = value
            position = int(parent_pos[position])
        return float(available)

    def virtual_link(self, source: int, node_id: int) -> Optional[VirtualLinkPath]:
        """The virtual link source → member, reconstructed from the bounded
        tree (same overlay links, same QoS floats as the full router), or
        None when the destination is outside the neighbourhood."""
        entry = self.entry(source)
        position = entry.position(node_id)
        if position < 0:
            return None
        return VirtualLinkPath(
            src_node_id=source,
            dst_node_id=node_id,
            overlay_link_ids=entry.path_links(position),
            qos=QoSVector(
                float(entry.delay[position]), entry.loss_at(np.array([position])).item()
            ),
        )
