"""Router-neighbourhood index: bounded shortest-path trees for pruning.

Probing scores every candidate through the virtual link from its
upstream node, so shortest-path-tree work sits under every probe.
Asaduzzaman & Maheswaran and Benoit et al. (PAPERS.md) observe that
mapping quality survives when each step considers only a resource's
*network neighbourhood* — which is what :class:`NeighborhoodIndex`
materialises: per source, a bounded
:class:`~repro.topology.routing.ShortestPathTree` over the ``k``
delay-nearest routers (the source itself first), in nondecreasing-delay
order, with the delay, composed loss, arriving tree link and parent
position of each.  It is the router's own tree type, with the same
readers; the whole overlay is the neighbourhood at ``k = N``.  Entries
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
read and only down the paths to the members read, by the tree's own
readers: loss into the entry's memo for its lifetime, bandwidth into a
memo row the caller keeps for one global-state link version (the
scorer's, :mod:`repro.core.fastscore`).

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
The router's trees come from the full solve and share the readers, so
every figure the index answers for a member (delay, loss, path links,
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
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.model.component_graph import VirtualLinkPath
from repro.model.lru import LRUDict
from repro.observability import NULL_RECORDER, Recorder
from repro.topology.overlay import BOUND_SLACK, nearest_targets, tighten_bounds
from repro.topology.routing import OverlayRouter, ShortestPathTree

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
        self._entries: LRUDict[Tuple[int, int], ShortestPathTree] = LRUDict(
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

    def _on_evicted(self, key: Tuple[int, int], entry: ShortestPathTree) -> None:
        if self.recorder.enabled:
            self.recorder.inc("neighborhood.evictions")

    def memory_footprint(self) -> Dict[str, int]:
        """Resident bytes of the index (O(cache × k) + O(N)): the cached
        entries (tree arrays, loss memos and the virtual links cached on
        them) and the per-node solve bounds."""
        footprint = {
            "entries": sum(entry.nbytes() for _, entry in self._entries.items()),
            "bounds": int(self._bounds.nbytes),
        }
        footprint["total"] = sum(footprint.values())
        return footprint

    # -- solving -----------------------------------------------------------

    def entry(self, source: int, k: Optional[int] = None) -> ShortestPathTree:
        """The bounded tree for ``source`` (size ``k``, default the
        configured neighbourhood), solved on demand and LRU-cached."""
        size = self.k if k is None else k
        key = (source, size)
        entry = self._entries.get(key)
        if entry is not None:
            if entry.epoch == self.router.epoch:
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

    def _solve(self, source: int, k: int) -> ShortestPathTree:
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
        return ShortestPathTree.bounded(
            source,
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
        entry: ShortestPathTree,
        link_available_kbps: np.ndarray,
        positions: np.ndarray,
        memo: np.ndarray,
    ) -> np.ndarray:
        """Bottleneck bandwidth from the entry's source to ``positions``
        (``-inf`` at -1, a non-member), folded into ``memo``, a row of NaN
        over the entry's positions that the caller keeps for one link
        version; see :meth:`ShortestPathTree.stale_bandwidth`."""
        return entry.stale_bandwidth(positions, link_available_kbps, memo)

    def live_bandwidth(self, source: int, node_id: int) -> Optional[float]:
        """Live bottleneck bandwidth source → node via the bounded tree,
        or None when the node is outside the source's neighbourhood (the
        caller falls back to the full router); a member's figure is the
        router's :meth:`OverlayRouter.available_bandwidth`."""
        if node_id == source:
            return math.inf
        return self.entry(source).live_bandwidth(node_id, self.router.link_available)

    def virtual_link(self, source: int, node_id: int) -> Optional[VirtualLinkPath]:
        """The virtual link source → member from the bounded tree (the
        router's overlay links and QoS floats), or None when the
        destination is outside the neighbourhood."""
        return self.entry(source).virtual_link(node_id)
