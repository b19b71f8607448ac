"""IP-layer routing over a router graph.

Section 4.1: "The simulator simulates both IP-layer and overlay data routing
using delay-based shortest path routing algorithm."

:class:`IPNetwork` wraps a :class:`~repro.topology.powerlaw.RouterGraph`
with a sparse adjacency matrix and exposes delay-based shortest-path
distances (scipy Dijkstra).  Overlay construction uses these distances to
(a) attach stream processing nodes, (b) pick overlay neighbours by
proximity, and (c) derive overlay link delays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.topology.powerlaw import RouterGraph


class IPNetwork:
    """Delay-based shortest-path routing over an IP router graph."""

    def __init__(self, graph: RouterGraph) -> None:
        self.graph = graph
        n = graph.num_routers
        rows, cols, delays = [], [], []
        for link in graph.links:
            rows.extend((link.router_a, link.router_b))
            cols.extend((link.router_b, link.router_a))
            delays.extend((link.delay_ms, link.delay_ms))
        self._matrix = csr_matrix(
            (np.asarray(delays), (np.asarray(rows), np.asarray(cols))), shape=(n, n)
        )

    @property
    def num_routers(self) -> int:
        return self.graph.num_routers

    @property
    def matrix(self) -> csr_matrix:
        """The symmetric CSR delay graph (both directions of every link);
        treat as read-only."""
        return self._matrix

    def delays_from(self, sources: Sequence[int]) -> np.ndarray:
        """Shortest-path delay (ms) from each source router to every router.

        Returns an array of shape ``(len(sources), num_routers)``;
        unreachable routers are ``inf`` (never happens on connected graphs).
        """
        return dijkstra(self._matrix, directed=False, indices=list(sources))

    def delays_between(self, routers: Sequence[int]) -> np.ndarray:
        """Square matrix of pairwise shortest-path delays among ``routers``."""
        full = self.delays_from(routers)
        return full[:, list(routers)]

    def delay(self, router_a: int, router_b: int) -> float:
        """Shortest-path delay between one router pair."""
        return float(self.delays_from([router_a])[0, router_b])
