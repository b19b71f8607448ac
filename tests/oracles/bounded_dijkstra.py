"""Heap-based bounded Dijkstra: the reference for neighbourhood entries.

An independent, pure-Python solver for the bounded shortest-path tree
that :class:`repro.topology.neighborhood.NeighborhoodIndex` answers.  It
settles at most ``k`` nodes (the source included) one heap operation at
a time and shares no code with the router, so tests comparing the index
against it are not circular.

It mirrors the router's graph semantics: links adjacent to a down node
are skipped, and so are down links; a crashed source relays nothing.
Distance accumulates as ``d(v) = d(u) + w`` and loss composes per tree
edge as ``1 − (1 − loss(u))(1 − loss(edge))``, so on unique shortest
paths every figure equals the production solve's float for float.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import AbstractSet, Dict, List, Tuple

import numpy as np

from repro.topology.overlay import OverlayNetwork

#: (members, delay, loss, uplink, parent_pos), parallel over settle order
BoundedTree = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def bounded_dijkstra(
    network: OverlayNetwork,
    source: int,
    k: int,
    down_nodes: AbstractSet[int] = frozenset(),
    down_links: AbstractSet[int] = frozenset(),
) -> BoundedTree:
    """Settle at most ``k`` nodes from ``source`` in (delay, node id) order."""
    neighbors: List[List[Tuple[int, int, float, float]]] = [
        [] for _ in range(len(network))
    ]
    for link in network.links:
        loss = link.loss_rate
        neighbors[link.node_a].append((link.node_b, link.link_id, link.delay_ms, loss))
        neighbors[link.node_b].append((link.node_a, link.link_id, link.delay_ms, loss))

    dist: Dict[int, float] = {source: 0.0}
    done: set = set()
    pred_node: Dict[int, int] = {}
    pred_link: Dict[int, int] = {}
    edge_loss_of: Dict[int, float] = {}
    position_of: Dict[int, int] = {}
    loss_at: Dict[int, float] = {}

    members: List[int] = []
    delay: List[float] = []
    loss: List[float] = []
    uplink: List[int] = []
    parent_pos: List[int] = []

    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap and len(members) < k:
        d, node = heappop(heap)
        if node in done:
            continue
        done.add(node)
        position_of[node] = len(members)
        members.append(node)
        delay.append(d)
        if node == source:
            node_loss = 0.0
            uplink.append(-1)
            parent_pos.append(-1)
        else:
            parent = pred_node[node]
            node_loss = 1.0 - (1.0 - loss_at[parent]) * (1.0 - edge_loss_of[node])
            uplink.append(pred_link[node])
            parent_pos.append(position_of[parent])
        loss_at[node] = node_loss
        loss.append(node_loss)
        if source in down_nodes:
            break  # a crashed source relays nothing
        for other, link_id, weight, edge_loss in neighbors[node]:
            if other in done or link_id in down_links or other in down_nodes:
                continue
            through = d + weight
            if through < dist.get(other, math.inf):
                dist[other] = through
                pred_node[other] = node
                pred_link[other] = link_id
                edge_loss_of[other] = edge_loss
                heappush(heap, (through, other))

    return (
        np.asarray(members, dtype=np.int64),
        np.asarray(delay, dtype=np.float64),
        np.asarray(loss, dtype=np.float64),
        np.asarray(uplink, dtype=np.int64),
        np.asarray(parent_pos, dtype=np.int64),
    )
