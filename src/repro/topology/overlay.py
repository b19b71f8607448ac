"""Overlay mesh of stream processing nodes.

Section 2.1: "For failure resilience, we connect distributed nodes using
application-level overlay links (e_i) into an overlay mesh."  Section 4.1:
"The simulator then randomly selects N ∈ [200, 500] nodes as stream
processing nodes, which are connected into an overlay mesh.  Each node of
the mesh has K neighbors."

:class:`OverlayLink` is the unit of bandwidth state: it carries a static
QoS vector (delay derived from the IP-layer shortest path between its
endpoints, a small loss rate) and a mutable available-bandwidth figure.
All bandwidth mutation goes through :meth:`OverlayLink.allocate_bandwidth`
and :meth:`OverlayLink.release_bandwidth` so observers — the hierarchical
state manager — can watch for threshold crossings.

:class:`OverlayNetwork` owns the nodes and links and answers adjacency
queries; end-to-end *virtual links* (overlay paths) live in
``repro.topology.routing``.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.model.node import Node
from repro.model.qos import QoSVector
from repro.model.resources import DEFAULT_RESOURCE_SCHEMA, ResourceVector
from repro.topology.ip_network import IPNetwork

#: Signature of overlay link change listeners: listener(link) after change.
LinkListener = Callable[["OverlayLink"], None]


class InsufficientBandwidthError(RuntimeError):
    """Raised when an allocation would drive a link's residual negative."""


class OverlayLink:
    """An application-level overlay link between two stream nodes."""

    __slots__ = (
        "link_id",
        "node_a",
        "node_b",
        "delay_ms",
        "loss_rate",
        "capacity_kbps",
        "_allocated_kbps",
        "_listeners",
        "_qos",
    )

    def __init__(
        self,
        link_id: int,
        node_a: int,
        node_b: int,
        delay_ms: float,
        loss_rate: float,
        capacity_kbps: float,
    ) -> None:
        if node_a == node_b:
            raise ValueError(f"overlay link endpoints must differ, got {node_a}")
        if capacity_kbps <= 0.0:
            raise ValueError(f"capacity must be positive, got {capacity_kbps}")
        self.link_id = link_id
        self.node_a = min(node_a, node_b)
        self.node_b = max(node_a, node_b)
        self.delay_ms = float(delay_ms)
        self.loss_rate = float(loss_rate)
        self.capacity_kbps = float(capacity_kbps)
        self._allocated_kbps = 0.0
        self._listeners: List[LinkListener] = []
        self._qos = QoSVector(self.delay_ms, self.loss_rate)

    @property
    def endpoints(self) -> Tuple[int, int]:
        return (self.node_a, self.node_b)

    @property
    def qos(self) -> QoSVector:
        """Static link QoS (delay, loss)."""
        return self._qos

    @property
    def allocated_kbps(self) -> float:
        return self._allocated_kbps

    @property
    def available_kbps(self) -> float:
        """Current bandwidth availability ``ba`` of the link."""
        return self.capacity_kbps - self._allocated_kbps

    def other_end(self, node_id: int) -> int:
        if node_id == self.node_a:
            return self.node_b
        if node_id == self.node_b:
            return self.node_a
        raise ValueError(f"node {node_id} is not an endpoint of {self!r}")

    def can_allocate(self, kbps: float) -> bool:
        return self.available_kbps >= kbps - 1e-9

    def allocate_bandwidth(self, kbps: float) -> None:
        if kbps < 0.0:
            raise ValueError(f"negative bandwidth {kbps}")
        if not self.can_allocate(kbps):
            raise InsufficientBandwidthError(
                f"{self!r}: cannot allocate {kbps} kbps; "
                f"available {self.available_kbps} kbps"
            )
        self._allocated_kbps += kbps
        self._notify()

    def release_bandwidth(self, kbps: float) -> None:
        if kbps < 0.0:
            raise ValueError(f"negative bandwidth {kbps}")
        if kbps > self._allocated_kbps + 1e-9:
            raise ValueError(
                f"{self!r}: releasing {kbps} kbps exceeds allocated "
                f"{self._allocated_kbps} kbps"
            )
        self._allocated_kbps = max(0.0, self._allocated_kbps - kbps)
        self._notify()

    def add_change_listener(self, listener: LinkListener) -> None:
        self._listeners.append(listener)

    def remove_change_listener(self, listener: LinkListener) -> None:
        """Unregister a bandwidth-change listener (no-op when absent).

        Without this, every observer ever attached — e.g. each fresh
        :class:`~repro.topology.routing.OverlayRouter` the differential
        tests build on a shared network — stays referenced and keeps being
        notified forever.
        """
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self) -> None:
        for listener in self._listeners:
            listener(self)

    def __repr__(self) -> str:
        return (
            f"OverlayLink(e{self.link_id} v{self.node_a}<->v{self.node_b}, "
            f"{self.delay_ms:.1f}ms, {self.available_kbps:.0f}/"
            f"{self.capacity_kbps:.0f}kbps)"
        )


class OverlayNetwork:
    """The overlay mesh: stream processing nodes plus overlay links."""

    def __init__(self, nodes: Sequence[Node], links: Sequence[OverlayLink]) -> None:
        self._nodes: Tuple[Node, ...] = tuple(nodes)
        for index, node in enumerate(self._nodes):
            if node.node_id != index:
                raise ValueError(
                    f"node ids must be dense 0..n-1; position {index} has "
                    f"id {node.node_id}"
                )
        self._links: Tuple[OverlayLink, ...] = tuple(links)
        self._by_pair: Dict[Tuple[int, int], OverlayLink] = {}
        adjacency: Dict[int, List[int]] = {n.node_id: [] for n in self._nodes}
        for index, link in enumerate(self._links):
            if link.link_id != index:
                raise ValueError(
                    f"link ids must be dense 0..m-1; position {index} has "
                    f"id {link.link_id}"
                )
            pair = link.endpoints
            if pair in self._by_pair:
                raise ValueError(f"duplicate overlay link between {pair}")
            self._by_pair[pair] = link
            adjacency[link.node_a].append(link.link_id)
            adjacency[link.node_b].append(link.link_id)
        self._adjacency = {k: tuple(v) for k, v in adjacency.items()}
        self._down_node_ids: set = set()
        for node in self._nodes:
            if not node.alive:
                self._down_node_ids.add(node.node_id)
            node.add_liveness_listener(self._on_liveness_change)

    def _on_liveness_change(self, node: Node) -> None:
        if node.alive:
            self._down_node_ids.discard(node.node_id)
        else:
            self._down_node_ids.add(node.node_id)

    def close(self) -> None:
        """Detach the liveness listeners registered in ``__init__``.

        Teardown hook for test isolation: a network that is discarded
        while its nodes live on must not stay subscribed to them,
        or the nodes keep the dead network (and everything it references)
        alive and keep invoking it on every fail/recover.  Idempotent —
        :meth:`Node.remove_liveness_listener` is a no-op when absent.
        """
        for node in self._nodes:
            node.remove_liveness_listener(self._on_liveness_change)

    # -- accessors ---------------------------------------------------------

    @property
    def nodes(self) -> Tuple[Node, ...]:
        return self._nodes

    @property
    def down_node_ids(self) -> frozenset:
        """Ids of currently-crashed nodes (usually empty), maintained via
        liveness listeners so hot paths need not poll every node."""
        return frozenset(self._down_node_ids)

    @property
    def links(self) -> Tuple[OverlayLink, ...]:
        return self._links

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> Node:
        return self._nodes[node_id]

    def link(self, link_id: int) -> OverlayLink:
        return self._links[link_id]

    def link_between(self, node_a: int, node_b: int) -> Optional[OverlayLink]:
        return self._by_pair.get((min(node_a, node_b), max(node_a, node_b)))

    def adjacent_links(self, node_id: int) -> Tuple[OverlayLink, ...]:
        return tuple(self._links[i] for i in self._adjacency[node_id])

    def neighbors(self, node_id: int) -> Tuple[int, ...]:
        return tuple(
            self._links[i].other_end(node_id) for i in self._adjacency[node_id]
        )

    def path_available_bw(self, link_ids: Iterable[int]) -> float:
        """Bottleneck bandwidth of an overlay path (Section 2.1:
        ``ba_li = min(ba_e1, ..., ba_ek)``); ``inf`` for the empty
        (co-located) path."""
        available = float("inf")
        for link_id in link_ids:
            available = min(available, self._links[link_id].available_kbps)
        return available


def default_node_capacity_sampler(rng: random.Random) -> ResourceVector:
    """Default node capacity draw: CPU U(50, 100) units, memory U(256, 1024) MB.

    The paper only says capacities are "uniformly distributed within certain
    range based on the real-world measurements"; these ranges put tens of
    concurrent component instances on a node, matching the contention regime
    of the evaluation.
    """
    return ResourceVector(
        DEFAULT_RESOURCE_SCHEMA,
        [rng.uniform(50.0, 100.0), rng.uniform(256.0, 1024.0)],
    )


def _bridge_components(
    pairs: Set[Tuple[int, int]],
    num_nodes: int,
    rows_for: Callable[[Sequence[int]], np.ndarray],
) -> None:
    """Make the k-nearest-neighbour mesh connected.

    Nearest-neighbour unions can leave clusters of mutually-close nodes
    isolated; any pair of unreachable overlay nodes would make some
    compositions structurally impossible.  Bridge each component into the
    first one through the minimum-delay inter-component pair (mutates
    ``pairs`` in place).

    ``rows_for(node_ids)`` supplies delay rows on demand — shape
    ``(len(node_ids), num_nodes)`` — so bridging never needs the dense
    all-pairs delay matrix; it fetches rows only for the (usually zero)
    nodes stranded outside the main component.
    """
    parent = list(range(num_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in sorted(pairs):
        parent[find(a)] = find(b)
    components: Dict[int, List[int]] = {}
    for node in range(num_nodes):
        components.setdefault(find(node), []).append(node)
    groups = sorted(components.values(), key=len, reverse=True)
    base = groups[0]
    for group in groups[1:]:
        group_rows = rows_for(group)
        position = {node: index for index, node in enumerate(group)}
        best = min(
            ((a, b) for a in group for b in base),
            key=lambda pair: group_rows[position[pair[0]], pair[1]],
        )
        pairs.add((min(best), max(best)))
        base = base + group


def k_smallest_stable(row: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` indices of ``np.argsort(row, kind="stable")``,
    via partial sort.

    ``argpartition`` finds the ``count`` smallest in O(n); the candidates
    at or below their maximum are then stable-sorted.  ``np.nonzero``
    yields candidate indices in ascending order, so equal values tie-break
    by ascending index — exactly the full stable argsort's order — and the
    returned prefix is element-identical to the full sort's.
    """
    n = len(row)
    if count >= n:
        return np.argsort(row, kind="stable")
    part = np.argpartition(row, count - 1)[:count]
    threshold = row[part].max()
    candidate_idx = np.nonzero(row <= threshold)[0]
    order = candidate_idx[np.argsort(row[candidate_idx], kind="stable")]
    return order[:count]


#: relative slack on a triangle-inequality limit, covering the rounding of
#: the float sum ``radius + delay`` (a row cut short falls back anyway)
BOUND_SLACK = 1e-9


def nearest_targets(
    graph: csr_matrix,
    source: int,
    count: int,
    limit: float = math.inf,
    targets: Optional[np.ndarray] = None,
    must_reach: Sequence[int] = (),
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The first ``count`` targets of ``source``'s shortest-path tree,
    solving only as far as ``limit`` when that suffices.

    ``graph`` is a symmetric CSR delay graph with positive weights, solved
    directed (it already holds both directions of every edge).  Target
    columns index ``targets`` (graph nodes; every node when None).
    Returns ``(row, reached, nearest, predecessors)``: the delay to each
    target column (``inf`` beyond the limit), the reached columns in
    ascending order, the first ``count`` of them in (delay, column) order,
    and scipy's predecessor array over all graph nodes.

    Exact whatever the limit: delays are positive, so every node within
    the limit is settled through the same relaxations as in the full
    solve, with the same distance float and (paths being unique) the same
    predecessor; every node beyond it is farther than every reached one.
    The bounded row is accepted once it reaches ``count`` targets and
    every ``must_reach`` column, so its (delay, column) prefix is the full
    solve's.  A row cut short is solved again with no limit; the limit
    only decides the cost.
    """
    while True:
        distances, predecessors = dijkstra(
            graph,
            directed=True,
            indices=source,
            limit=limit,
            return_predecessors=True,
        )
        row = distances if targets is None else distances[targets]
        reached = np.flatnonzero(np.isfinite(row))
        if limit == math.inf or (
            len(reached) >= count and bool(np.isfinite(row[list(must_reach)]).all())
        ):
            break
        limit = math.inf
    nearest = reached[k_smallest_stable(row[reached], count)]
    return row, reached, nearest, predecessors


def tighten_bounds(
    bounds: np.ndarray,
    row: np.ndarray,
    reached: np.ndarray,
    nearest: np.ndarray,
    count: int,
) -> None:
    """Lower each reached target's bound on its own ``count``-th-nearest
    delay, after one :func:`nearest_targets` solve of size ``count``.

    By the triangle inequality, the ``count`` targets within radius r(v)
    of the solved source v all lie within r(v) + d(v, u) of every target
    u, so that sum bounds u's ``count``-th-nearest delay (for v itself it
    is r(v)).  A row with fewer than ``count`` targets bounds nothing.
    """
    if len(nearest) < count:
        return
    radius = row[nearest[-1]]
    bounds[reached] = np.minimum(bounds[reached], radius + row[reached])


def build_overlay_network(
    ip_network: IPNetwork,
    num_nodes: int,
    neighbors_per_node: int = 6,
    bandwidth_range_kbps: Tuple[float, float] = (20_000.0, 100_000.0),
    loss_per_ms: Tuple[float, float] = (1e-5, 1e-4),
    node_capacity_sampler: Callable[[random.Random], ResourceVector] = (
        default_node_capacity_sampler
    ),
    rng: Optional[random.Random] = None,
) -> OverlayNetwork:
    """Build the overlay mesh over an IP network (Section 4.1's recipe).

    ``num_nodes`` distinct routers are selected as stream processing nodes;
    each node links to its ``neighbors_per_node`` nearest peers by IP-layer
    delay.  Overlay link delay is the IP shortest-path delay between the
    endpoints' routers; loss grows with delay; capacity is drawn uniformly.

    Construction is streamed: each node's router is solved once, by a
    :func:`nearest_targets` solve bounded by the triangle inequality
    (:func:`tighten_bounds` over the earlier solves, count ``k + 1`` with
    the node itself), and its row is discarded as soon as its nearest
    neighbours and link delays are recorded — peak memory is O(routers)
    per source, never the dense O(nodes × routers) matrix.  The stream of
    drawn random numbers and every link's float delay are byte-identical
    to the dense full-solve build: a link's delay is always read from its
    *lower-id endpoint's* row, which is why the sweep below visits nodes
    in descending id order — when node ``u`` is solved, every pair a
    higher-id node opened to ``u`` already exists, so its limit also
    covers the largest such delay (read from the higher-id row) and those
    partners are must-reach columns of its solve.
    """
    # explicit fixed seed when the caller doesn't care about the stream;
    # never the process-global RNG, so builds replay byte-identically
    rng = rng if rng is not None else random.Random(0)
    if num_nodes < 2:
        raise ValueError(f"need at least 2 overlay nodes, got {num_nodes}")
    if num_nodes > ip_network.num_routers:
        raise ValueError(
            f"cannot place {num_nodes} overlay nodes on "
            f"{ip_network.num_routers} routers"
        )
    if neighbors_per_node < 1:
        raise ValueError("neighbors_per_node must be ≥ 1")

    routers = rng.sample(range(ip_network.num_routers), num_nodes)
    nodes = [
        Node(node_id, router_id, node_capacity_sampler(rng))
        for node_id, router_id in enumerate(routers)
    ]

    def rows_for(node_ids: Sequence[int]) -> np.ndarray:
        """Full delay rows (one per requested node) over the overlay
        columns, in one solve."""
        return ip_network.delays_from([routers[node_id] for node_id in node_ids])[
            :, routers
        ]

    pairs: Set[Tuple[int, int]] = set()
    # lower-id endpoint → higher-id partners whose pair awaits its delay
    by_min: Dict[int, List[int]] = {}
    pair_delay: Dict[Tuple[int, int], float] = {}
    k = min(neighbors_per_node, num_nodes - 1)
    targets = np.asarray(routers)
    bounds = np.full(num_nodes, math.inf)
    # largest delay of a pair a higher-id node opened, per lower-id node
    opened_reach = np.zeros(num_nodes)

    for node_id in range(num_nodes - 1, -1, -1):
        partners = by_min.pop(node_id, [])
        limit = max(bounds[node_id], opened_reach[node_id]) * (1.0 + BOUND_SLACK)
        row, reached, nearest, _ = nearest_targets(
            ip_network.matrix, routers[node_id], k + 1, limit, targets, partners
        )
        tighten_bounds(bounds, row, reached, nearest, k + 1)
        picked = 0
        for neighbor in nearest.tolist():
            if neighbor == node_id:
                continue
            pair = (min(node_id, neighbor), max(node_id, neighbor))
            if pair not in pairs:
                pairs.add(pair)
                if neighbor < node_id:
                    by_min.setdefault(neighbor, []).append(node_id)
                    opened_reach[neighbor] = max(opened_reach[neighbor], row[neighbor])
                else:
                    partners.append(neighbor)
            picked += 1
            if picked >= k:
                break
        # every pair keyed by this node exists now (descending sweep):
        # resolve their authoritative delays from this node's row
        for other in partners:
            pair_delay[(node_id, other)] = float(row[other])

    _bridge_components(pairs, num_nodes, rows_for)

    # bridge links may key on a node whose row is gone; re-solve just those
    missing = [pair for pair in sorted(pairs) if pair not in pair_delay]
    if missing:
        lower_ids = sorted({pair[0] for pair in missing})
        lower_rows = rows_for(lower_ids)
        row_index_of = {node_id: i for i, node_id in enumerate(lower_ids)}
        for a, b in missing:
            pair_delay[(a, b)] = float(lower_rows[row_index_of[a], b])

    links = []
    for link_id, (a, b) in enumerate(sorted(pairs)):
        delay = pair_delay[(a, b)]
        loss = min(0.5, delay * rng.uniform(*loss_per_ms))
        capacity = rng.uniform(*bandwidth_range_kbps)
        links.append(OverlayLink(link_id, a, b, delay, loss, capacity))
    return OverlayNetwork(nodes, links)
