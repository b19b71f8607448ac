"""Resource allocation: transient probe-time reservations and sessions.

Section 3.3, per-hop probe processing: "the node performs *transient
resource allocation* to avoid conflicting resource admission caused by
concurrent probings for different requests.  The transient resource
allocation will be cancelled after a timeout period if the node does not
receive a confirmation message."  Footnote 7: "each node only temporarily
reserves resources *once* for each component in each request."

Step 4: "The confirmation message makes transient resource allocation
permanent on the selected nodes and virtual links."

:class:`ResourceAllocator` owns both halves:

* a **transient ledger** keyed by request id — at most one reservation per
  (request, component), all cancellable as a unit, with an expiry deadline
  enforced by :meth:`expire_due`;
* **session allocations** — the permanent, atomic admission of a selected
  :class:`ComponentGraph`'s demand (:meth:`ComponentGraph.demand`:
  aggregate per-node resources plus per-overlay-link bandwidth, a request
  whose virtual links share an overlay link paying for it once per
  virtual link), released together when the session closes.

Link bandwidth is checked at probe time and allocated at confirmation but
not reserved transiently; with node resources — the contended quantity —
covered by the ledger, this matches footnote 7's once-per-component rule
without tripling ledger traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.model.component import Component
from repro.model.component_graph import ComponentGraph
from repro.model.resources import ResourceVector
from repro.topology.overlay import OverlayNetwork
from repro.topology.routing import OverlayRouter


class AdmissionError(RuntimeError):
    """Raised when a composition cannot be admitted atomically."""


@dataclass
class SessionAllocation:
    """The permanent footprint of one running stream processing session:
    its composition's demand dicts (shared with the graph, never
    mutated)."""

    request_id: int
    node_demands: Dict[int, ResourceVector]
    link_demands: Dict[int, float]
    released: bool = False


@dataclass
class _TransientLedger:
    """All transient reservations held by one request."""

    request_id: int
    expires_at: float
    #: (component_id) -> (node_id, amount) actually held on the node
    holdings: Dict[int, Tuple[int, ResourceVector]] = field(default_factory=dict)

    def amount_on_node_or_none(self, node_id: int) -> Optional[ResourceVector]:
        """Total transiently-held resources on one node, or ``None`` when
        nothing is held — lets the probing hot path skip a zero-vector
        construction and an add per query (most queried nodes hold
        nothing)."""
        total: Optional[ResourceVector] = None
        for held_node, amount in self.holdings.values():
            if held_node == node_id:
                total = amount if total is None else total + amount
        return total


class ResourceAllocator:
    """Transient and permanent resource admission over one overlay."""

    def __init__(
        self,
        network: OverlayNetwork,
        router: OverlayRouter,
        transient_timeout_s: float = 10.0,
    ) -> None:
        if transient_timeout_s <= 0.0:
            raise ValueError(f"timeout must be positive, got {transient_timeout_s}")
        self.network = network
        self.router = router
        self.transient_timeout_s = transient_timeout_s
        self._ledgers: Dict[int, _TransientLedger] = {}
        self._sessions: Dict[int, SessionAllocation] = {}
        #: total transient reservations that expired un-confirmed (diagnostics)
        self.expired_reservations = 0

    # -- transient path ---------------------------------------------------------

    def reserve_component(
        self,
        request_id: int,
        component: Component,
        amount: ResourceVector,
        now: float = 0.0,
    ) -> bool:
        """Transiently reserve ``amount`` on ``component``'s node.

        Idempotent per (request, component) — a second reservation for the
        same pair is a no-op returning True (footnote 7).  Returns False
        without side effects if the node lacks the resources.
        """
        ledger = self._ledgers.get(request_id)
        if ledger is None:
            ledger = _TransientLedger(
                request_id, expires_at=now + self.transient_timeout_s
            )
            self._ledgers[request_id] = ledger
        if component.component_id in ledger.holdings:
            return True
        node = self.network.node(component.node_id)
        if not node.can_allocate(amount):
            return False
        node.allocate(amount)
        ledger.holdings[component.component_id] = (component.node_id, amount)
        ledger.expires_at = now + self.transient_timeout_s
        return True

    def available_excluding(self, request_id: int, node_id: int) -> ResourceVector:
        """A node's availability with this request's own transient holdings
        added back — the "current available resources" figure Fig. 4's
        congestion arithmetic expects."""
        node = self.network.node(node_id)
        available = node.available
        ledger = self._ledgers.get(request_id)
        if ledger is not None:
            held = ledger.amount_on_node_or_none(node_id)
            if held is not None:
                available = available + held
        return available

    def cancel_transient(self, request_id: int) -> None:
        """Release every transient reservation held by ``request_id``."""
        ledger = self._ledgers.pop(request_id, None)
        if ledger is None:
            return
        for node_id, amount in ledger.holdings.values():
            self.network.node(node_id).release(amount)

    def expire_due(self, now: float) -> List[int]:
        """Cancel all ledgers whose deadline passed; returns their ids.

        This is the paper's timeout: "cancelled after a timeout period if
        the node does not receive a confirmation message".
        """
        due = [
            request_id
            for request_id, ledger in self._ledgers.items()
            if ledger.expires_at <= now
        ]
        for request_id in due:
            self.cancel_transient(request_id)
            self.expired_reservations += 1
        return due

    @property
    def transient_request_ids(self) -> Tuple[int, ...]:
        return tuple(self._ledgers)

    # -- permanent path ---------------------------------------------------------

    def commit(self, composition: ComponentGraph) -> SessionAllocation:
        """Make the selected composition permanent (confirmation message).

        Cancels the request's transient reservations, then atomically
        admits the aggregate demand.  On any shortfall everything is rolled
        back and :class:`AdmissionError` is raised.
        """
        request = composition.request
        if request.request_id in self._sessions:
            raise AdmissionError(f"request {request.request_id} already has a session")
        self.cancel_transient(request.request_id)
        node_demands, link_demands = composition.demand()

        for node_id, demand in node_demands.items():
            if not self.network.node(node_id).can_allocate(demand):
                raise AdmissionError(
                    f"node v{node_id} cannot admit {demand} for "
                    f"request {request.request_id}"
                )
        for link_id, kbps in link_demands.items():
            if not self.network.link(link_id).can_allocate(kbps):
                raise AdmissionError(
                    f"overlay link e{link_id} cannot admit {kbps:.1f} kbps for "
                    f"request {request.request_id}"
                )

        allocated_nodes: List[int] = []
        allocated_links: List[int] = []
        try:
            for node_id, demand in node_demands.items():
                self.network.node(node_id).allocate(demand)
                allocated_nodes.append(node_id)
            for link_id, kbps in link_demands.items():
                self.network.link(link_id).allocate_bandwidth(kbps)
                allocated_links.append(link_id)
        except Exception:
            for node_id in allocated_nodes:
                self.network.node(node_id).release(node_demands[node_id])
            for link_id in allocated_links:
                self.network.link(link_id).release_bandwidth(link_demands[link_id])
            raise

        allocation = SessionAllocation(request.request_id, node_demands, link_demands)
        self._sessions[request.request_id] = allocation
        return allocation

    def release(self, allocation: SessionAllocation) -> None:
        """Tear down a session's footprint (the Close() path)."""
        if allocation.released:
            raise ValueError(f"session {allocation.request_id} already released")
        stored = self._sessions.pop(allocation.request_id, None)
        if stored is not allocation:
            raise ValueError(
                f"allocation for request {allocation.request_id} is not active"
            )
        for node_id, demand in allocation.node_demands.items():
            self.network.node(node_id).release(demand)
        for link_id, kbps in allocation.link_demands.items():
            self.network.link(link_id).release_bandwidth(kbps)
        allocation.released = True

    def session(self, request_id: int) -> Optional[SessionAllocation]:
        return self._sessions.get(request_id)

    @property
    def active_session_count(self) -> int:
        return len(self._sessions)
