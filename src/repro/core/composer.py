"""Composer interface, shared context, and precise composition evaluation.

Every composition algorithm in the paper's evaluation (ACP, Optimal, SP,
RP, Random, Static) is a :class:`Composer`: given a
:class:`~repro.model.request.StreamRequest` it returns a
:class:`CompositionOutcome` — a selected component graph (or a failure) plus
the message accounting that Figs. 6(b) and 7(b) compare.

The shared :class:`CompositionEvaluator` implements the checks every
algorithm needs against *precise* state:

* Eq. 2 is enforced structurally by :class:`ComponentGraph`;
* Eq. 3 via end-to-end per-path QoS;
* Eqs. 4–5 via aggregate per-node and per-overlay-link feasibility;
* Eq. 1's congestion aggregation φ(λ) for ranking qualified compositions;
* the component interface compatibility check (formats and stream rates).

Availability is always read through the allocator's
``available_excluding`` so a request's own transient probe reservations do
not distort its view of the system (Fig. 4's arithmetic expects
pre-request availability).
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.allocation.allocator import ResourceAllocator
from repro.core.control import ControlChannel, PerfectControlChannel
from repro.discovery.registry import ComponentRegistry
from repro.model.component import Component
from repro.observability import NULL_RECORDER, Recorder
from repro.model.component_graph import ComponentGraph, VirtualLinkPath
from repro.model.qos import QoSVector
from repro.model.qos_model import LoadDependentQoSModel
from repro.model.request import StreamRequest
from repro.model.resources import ResourceVector
from repro.state.global_state import GlobalStateManager
from repro.state.local_state import LocalStateProvider
from repro.topology.overlay import OverlayNetwork
from repro.topology.routing import OverlayRouter

if TYPE_CHECKING:  # runtime import would cycle: fastscore builds on composer
    from repro.core.fastscore import FastScorer
    from repro.topology.neighborhood import NeighborhoodIndex


@dataclass
class CompositionContext:
    """Everything a composition algorithm may consult.

    One context is shared by all composers attached to a simulator; the
    ``clock`` callable supplies the simulated time used for transient
    reservation deadlines.
    """

    network: OverlayNetwork
    router: OverlayRouter
    registry: ComponentRegistry
    allocator: ResourceAllocator
    global_state: GlobalStateManager
    local_state: LocalStateProvider
    rng: random.Random
    clock: Callable[[], float] = lambda: 0.0
    #: observability sink shared by every composer on this context; the
    #: null default keeps the hot path at one ``enabled`` check per site
    recorder: Recorder = NULL_RECORDER
    #: the only legal probe-delivery seam (see repro.core.control); the
    #: perfect default consumes no randomness, so a context built without
    #: faults behaves identically to one predating the channel
    control: ControlChannel = field(default_factory=PerfectControlChannel)
    #: how component QoS responds to host load (factors 0 = static QoS)
    qos_model: LoadDependentQoSModel = field(default_factory=LoadDependentQoSModel)
    #: bound on the scorer's per-source stale-bandwidth-row cache; keeps
    #: scorer memory O(bound × N) at large N
    scorer_row_cache_size: int = 512
    #: resolved neighbourhood size for locality-pruned candidate scoring
    #: (None = full scan; build_system resolves SystemConfig's "auto"
    #: before wiring — see repro.topology.neighborhood.resolve_prune_k)
    candidate_prune_k: Optional[int] = None
    #: bound on the neighbourhood index's per-(source, k) entry cache;
    #: entries are O(k), so resident memory stays O(cache × k)
    neighborhood_cache_size: int = 1024
    #: lazily constructed scoring engine (see fast_scorer())
    _fast_scorer: Optional["FastScorer"] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: lazily constructed router-neighbourhood index (see
    #: neighborhood_index()); never built while pruning is off, so the
    #: default configuration carries zero extra state
    _neighborhood_index: Optional["NeighborhoodIndex"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def fast_scorer(self) -> "FastScorer":
        """The shared :class:`~repro.core.fastscore.FastScorer` for this
        context, created on first use.  Its caches are keyed on the
        registry/global-state/router epochs, so sharing one instance across
        all composers and requests is what makes it fast."""
        if self._fast_scorer is None:
            # imported here: fastscore imports model types that sit below
            # this module, but the package re-exports composer first
            from repro.core.fastscore import FastScorer

            self._fast_scorer = FastScorer(self)
        return self._fast_scorer

    def neighborhood_index(self) -> "NeighborhoodIndex":
        """The shared router-neighbourhood index for this context, created
        on first use.  Only meaningful when ``candidate_prune_k`` is set;
        callers on the default (full-scan) configuration never construct
        it."""
        if self._neighborhood_index is None:
            from repro.topology.neighborhood import NeighborhoodIndex

            assert self.candidate_prune_k is not None
            self._neighborhood_index = NeighborhoodIndex(
                self.router,
                k=self.candidate_prune_k,
                capacity=self.neighborhood_cache_size,
                recorder=self.recorder,
            )
        return self._neighborhood_index

    def live_available_bandwidth(self, node_a: int, node_b: int) -> float:
        """Live bottleneck bandwidth of the virtual link a → b.

        With pruning active, answered from the bounded neighbourhood tree
        when ``node_b`` is a member (an O(k) walk instead of an O(N) row
        annotation); falls back to the full router otherwise — e.g. for a
        candidate admitted by a widened pool — so the figure is always the
        router's figure, byte-for-byte.
        """
        if self.candidate_prune_k is not None and node_a != node_b:
            bandwidth = self.neighborhood_index().live_bandwidth(node_a, node_b)
            if bandwidth is not None:
                return bandwidth
        return self.router.available_bandwidth(node_a, node_b)

    def virtual_link(self, node_a: int, node_b: int) -> VirtualLinkPath:
        """The virtual link a → b, preferring the bounded neighbourhood
        tree over the full router's O(N) row annotation (identical links
        and QoS floats for members; router fallback for everything else,
        including the co-located a == b case)."""
        if self.candidate_prune_k is not None and node_a != node_b:
            link = self.neighborhood_index().virtual_link(node_a, node_b)
            if link is not None:
                return link
        return self.router.virtual_link(node_a, node_b)

    def precise_component_qos(self, component: Component) -> QoSVector:
        """Effective QoS from the *live* host state (what a probe observes
        on arrival, and what the omniscient optimal algorithm sees)."""
        node = self.network.node(component.node_id)
        return self.qos_model.effective_qos(component, node.available, node.capacity)

    def stale_component_qos(self, component: Component) -> QoSVector:
        """Effective QoS from the coarse-grain global state's stale
        availability snapshot (what per-hop candidate selection ranks on)."""
        node = self.network.node(component.node_id)
        available = self.global_state.node_available(component.node_id)
        return self.qos_model.effective_qos(component, available, node.capacity)


@dataclass
class CompositionOutcome:
    """Result of one composition attempt.

    Attributes:
        request: The request that was composed.
        composition: The selected component graph, or None on failure.
        success: Whether a qualified composition was found.
        probe_messages: Probe messages spent (hop traversals plus returns);
            for the optimal algorithm, partial compositions explored — "the
            number of probes required by the exhaustive search"
            (Section 4.1).
        setup_messages: Confirmation messages along the selected graph.
        explored: Candidate compositions examined (diagnostics).
        phi: φ(λ) of the selected composition under precise state.
        failure_reason: Short machine-readable reason on failure.
    """

    request: StreamRequest
    composition: Optional[ComponentGraph] = None
    success: bool = False
    probe_messages: int = 0
    setup_messages: int = 0
    explored: int = 0
    phi: Optional[float] = None
    failure_reason: Optional[str] = None


class CompositionEvaluator:
    """Precise-state qualification and ranking shared by all composers."""

    def __init__(self, context: CompositionContext) -> None:
        self.context = context

    # -- construction -----------------------------------------------------------

    def build_component_graph(
        self, request: StreamRequest, assignment: Mapping[int, Component]
    ) -> ComponentGraph:
        """Resolve virtual links for an assignment and build the graph."""
        context = self.context
        links = {
            (a, b): context.virtual_link(
                assignment[a].node_id, assignment[b].node_id
            )
            for a, b in request.function_graph.edges
        }
        return ComponentGraph(request, assignment, links)

    # -- interface compatibility -------------------------------------------------

    def interface_compatible(
        self, request: StreamRequest, assignment: Mapping[int, Component]
    ) -> bool:
        """Format and stream-rate compatibility over the whole assignment.

        "the input/output rates of two adjacent components must be
        compatible ... Such a compatibility check is based on the
        component's interface specifications" (Section 2.1).
        """
        graph = request.function_graph
        rates = graph.input_rates(request.stream_rate)
        for index in range(len(graph)):
            component = assignment[index]
            if rates[index] > component.max_input_rate:
                return False
            if not component.satisfies_attributes(request.required_attributes):
                return False
            if not self.context.network.node(component.node_id).alive:
                return False
        router = self.context.router
        for a, b in graph.edges:
            if not assignment[a].compatible_with(assignment[b]):
                return False
            if not router.reachable(assignment[a].node_id, assignment[b].node_id):
                return False
        return True

    # -- feasibility (Eqs. 3-5) -------------------------------------------------

    def node_available(self, request: StreamRequest, node_id: int) -> ResourceVector:
        """Precise availability, excluding the request's own reservations."""
        return self.context.allocator.available_excluding(
            request.request_id, node_id
        )

    def effective_component_qos(
        self,
        composition: ComponentGraph,
        _qos_memo: Optional[Dict[int, QoSVector]] = None,
    ) -> Dict[int, QoSVector]:
        """Per-placement effective QoS under live load (the precise view).

        ``_qos_memo`` (component_id → QoS) lets :meth:`qualify_and_rank`
        share lookups across candidate compositions that place the same
        component; no state changes between them, so the values are
        identical either way.
        """
        graph = composition.request.function_graph
        if _qos_memo is None:
            return {
                index: self.context.precise_component_qos(composition.component(index))
                for index in range(len(graph))
            }
        out: Dict[int, QoSVector] = {}
        for index in range(len(graph)):
            component = composition.component(index)
            qos = _qos_memo.get(component.component_id)
            if qos is None:
                qos = self.context.precise_component_qos(component)
                _qos_memo[component.component_id] = qos
            out[index] = qos
        return out

    def worst_effective_qos(self, composition: ComponentGraph) -> QoSVector:
        """Critical-path QoS under the load-dependent model (live state)."""
        return composition.worst_path_qos(self.effective_component_qos(composition))

    def feasible(
        self,
        composition: ComponentGraph,
        _qos_memo: Optional[Dict[int, QoSVector]] = None,
        _avail_memo: Optional[Dict[int, ResourceVector]] = None,
    ) -> Tuple[bool, Optional[str]]:
        """Eqs. 3–5 against precise state, with aggregate semantics.

        QoS is evaluated under the load-dependent model at live host state;
        per-node demand sums over all of the request's components placed on
        the node; per-overlay-link demand sums over all of its virtual
        links crossing the link.  The memo parameters are pure read caches
        scoped to one :meth:`qualify_and_rank` call (see there).
        """
        request = composition.request
        if not composition.qos_satisfied(
            self.effective_component_qos(composition, _qos_memo)
        ):
            return False, "qos_violation"

        node_demands: Dict[int, object] = {}
        for index in range(len(request.function_graph)):
            component = composition.component(index)
            requirement = request.requirement_for(index)
            if component.node_id in node_demands:
                node_demands[component.node_id] = (
                    node_demands[component.node_id] + requirement
                )
            else:
                node_demands[component.node_id] = requirement
        for node_id, demand in node_demands.items():
            if not self._node_available_memo(request, node_id, _avail_memo).covers(
                demand
            ):
                return False, "node_resources"

        link_demands: Dict[int, float] = {}
        for edge, virtual_link in composition.virtual_links.items():
            bandwidth = request.bandwidth_for(edge)
            for link_id in virtual_link.overlay_link_ids:
                link_demands[link_id] = link_demands.get(link_id, 0.0) + bandwidth
        network = self.context.network
        for link_id, kbps in link_demands.items():
            if network.link(link_id).available_kbps < kbps - 1e-9:
                return False, "link_bandwidth"
        return True, None

    # -- ranking (Eq. 1) -----------------------------------------------------------

    def _node_available_memo(
        self,
        request: StreamRequest,
        node_id: int,
        memo: Optional[Dict[int, ResourceVector]],
    ) -> ResourceVector:
        if memo is None:
            return self.node_available(request, node_id)
        available = memo.get(node_id)
        if available is None:
            available = self.node_available(request, node_id)
            memo[node_id] = available
        return available

    def phi(
        self,
        composition: ComponentGraph,
        _avail_memo: Optional[Dict[int, ResourceVector]] = None,
    ) -> float:
        """φ(λ) under precise state (live link bandwidth, pre-request
        node availability)."""
        request = composition.request
        network = self.context.network

        def link_available(edge: Tuple[int, int]) -> float:
            return network.path_available_bw(
                composition.virtual_link(edge).overlay_link_ids
            )

        return composition.congestion_aggregation(
            lambda node_id: self._node_available_memo(request, node_id, _avail_memo),
            link_available,
        )

    def qualify_and_rank(
        self, compositions: Sequence[ComponentGraph]
    ) -> Tuple[Optional[ComponentGraph], Optional[float], list]:
        """Filter qualified compositions and return the φ-minimal one.

        Returns ``(best, best_phi, qualified_list)``; the list holds
        ``(phi, composition)`` pairs for callers that select differently
        (the SP baseline picks at random among the qualified).

        All candidate compositions belong to one request, and nothing
        mutates node or link state during qualification, so per-component
        effective QoS and per-node availability are memoised across the
        whole batch — the values are identical to recomputing them.
        """
        qualified = []
        qos_memo: Dict[int, QoSVector] = {}
        avail_memo: Dict[int, object] = {}
        for composition in compositions:
            ok, _reason = self.feasible(composition, qos_memo, avail_memo)
            if ok:
                qualified.append((self.phi(composition, avail_memo), composition))
        if not qualified:
            return None, None, []
        best_phi, best = min(qualified, key=lambda pair: pair[0])
        return best, best_phi, qualified


class Composer(abc.ABC):
    """Base class of all composition algorithms."""

    #: Short identifier used in reports and figures ("ACP", "Optimal", ...).
    name: str = "base"

    def __init__(self, context: CompositionContext) -> None:
        self.context = context
        self.evaluator = CompositionEvaluator(context)

    @abc.abstractmethod
    def compose(self, request: StreamRequest) -> CompositionOutcome:
        """Attempt to compose ``request``; never raises on normal failures."""

    def _setup_messages(self, composition: ComponentGraph) -> int:
        """Confirmation messages: one per selected component (Section 3.3,
        step 4 sends confirmations along the composition)."""
        return len(composition.request.function_graph)

    def _fail(
        self, request: StreamRequest, reason: str, **counters: int
    ) -> CompositionOutcome:
        self.context.allocator.cancel_transient(request.request_id)
        recorder = self.context.recorder
        if recorder.enabled:
            recorder.emit(
                "probe.fail",
                request_id=request.request_id,
                algorithm=self.name,
                reason=reason,
            )
        return CompositionOutcome(
            request=request, success=False, failure_reason=reason, **counters
        )
