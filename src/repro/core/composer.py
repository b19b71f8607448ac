"""Composer interface, shared context, and precise composition evaluation.

Every composition algorithm in the paper's evaluation (ACP, Optimal, SP,
RP, Random, Static) is a :class:`Composer`: given a
:class:`~repro.model.request.StreamRequest` it returns a
:class:`CompositionOutcome` — a selected component graph (or a failure) plus
the message accounting that Figs. 6(b) and 7(b) compare.

The shared :class:`CompositionEvaluator` judges complete compositions
against *precise* state, as Section 3.3's deputy does.  Its one judge,
:meth:`CompositionEvaluator.judge`, serves every algorithm, the live
migration planner and the session middleware:

* Eq. 2 is enforced structurally by :class:`ComponentGraph`;
* Eq. 3 via end-to-end per-path QoS;
* Eqs. 4–5 via the graph's aggregate per-node and per-overlay-link demand
  (:meth:`ComponentGraph.demand`);
* Eq. 1's congestion aggregation φ(λ) for ranking qualified compositions;

beside it, :meth:`CompositionEvaluator.interface_compatible` checks the
component interfaces (formats and stream rates).

Live reads go through one :class:`PreciseReads` memo that the caller
scopes to a stretch of state nothing changes under.  Availability is read
through the allocator's ``available_excluding`` so a request's own
transient probe reservations do not distort its view of the system
(Fig. 4's arithmetic expects pre-request availability).
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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


class PreciseReads:
    """The live state a judgement reads, each value read once.

    A component's effective QoS under its host's live load and a node's
    availability before the request's own transient holdings, memoised
    for one request over a stretch of state that nothing changes under:
    one request's beam in :meth:`CompositionEvaluator.qualify_and_rank`,
    one Optimal search, or one migration planning pass.  The caller that
    starts it owns that scope; a read after an allocation or a fault needs
    a new one.
    """

    __slots__ = ("_context", "_request_id", "_qos", "_available")

    def __init__(self, context: CompositionContext, request_id: int) -> None:
        self._context = context
        self._request_id = request_id
        self._qos: Dict[int, QoSVector] = {}
        self._available: Dict[int, ResourceVector] = {}

    def qos(self, component: Component) -> QoSVector:
        """Effective QoS at live host state (what a probe observes on
        arrival, and what the omniscient optimal algorithm sees)."""
        qos = self._qos.get(component.component_id)
        if qos is None:
            qos = self._context.precise_component_qos(component)
            self._qos[component.component_id] = qos
        return qos

    def available(self, node_id: int) -> ResourceVector:
        """Precise availability, excluding the request's own reservations."""
        available = self._available.get(node_id)
        if available is None:
            available = self._context.allocator.available_excluding(
                self._request_id, node_id
            )
            self._available[node_id] = available
        return available


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

    # -- the judge (Eqs. 3-5, Eq. 1) ----------------------------------------------

    def reads(self, request: StreamRequest) -> PreciseReads:
        """A fresh :class:`PreciseReads` for ``request``."""
        return PreciseReads(self.context, request.request_id)

    def effective_component_qos(
        self, composition: ComponentGraph, reads: PreciseReads
    ) -> Dict[int, QoSVector]:
        """Per-placement effective QoS under live load (the precise view)."""
        return {
            index: reads.qos(composition.component(index))
            for index in range(len(composition.request.function_graph))
        }

    def worst_effective_qos(
        self, composition: ComponentGraph, reads: PreciseReads
    ) -> QoSVector:
        """Critical-path QoS under the load-dependent model (live state)."""
        return composition.worst_path_qos(
            self.effective_component_qos(composition, reads)
        )

    def judge(
        self, composition: ComponentGraph, reads: PreciseReads
    ) -> Union[str, float]:
        """Eqs. 3–5, then Eq. 1, against precise state.

        Returns the first failure reason, in this order: ``qos_violation``
        (a source-to-sink path misses the requirement under the
        load-dependent model at live host state), ``node_resources`` (a
        node's availability cannot cover the summed demand of the request's
        placements on it), ``link_bandwidth`` (an overlay link cannot carry
        the summed bandwidth of the virtual links crossing it).  A
        qualified composition returns its φ(λ) over live link bandwidth and
        pre-request node availability.
        """
        if not composition.qos_satisfied(
            self.effective_component_qos(composition, reads)
        ):
            return "qos_violation"
        node_demand, link_demand = composition.demand()
        for node_id, demand in node_demand.items():
            if not reads.available(node_id).covers(demand):
                return "node_resources"
        network = self.context.network
        for link_id, kbps in link_demand.items():
            if network.link(link_id).available_kbps < kbps - 1e-9:
                return "link_bandwidth"

        def link_available(edge: Tuple[int, int]) -> float:
            return network.path_available_bw(
                composition.virtual_link(edge).overlay_link_ids
            )

        return composition.congestion_aggregation(reads.available, link_available)

    def qualify_and_rank(
        self, request: StreamRequest, compositions: Sequence[ComponentGraph]
    ) -> Tuple[
        Optional[ComponentGraph], Optional[float], List[Tuple[float, ComponentGraph]]
    ]:
        """Filter qualified compositions and return the φ-minimal one.

        Returns ``(best, best_phi, qualified_list)``; the list holds
        ``(phi, composition)`` pairs for callers that select differently
        (the SP baseline picks at random among the qualified).

        All candidate compositions belong to ``request``, and nothing
        mutates node or link state during qualification, so one
        :class:`PreciseReads` serves the whole beam.
        """
        reads = self.reads(request)
        qualified: List[Tuple[float, ComponentGraph]] = []
        for composition in compositions:
            verdict = self.judge(composition, reads)
            if not isinstance(verdict, str):
                qualified.append((verdict, composition))
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
