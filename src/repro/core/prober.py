"""Hop-by-hop composition probing (Section 3.3, Fig. 3).

:class:`ProbingComposer` implements the distributed probing protocol as a
level-synchronised wavefront over the request's function graph in
topological order — which is exactly how the distributed protocol's probes
advance, since a probe only reaches a function once all of that function's
predecessors are assigned.  Per function placement the prober:

1. enumerates candidate components (service discovery);
2. drops interface-incompatible and — for global-state-guided variants —
   unqualified candidates (Eqs. 6–8 against the coarse-grain state);
3. selects up to M = ⌈α·k⌉ expansions, either by the (risk, congestion)
   ranking of Section 3.5 (*guided*) or uniformly at random (*random*, the
   RP baseline);
4. "sends" a probe to each selected candidate: one message, a precise
   on-arrival conformance check against live local state, transient
   resource reservation (footnote 7), and state collection into the child
   probe.

Completed probes return to the deputy, which merges DAG branches (implicit
in the wavefront: each surviving probe carries a complete assignment),
qualifies compositions against the precise collected states (Eqs. 2–5),
and picks the φ-minimal one (*phi*) — or a random qualified one (*random*,
the SP baseline).

The three paper variants are thin configurations of this class:

================  ============  ==============  ===========
variant           hop policy    global state    final policy
================  ============  ==============  ===========
ACP               guided        yes             phi
SP  (selective)   guided        yes             random
RP  (random)      random        no              phi
================  ============  ==============  ===========
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.observability.hotpath import hot_path
from repro.observability.recorder import wall_clock as perf_counter

from repro.core.composer import Composer, CompositionContext, CompositionOutcome
from repro.core.control import delay_slack_ms
from repro.core.probe import Probe, ProbeFactory
from repro.core.selection import RankingPolicy, ScoredCandidate, probe_budget
from repro.model.request import StreamRequest
from repro.model.resources import ResourceVector


class HopSelectionPolicy(enum.Enum):
    """How per-hop candidates are picked under the probing ratio."""

    GUIDED = "guided"  # risk/congestion ranking on coarse-grain global state
    RANDOM = "random"  # uniform choice (no global state), the RP baseline


class FinalSelectionPolicy(enum.Enum):
    """How the deputy picks among qualified complete compositions."""

    PHI = "phi"  # congestion-aggregation minimum (Eq. 1)
    RANDOM = "random"  # uniform qualified choice, the SP baseline


class ProbingComposer(Composer):
    """The composition-probing protocol with configurable policies."""

    name = "Probing"

    def __init__(
        self,
        context: CompositionContext,
        probing_ratio: float = 0.3,
        hop_policy: HopSelectionPolicy = HopSelectionPolicy.GUIDED,
        final_policy: FinalSelectionPolicy = FinalSelectionPolicy.PHI,
        use_global_state: bool = True,
        ratio_provider: Optional[Callable[[], float]] = None,
        ranking_policy: RankingPolicy = RankingPolicy.RISK_THEN_CONGESTION,
    ) -> None:
        super().__init__(context)
        if not 0.0 < probing_ratio <= 1.0:
            raise ValueError(f"probing ratio must be in (0, 1], got {probing_ratio}")
        self.probing_ratio = probing_ratio
        self.hop_policy = hop_policy
        self.final_policy = final_policy
        self.use_global_state = use_global_state
        self._ratio_provider = ratio_provider
        self.ranking_policy = ranking_policy

    # -- knobs -------------------------------------------------------------

    def current_probing_ratio(self) -> float:
        """The ratio used for the next request (the tuner may override)."""
        if self._ratio_provider is not None:
            return self._ratio_provider()
        return self.probing_ratio

    # -- the protocol ---------------------------------------------------------

    @hot_path(budget="O(levels × P × M)")
    def compose(self, request: StreamRequest) -> CompositionOutcome:
        """Run the probing wavefront for one request (Fig. 3's protocol)."""
        context = self.context
        graph = request.function_graph
        ratio = self.current_probing_ratio()
        rates = graph.input_rates(request.stream_rate)
        factory = ProbeFactory()
        beam: List[Probe] = [factory.initial(request, ratio)]
        probe_messages = 0
        explored = 0
        # one enabled check per compose; every further instrumentation
        # site branches on this local so the disabled path costs a branch
        recorder = context.recorder
        observing = recorder.enabled
        if observing:
            recorder.emit(
                "probe.start",
                request_id=request.request_id,
                algorithm=self.name,
                ratio=ratio,
                functions=len(graph),
            )
            compose_start = perf_counter()
        scorer = context.fast_scorer()
        scorer.begin_request(request)

        for function_index in graph.topological_order():
            function = graph.node(function_index).function
            candidates = context.registry.candidates(function)
            if not candidates:
                return self._fail(
                    request,
                    "no_candidates",
                    probe_messages=probe_messages,
                    explored=explored,
                )
            budget = self._function_budget(request, ratio, len(candidates))
            predecessors = graph.predecessors(function_index)
            requirement = request.requirement_for(function_index)
            input_rate = rates[function_index]
            if observing:
                level_start = perf_counter()
                beam_in = len(beam)

            explored += len(beam) * len(candidates)
            level = scorer.score_level(
                request,
                beam,
                function.function_id,
                candidates,
                function_index,
                predecessors,
                requirement,
                input_rate,
                self.use_global_state,
            )
            if level.size == 0:
                return self._fail(
                    request,
                    "no_qualified_candidates",
                    probe_messages=probe_messages,
                    explored=explored,
                )
            if self.hop_policy is HopSelectionPolicy.GUIDED:
                selected = level.select_best(budget, ranking=self.ranking_policy)
            else:
                # rng.sample draws by position only, so sampling pool
                # indices consumes the same randomness as sampling a
                # materialised pool list in the same order
                selected = level.take(
                    context.rng.sample(range(level.size), min(budget, level.size))
                )

            if observing:
                score_elapsed = perf_counter() - level_start
                dispatch_start = perf_counter()
            beam, sent = self._dispatch_probes(
                request, factory, selected, function_index, predecessors, requirement
            )
            probe_messages += sent  # one message per delivery attempt
            if observing:
                recorder.observe("phase.score_level", score_elapsed)
                recorder.observe(
                    "phase.dispatch", perf_counter() - dispatch_start
                )
                recorder.inc("probe.messages", sent)
                dropped = len(selected) - len(beam)
                recorder.emit(
                    "probe.level",
                    request_id=request.request_id,
                    function=function_index,
                    beam=beam_in,
                    candidates=len(candidates),
                    budget=budget,
                    selected=len(selected),
                    survivors=len(beam),
                    dropped=dropped,
                )
                if dropped:
                    # probes pruned by precise on-arrival checks (Eqs. 6-8)
                    recorder.inc("probe.pruned", dropped)
            if not beam:
                return self._fail(
                    request,
                    "probes_dropped",
                    probe_messages=probe_messages,
                    explored=explored,
                )

        probe_messages += len(beam)  # completed probes return to the deputy
        if not observing:
            return self._final_selection(request, beam, probe_messages, explored)
        final_start = perf_counter()
        outcome = self._final_selection(request, beam, probe_messages, explored)
        now = perf_counter()
        recorder.observe("phase.final_selection", now - final_start)
        recorder.observe("phase.compose", now - compose_start)
        if outcome.success:
            recorder.emit(
                "probe.commit",
                request_id=request.request_id,
                algorithm=self.name,
                phi=outcome.phi,
                probe_messages=outcome.probe_messages,
                setup_messages=outcome.setup_messages,
                explored=outcome.explored,
            )
        return outcome

    def _function_budget(
        self, request: StreamRequest, ratio: float, candidate_count: int
    ) -> int:
        """How many candidates to probe for one function: M = ⌈α·k⌉.

        Subclasses may bound differently (see
        :class:`~repro.core.bounded.BoundedProbingComposer`).
        """
        return probe_budget(ratio, candidate_count)

    # -- probe travel ----------------------------------------------------------

    def _dispatch_probes(
        self,
        request: StreamRequest,
        factory: ProbeFactory,
        selected: List[ScoredCandidate],
        function_index: int,
        predecessors: Tuple[int, ...],
        requirement: ResourceVector,
    ) -> Tuple[List[Probe], int]:
        """Send probes to selected candidates: control-channel delivery,
        precise on-arrival checks, transient reservation, state collection.

        Every probe message travels through ``context.control`` — the only
        legal delivery seam.  On a lossless channel each candidate costs
        exactly one message, matching the historical accounting.  On a
        lossy channel the probe is re-sent up to ``channel.max_retries``
        times, but only while the cumulative control-plane delay stays
        within the probe's remaining QoS delay slack — a candidate whose
        accumulated delay already sits near the requirement cannot afford
        retries.  Returns ``(surviving probes, messages spent)``.
        """
        context = self.context
        channel = context.control
        lossless = channel.lossless
        recorder = context.recorder
        observing = recorder.enabled
        survivors: List[Probe] = []
        messages = 0
        if lossless:
            # fast path: no retry machinery, identical to the pre-channel
            # behaviour of one message per spawned probe
            messages = len(selected)
            channel.messages_sent += messages
        now = context.clock()
        for entry in selected:
            parent: Probe = entry.parent
            candidate = entry.candidate
            if not lossless:
                slack_ms = delay_slack_ms(
                    entry.accumulated_qos, request.qos_requirement
                )
                delivered = False
                spent_ms = 0.0
                for _attempt in range(1 + channel.max_retries):
                    messages += 1
                    ok, delay_ms = channel.send()
                    spent_ms += delay_ms
                    if spent_ms > slack_ms + 1e-9:
                        break  # control delay ate the deadline budget
                    if ok:
                        delivered = True
                        break
                if not delivered:
                    if observing:
                        recorder.inc("probe.lost")
                        recorder.emit(
                            "probe.lost",
                            request_id=request.request_id,
                            function=function_index,
                            node=candidate.node_id,
                            attempts=_attempt + 1,
                        )
                    continue  # probe (and all retries) lost in transit
            observed_bw: Dict[Tuple[int, int], float] = {}
            feasible = True
            for predecessor in predecessors:
                upstream = parent.assignment[predecessor]
                # the bounded neighbourhood tree answers member pairs in
                # O(k); the router figure is the fallback (and the value
                # is the router's either way, byte-for-byte)
                live_bw = context.live_available_bandwidth(
                    upstream.node_id, candidate.node_id
                )
                observed_bw[(predecessor, function_index)] = live_bw
                if live_bw < request.bandwidth_for(
                    (predecessor, function_index)
                ) - 1e-9:
                    feasible = False
            if not feasible:
                continue  # probe dropped on arrival (precise Eq. 8)
            # re-accumulate QoS with the candidate's *precise* effective
            # values; the stale-guided estimate got the probe here, the
            # live check decides whether it survives (Eq. 6).  The
            # through-link part was already accumulated at scoring time
            # (ScoredCandidate.pre_qos); only the candidate itself differs
            # between the stale estimate and the live view.
            precise_qos = context.precise_component_qos(candidate)
            if predecessors:
                accumulated = entry.pre_qos.combine(precise_qos)
            else:
                accumulated = precise_qos
            if not accumulated.satisfies(request.qos_requirement):
                continue  # probe dropped on arrival (precise Eq. 6)
            observed_available = context.allocator.available_excluding(
                request.request_id, candidate.node_id
            )
            reserved = context.allocator.reserve_component(
                request.request_id, candidate, requirement, now=now
            )
            if not reserved:
                continue  # probe dropped on arrival (precise Eq. 7)
            survivors.append(
                parent.spawn(
                    factory.next_id(),
                    function_index,
                    candidate,
                    accumulated,
                    observed_available,
                    observed_bw,
                )
            )
        return survivors, messages

    # -- deputy final selection ---------------------------------------------------

    def _final_selection(
        self,
        request: StreamRequest,
        beam: List[Probe],
        probe_messages: int,
        explored: int,
    ) -> CompositionOutcome:
        evaluator = self.evaluator
        compositions = [
            evaluator.build_component_graph(request, probe.assignment)
            for probe in beam
        ]
        best, best_phi, qualified = evaluator.qualify_and_rank(compositions)
        if best is None:
            return self._fail(
                request,
                "no_qualified_composition",
                probe_messages=probe_messages,
                explored=explored,
            )
        if self.final_policy is FinalSelectionPolicy.RANDOM:
            best_phi, best = qualified[self.context.rng.randrange(len(qualified))]
        return CompositionOutcome(
            request=request,
            composition=best,
            success=True,
            probe_messages=probe_messages,
            setup_messages=self._setup_messages(best),
            explored=explored,
            phi=best_phi,
        )
