"""Proactive reconfiguration: hotspot-driven live session migration.

The watermark machinery in :mod:`repro.placement.migration` moves
*deployable instances* — it changes which placements future compositions
can pick, and never touches a running session.  Under sustained load
drift (diurnal curves, flash crowds) that is not enough: sessions stay
pinned to the nodes where they were admitted, and a hot node stays hot
until its sessions drain.  This module closes the paper's future-work
direction 3 at the session level, treating migration as a *planned,
cost-priced* operation rather than a fault:

* :class:`HotspotDetector` — consumes the observability layer's
  per-round signals (the same worst-dimension utilisation the watermark
  policy reads, plus the metrics layer's per-window admission pressure)
  and flags **sustained** hot nodes: an EWMA of utilisation must sit
  above the high watermark for ``sustain_rounds`` consecutive rounds.
  One instantaneous spike never triggers a migration.
* :class:`LiveSessionMigrationManager` — per round, picks victim
  sessions on sustained-hot nodes, partially re-composes *only* the
  affected placements onto cool nodes through the shared
  :class:`~repro.core.composer.CompositionEvaluator` (interface
  compatibility, Eqs. 3–5 feasibility, φ ranking — exactly the machinery
  admission uses), and prices every move with a **migration cost model**:
  the state-transfer pause is proportional to the session's accumulated
  state, plus one re-setup handshake along the new composition's critical
  path.  The paused-stream penalty is charged against the session's
  remaining QoS slack (:func:`~repro.core.control.delay_slack_ms`); a
  migration that would blow the slack is rejected — graceful degradation,
  surfaced as ``migrations_aborted_on_slack``.

Execution goes through the session middleware's
:meth:`~repro.middleware.session.SessionManager.begin_migration` /
:meth:`~repro.middleware.session.SessionManager.complete_migration`
pair: the session holds exactly one committed allocation at every
instant, and a fault or lifetime expiry mid-transfer supersedes the
migration cleanly (the pending commit no-ops).

A zero plan (:meth:`MigrationPlan.none`) builds no manager, draws no
randomness, and leaves runs byte-identical to a migration-free spec —
the same invisibility contract :class:`~repro.simulation.failures.FaultPlan`
honours.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.composer import CompositionContext, CompositionEvaluator
from repro.core.control import delay_slack_ms
from repro.middleware.session import SessionManager, StreamSession
from repro.model.component import Component
from repro.model.component_graph import ComponentGraph
from repro.model.node import Node
from repro.model.qos_model import LoadDependentQoSModel
from repro.observability import NULL_RECORDER, Recorder


@dataclass(frozen=True)
class LiveMigrationPolicy:
    """Knobs of the hotspot detector and the migration cost model.

    Attributes:
        ewma_alpha: Smoothing factor of the per-node utilisation EWMA
            (1.0 = instantaneous, the detector degenerates to a spike
            detector).
        high_watermark: A node is *hot* while its EWMA utilisation
            exceeds this.
        low_watermark: Only nodes whose EWMA utilisation is at or below
            this receive migrated placements (the cool pool).
        sustain_rounds: Consecutive rounds the EWMA must sit above the
            high watermark before a node is flagged — the sustained-
            hotspot filter.
        min_admission_pressure: Optional gate on the metrics layer's
            per-window admission pressure: rounds whose last closed
            window rejected a smaller fraction of requests for
            contention do not advance hot streaks (0.0 disables the
            gate).
        max_session_migrations_per_round: Round-level churn cap across
            all hot nodes; 0 disables live migration entirely (the zero
            plan).
        candidate_sample: Candidate components probed per affected
            placement, sampled from the cool pool with the manager's
            dedicated rng (the ACP-style probing ratio of the migration
            planner).
        state_kb_per_unit: Retained operator state per processed data
            unit, in kilobits — accumulated state grows with the
            session's lifetime throughput.
        transfer_kbps: State-transfer bandwidth between the old and new
            hosts; pause time is state size divided by this.
        pause_slack_fraction: Fraction of the session's remaining QoS
            delay slack the paused stream may consume; a plan whose
            pause exceeds ``fraction × slack`` is rejected.
    """

    ewma_alpha: float = 0.3
    high_watermark: float = 0.75
    low_watermark: float = 0.45
    sustain_rounds: int = 3
    min_admission_pressure: float = 0.0
    max_session_migrations_per_round: int = 4
    candidate_sample: int = 4
    state_kb_per_unit: float = 0.05
    transfer_kbps: float = 100_000.0
    pause_slack_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if not 0.0 < self.low_watermark < self.high_watermark <= 1.0:
            raise ValueError(
                "need 0 < low_watermark < high_watermark <= 1, got "
                f"{self.low_watermark}, {self.high_watermark}"
            )
        if self.sustain_rounds < 1:
            raise ValueError(
                f"sustain_rounds must be >= 1, got {self.sustain_rounds}"
            )
        if not 0.0 <= self.min_admission_pressure <= 1.0:
            raise ValueError(
                "min_admission_pressure must be in [0, 1], got "
                f"{self.min_admission_pressure}"
            )
        if self.max_session_migrations_per_round < 0:
            raise ValueError(
                "max_session_migrations_per_round must be >= 0, got "
                f"{self.max_session_migrations_per_round}"
            )
        if self.candidate_sample < 1:
            raise ValueError(
                f"candidate_sample must be >= 1, got {self.candidate_sample}"
            )
        if self.state_kb_per_unit < 0.0:
            raise ValueError(
                f"state_kb_per_unit must be non-negative, got "
                f"{self.state_kb_per_unit}"
            )
        if self.transfer_kbps <= 0.0:
            raise ValueError(
                f"transfer_kbps must be positive, got {self.transfer_kbps}"
            )
        if not 0.0 < self.pause_slack_fraction <= 1.0:
            raise ValueError(
                "pause_slack_fraction must be in (0, 1], got "
                f"{self.pause_slack_fraction}"
            )


@dataclass(frozen=True)
class MigrationPlan:
    """Declarative live-migration configuration for one run.

    Attached to a :class:`~repro.experiments.config.RunSpec` via
    ``with_migration``; the zero plan (:meth:`none`) is byte-identical
    to running with no migration manager at all.
    """

    policy: LiveMigrationPolicy = field(default_factory=LiveMigrationPolicy)
    #: rebalance round period in simulated seconds
    period_s: float = 60.0

    def __post_init__(self) -> None:
        if self.period_s <= 0.0:
            raise ValueError(f"period_s must be positive, got {self.period_s}")

    @classmethod
    def none(cls) -> "MigrationPlan":
        """The zero plan: detection and migration both disabled."""
        return cls(
            policy=LiveMigrationPolicy(max_session_migrations_per_round=0)
        )

    @property
    def is_zero(self) -> bool:
        return self.policy.max_session_migrations_per_round == 0


@dataclass(frozen=True)
class SessionMigrationRecord:
    """One committed-to-transfer live migration (diagnostics)."""

    time: float
    session_id: int
    hot_node: int
    #: per-placement moves: (function_index, from_node, to_node)
    moved: Tuple[Tuple[int, int, int], ...]
    #: paused-stream time charged by the cost model, in seconds
    pause_s: float


class HotspotDetector:
    """Sustained-hotspot detection over per-round utilisation EWMAs."""

    def __init__(
        self,
        policy: LiveMigrationPolicy = LiveMigrationPolicy(),
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.policy = policy
        self.recorder = recorder
        self._ewma: Dict[int, float] = {}
        self._streak: Dict[int, int] = {}
        #: rebalance rounds observed
        self.rounds = 0

    @staticmethod
    def _utilization(node: Node) -> float:
        return LoadDependentQoSModel.utilization(node.available, node.capacity)

    def observe(
        self, nodes: Tuple[Node, ...], admission_pressure: float = 0.0
    ) -> None:
        """Fold one round of utilisation gauges into the EWMAs.

        ``admission_pressure`` is the metrics layer's last closed-window
        contention fraction; when the policy gates on it, low-pressure
        rounds reset no streaks but do not advance them either — hot
        streaks only grow while the system is actually turning requests
        away.
        """
        alpha = self.policy.ewma_alpha
        pressured = admission_pressure >= self.policy.min_admission_pressure
        for node in nodes:
            if not node.alive:
                # a crashed node serves nothing; its streak dies with it
                self._ewma.pop(node.node_id, None)
                self._streak.pop(node.node_id, None)
                continue
            utilization = self._utilization(node)
            previous = self._ewma.get(node.node_id)
            ewma = (
                utilization
                if previous is None
                else alpha * utilization + (1.0 - alpha) * previous
            )
            self._ewma[node.node_id] = ewma
            if ewma > self.policy.high_watermark and pressured:
                self._streak[node.node_id] = (
                    self._streak.get(node.node_id, 0) + 1
                )
            elif ewma <= self.policy.high_watermark:
                self._streak[node.node_id] = 0
        self.rounds += 1
        if self.recorder.enabled:
            self.recorder.set_gauge(
                "migration.hot_nodes", float(len(self.hot_nodes()))
            )

    def ewma(self, node_id: int) -> float:
        """Smoothed utilisation of a node (0.0 before the first round)."""
        return self._ewma.get(node_id, 0.0)

    def hot_nodes(self) -> List[int]:
        """Sustained-hot node ids, hottest EWMA first (ties by id)."""
        hot = [
            node_id
            for node_id, streak in self._streak.items()
            if streak >= self.policy.sustain_rounds
        ]
        hot.sort(key=lambda node_id: (-self._ewma[node_id], node_id))
        return hot

    def is_cool(self, node_id: int) -> bool:
        """Whether a node belongs to the migration target pool."""
        return self.ewma(node_id) <= self.policy.low_watermark


class LiveSessionMigrationManager:
    """Plans and executes cost-priced live session migrations."""

    def __init__(
        self,
        context: CompositionContext,
        plan: MigrationPlan,
        rng: random.Random,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.context = context
        self.plan = plan
        self.policy = plan.policy
        self.period_s = plan.period_s
        self.rng = rng
        self.recorder = recorder
        self.evaluator = CompositionEvaluator(context)
        self.detector = HotspotDetector(plan.policy, recorder=recorder)
        self._sessions: Optional[SessionManager] = None
        self._records: List[SessionMigrationRecord] = []
        #: migrations rejected because the pause would blow the QoS slack
        self.migrations_aborted_on_slack = 0
        #: victims skipped for lack of a feasible cool-node re-composition
        self.migrations_skipped_no_target = 0
        #: paused-stream seconds charged across committed transfers
        self.migration_paused_stream_s = 0.0
        #: probe messages spent evaluating migration candidates
        self.migration_probe_messages = 0

    def bind_sessions(self, sessions: SessionManager) -> None:
        """Attach the session table the manager migrates (the simulator
        calls this once at construction)."""
        self._sessions = sessions

    @property
    def records(self) -> Tuple[SessionMigrationRecord, ...]:
        return tuple(self._records)

    @property
    def migrations_started(self) -> int:
        return len(self._records)

    # -- the round ----------------------------------------------------------

    def run_round(
        self, now: float, admission_pressure: float = 0.0
    ) -> List[SessionMigrationRecord]:
        """One rebalance round: observe, detect, plan, execute.

        Returns the migrations whose state transfer started this round;
        the caller schedules each one's commit ``pause_s`` later.  The
        detector observes every round (pure reads — no decisions change
        while no node is sustained-hot), so streaks build continuously.
        """
        if self._sessions is None:
            raise RuntimeError(
                "bind_sessions() must be called before run_round()"
            )
        self.detector.observe(
            self.context.network.nodes, admission_pressure=admission_pressure
        )
        budget = self.policy.max_session_migrations_per_round
        if budget == 0:
            return []
        hot = self.detector.hot_nodes()
        if not hot:
            return []
        if self.recorder.enabled:
            self.recorder.emit(
                "migration.plan",
                time=now,
                hot_nodes=tuple(hot),
                budget=budget,
            )
        performed: List[SessionMigrationRecord] = []
        for hot_node in hot:
            if len(performed) >= budget:
                break
            # cheapest accumulated state first: young sessions transfer
            # fastest, so the round relieves the node with the least
            # paused-stream time (ties broken by session id)
            victims = sorted(
                self._sessions.sessions_using_node(hot_node),
                key=lambda s: (self._accumulated_units(s, now), s.session_id),
            )
            for victim in victims:
                if len(performed) >= budget:
                    break
                record = self._try_migrate(victim, hot_node, now)
                if record is not None:
                    performed.append(record)
        self._records.extend(performed)
        return performed

    # -- the cost model -----------------------------------------------------

    def _accumulated_units(self, session: StreamSession, now: float) -> float:
        """Data units the session has carried: explicit Process() batches
        plus the continuous stream its admitted rate implies."""
        age_s = max(0.0, now - session.created_at)
        return session.units_processed + session.request.stream_rate * age_s

    def _pause_s(
        self, session: StreamSession, composition: ComponentGraph, now: float
    ) -> float:
        """Paused-stream time: state transfer plus one re-setup handshake
        (probe out + confirmation back) along the new critical path."""
        state_kb = (
            self._accumulated_units(session, now) * self.policy.state_kb_per_unit
        )
        transfer_s = state_kb / self.policy.transfer_kbps
        handshake_s = 2.0 * composition.worst_link_delay_ms() / 1000.0
        return transfer_s + handshake_s

    # -- planning -----------------------------------------------------------

    def _candidate_pool(
        self, current: Component, hot_node: int
    ) -> List[Component]:
        """Cool-node candidates for one affected placement, id-ordered."""
        pool = [
            candidate
            for candidate in self.context.registry.candidates(current.function)
            if candidate.node_id != hot_node
            and candidate.component_id != current.component_id
            and self.context.network.node(candidate.node_id).alive
            and self.detector.is_cool(candidate.node_id)
        ]
        pool.sort(key=lambda candidate: candidate.component_id)
        return pool

    def _try_migrate(
        self, session: StreamSession, hot_node: int, now: float
    ) -> Optional[SessionMigrationRecord]:
        request = session.request
        graph = request.function_graph
        # nothing allocates or fails until begin_migration, so one set of
        # live reads serves the whole planning pass
        reads = self.evaluator.reads(request)
        assignment = {
            index: session.composition.component(index)
            for index in range(len(graph))
        }
        affected = [
            index
            for index in range(len(graph))
            if assignment[index].node_id == hot_node
        ]
        moved: List[Tuple[int, int, int]] = []
        sample = self.policy.candidate_sample
        for index in affected:
            pool = self._candidate_pool(assignment[index], hot_node)
            if len(pool) > sample:
                pool = sorted(
                    self.rng.sample(pool, sample),
                    key=lambda candidate: candidate.component_id,
                )
            best: Optional[Tuple[float, int, Component]] = None
            for candidate in pool:
                self.migration_probe_messages += 1
                trial = dict(assignment)
                trial[index] = candidate
                if not self.evaluator.interface_compatible(request, trial):
                    continue
                composition = self.evaluator.build_component_graph(
                    request, trial
                )
                verdict = self.evaluator.judge(composition, reads)
                if isinstance(verdict, str):
                    continue
                key = (verdict, candidate.component_id, candidate)
                if best is None or key[:2] < best[:2]:
                    best = key
            if best is None:
                self.migrations_skipped_no_target += 1
                if self.recorder.enabled:
                    self.recorder.emit(
                        "migration.abort",
                        session_id=session.session_id,
                        reason="no_cool_target",
                        function_index=index,
                    )
                return None
            moved.append((index, hot_node, best[2].node_id))
            assignment[index] = best[2]
        if not moved:
            return None

        composition = self.evaluator.build_component_graph(request, assignment)
        pause_s = self._pause_s(session, composition, now)
        slack_ms = delay_slack_ms(
            self.evaluator.worst_effective_qos(composition, reads),
            request.qos_requirement,
        )
        budget_ms = self.policy.pause_slack_fraction * slack_ms
        if pause_s * 1000.0 > budget_ms:
            # graceful degradation: the paused stream would blow the
            # session's QoS slack, so the hotspot is left alone
            self.migrations_aborted_on_slack += 1
            if self.recorder.enabled:
                self.recorder.emit(
                    "migration.abort",
                    session_id=session.session_id,
                    reason="qos_slack",
                    pause_ms=pause_s * 1000.0,
                    slack_ms=slack_ms,
                )
                self.recorder.inc("migration.aborted_on_slack")
            return None

        assert self._sessions is not None
        if not self._sessions.begin_migration(
            session.session_id, composition, pause_s
        ):
            return None
        self.migration_paused_stream_s += pause_s
        record = SessionMigrationRecord(
            time=now,
            session_id=session.session_id,
            hot_node=hot_node,
            moved=tuple(moved),
            pause_s=pause_s,
        )
        if self.recorder.enabled:
            self.recorder.inc("migration.transfers")
        return record
