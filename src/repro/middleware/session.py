"""Session-oriented stream processing middleware (Section 2.2).

The paper's middleware interface:

* ``sessionId = Find(ξ, Q_req, R_req)`` — "invokes the optimal component
  composition algorithm to find the best component graph.  If the
  composition is successful, the middleware creates a session record with
  a session identifier ... Otherwise, a null sessionId is returned."
* ``Process(sessionId, data streams)`` — "starts the continuous data
  stream processing using the application's component graph."
* ``Close(sessionId)`` — "tears down the stream processing session ...
  The corresponding session information is deleted from the session
  table."

:class:`SessionManager` implements exactly that on top of a composer and
the allocator.  ``process`` additionally reports what the composed
application would do to a batch of data units (output rate from the
per-stage selectivities, expected end-to-end delay and loss from the
composition's QoS aggregation) — the observable behaviour examples and
integration tests assert on.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from repro.allocation.allocator import AdmissionError, ResourceAllocator, SessionAllocation
from repro.core.composer import Composer, CompositionOutcome
from repro.model.component_graph import ComponentGraph
from repro.model.request import StreamRequest
from repro.observability import NULL_RECORDER, Recorder


class SessionState(enum.Enum):
    COMPOSED = "composed"
    PROCESSING = "processing"
    #: disrupted by a fault; awaiting re-composition against live topology
    RECOVERING = "recovering"
    #: stream paused while accumulated state transfers to a new placement
    MIGRATING = "migrating"
    CLOSED = "closed"
    FAILED = "failed"


class SessionError(RuntimeError):
    """Raised on operations against unknown, closed, or recovering sessions."""


@dataclass(frozen=True)
class RecoveryPolicy:
    """Crash-triggered re-composition policy.

    When attached to a :class:`SessionManager`, sessions disrupted by a
    fault enter ``RECOVERING`` instead of being killed outright: their old
    resources are released immediately and :meth:`SessionManager.recover_pending`
    re-composes them against the live topology.  A session that cannot be
    re-admitted within ``recovery_deadline_s`` of its disruption falls back
    to the clean kill of the legacy behaviour.

    ``detection_delay_s`` models the failure-detection lag: the simulator
    waits that long after a fault round before running the first recovery
    sweep, so recovery latency is never optimistically zero.
    """

    recovery_deadline_s: float = 30.0
    detection_delay_s: float = 2.0

    def __post_init__(self) -> None:
        if self.recovery_deadline_s <= 0.0:
            raise ValueError(
                f"recovery_deadline_s must be positive, got {self.recovery_deadline_s}"
            )
        if self.detection_delay_s < 0.0:
            raise ValueError(
                f"detection_delay_s must be non-negative, got {self.detection_delay_s}"
            )


@dataclass
class ProcessingResult:
    """What one Process() call did to a batch of data units."""

    session_id: int
    units_in: float
    units_out: float
    expected_delay_ms: float
    expected_loss_rate: float


@dataclass
class StreamSession:
    """One live stream processing session (a session-table record)."""

    session_id: int
    request: StreamRequest
    composition: ComponentGraph
    allocation: SessionAllocation
    state: SessionState
    created_at: float
    units_processed: float = 0.0
    #: simulated time the session entered RECOVERING (None while healthy)
    recovering_since: Optional[float] = None
    #: completed fault recoveries over the session's lifetime
    recoveries: int = 0
    #: simulated time the paused stream resumes (None unless MIGRATING)
    migrating_until: Optional[float] = None
    #: completed live migrations over the session's lifetime
    migrations: int = 0


class SessionManager:
    """The Find / Process / Close middleware over one composer."""

    def __init__(
        self,
        composer: Composer,
        allocator: ResourceAllocator,
        clock: Callable[[], float] = lambda: 0.0,
        recorder: Recorder = NULL_RECORDER,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> None:
        self.composer = composer
        self.allocator = allocator
        self.clock = clock
        self.recorder = recorder
        #: None keeps the legacy fail-fast behaviour: faults kill sessions
        self.recovery = recovery
        self._sessions: Dict[int, StreamSession] = {}
        self._session_ids = itertools.count(1)
        #: sessions ever created (the session id counter never reuses ids)
        self.sessions_created = 0
        #: sessions hit by a fault (killed outright or sent to RECOVERING)
        self.sessions_disrupted = 0
        #: disrupted sessions re-admitted by recover_pending()
        self.sessions_recovered = 0
        #: disrupted sessions permanently lost (legacy kills, deadline
        #: expiries, and sessions whose lifetime ended while recovering)
        self.sessions_killed = 0
        #: probe messages spent on recovery re-compositions
        self.recovery_probe_messages = 0
        #: summed disruption->re-admission latency of recovered sessions
        self.recovery_latency_total_s = 0.0
        #: live migrations committed (stream resumed on the new placement)
        self.sessions_migrated = 0
        #: live migrations rolled back at admission (the target filled up
        #: between planning and execution)
        self.migrations_rolled_back = 0

    # -- Find --------------------------------------------------------------

    def find(
        self, request: StreamRequest
    ) -> Tuple[Optional[int], CompositionOutcome]:
        """Compose and admit ``request``; returns (sessionId | None, outcome).

        A None session id indicates composition failure — either no
        qualified composition was found, or (in a concurrent deployment)
        the admission lost a race after probing.
        """
        outcome = self.composer.compose(request)
        if not outcome.success or outcome.composition is None:
            self.allocator.cancel_transient(request.request_id)
            return None, outcome
        try:
            allocation = self.allocator.commit(outcome.composition)
        except AdmissionError:
            self.allocator.cancel_transient(request.request_id)
            if self.recorder.enabled:
                self.recorder.emit(
                    "session.admission_race", request_id=request.request_id
                )
            # the composer's outcome object must stay untouched — other
            # holders (metrics, diagnostics) would silently see a
            # composition flip to failed under them
            failed = replace(
                outcome,
                success=False,
                composition=None,
                phi=None,
                failure_reason="admission_race",
            )
            return None, failed
        session_id = next(self._session_ids)
        self._sessions[session_id] = StreamSession(
            session_id=session_id,
            request=request,
            composition=outcome.composition,
            allocation=allocation,
            state=SessionState.COMPOSED,
            created_at=self.clock(),
        )
        self.sessions_created += 1
        if self.recorder.enabled:
            self.recorder.emit(
                "session.open",
                session_id=session_id,
                request_id=request.request_id,
                phi=outcome.phi,
            )
        return session_id, outcome

    # -- Process -------------------------------------------------------------

    def process(self, session_id: int, units_in: float) -> ProcessingResult:
        """Push ``units_in`` data units through the session's composition."""
        session = self._get_open(session_id)
        if units_in < 0.0:
            raise ValueError(f"units_in must be non-negative, got {units_in}")
        session.state = SessionState.PROCESSING
        graph = session.request.function_graph
        # output volume: per-unit, the product of selectivities along the
        # rate propagation; reuse the graph's rate algebra with the batch
        # size standing in for the rate.
        if units_in > 0.0:
            rates = graph.input_rates(units_in)
            units_out = sum(
                graph.node(sink).function.output_rate(rates[sink])
                for sink in graph.sinks()
            )
        else:
            units_out = 0.0
        evaluator = self.composer.evaluator
        worst_qos = evaluator.worst_effective_qos(
            session.composition, evaluator.reads(session.request)
        )
        loss = worst_qos.loss_rate
        result = ProcessingResult(
            session_id=session_id,
            units_in=units_in,
            units_out=units_out * (1.0 - loss),
            expected_delay_ms=worst_qos.delay,
            expected_loss_rate=loss,
        )
        session.units_processed += units_in
        return result

    # -- Close ----------------------------------------------------------------

    def close(self, session_id: int) -> None:
        """Tear down the session and delete its record."""
        self._close(self._get_open(session_id))

    def _close(self, session: StreamSession) -> None:
        self.allocator.release(session.allocation)
        session.state = SessionState.CLOSED
        session.migrating_until = None
        del self._sessions[session.session_id]
        if self.recorder.enabled:
            self.recorder.emit(
                "session.close",
                session_id=session.session_id,
                lifetime_s=self.clock() - session.created_at,
            )

    def close_or_abandon(self, session_id: int) -> bool:
        """End-of-lifetime close that tolerates every session state.

        The simulator's scheduled end-of-session events use this: the
        session may be gone (crash-killed), open (normal close), or
        ``RECOVERING`` — in which case its lifetime ended before recovery
        completed, so it is abandoned and counted as a kill.  A
        ``MIGRATING`` session whose lifetime expires mid-transfer still
        holds (exactly one set of) resources, so it is closed normally;
        the pending commit then finds no record and no-ops.  Returns True
        if a session record was removed.
        """
        session = self._sessions.get(session_id)
        if session is None:
            return False
        if session.state is SessionState.RECOVERING:
            self._kill_recovering(session, "expired_while_recovering")
            return True
        self._close(session)
        return True

    # -- failure handling ---------------------------------------------------

    def terminate_sessions_using_node(self, node_id: int) -> int:
        """Disrupt every session with a component on ``node_id``.

        Used by failure injection: the application crashed with the node.
        All of the session's resources are released (including the
        bookkeeping on the crashed node).  Without a :class:`RecoveryPolicy`
        the sessions are killed outright — the legacy behaviour; with one,
        they enter ``RECOVERING`` and await :meth:`recover_pending`.
        Sessions already recovering hold no resources and are skipped (the
        double-disruption race: a second fault cannot kill a session twice).
        ``MIGRATING`` sessions *do* hold resources (the new placement was
        committed when the transfer began) and are disrupted like any
        other; their pending migration commit then no-ops.
        Returns the number of sessions disrupted.
        """
        doomed = [
            session
            for session in self._sessions.values()
            if session.state is not SessionState.RECOVERING
            and node_id in session.allocation.node_demands
        ]
        return self._disrupt(doomed, "node", node_id)

    def terminate_sessions_using_link(self, link_id: int) -> int:
        """Disrupt every session whose virtual links cross overlay link
        ``link_id`` — the per-link analogue of
        :meth:`terminate_sessions_using_node`."""
        doomed = [
            session
            for session in self._sessions.values()
            if session.state is not SessionState.RECOVERING
            and link_id in session.allocation.link_demands
        ]
        return self._disrupt(doomed, "link", link_id)

    def _disrupt(
        self, doomed: list, entity_kind: str, entity_id: int
    ) -> int:
        recovering = self.recovery is not None
        now = self.clock()
        for session in doomed:
            self.allocator.release(session.allocation)
            self.sessions_disrupted += 1
            # a fault mid-migration supersedes the transfer: the one live
            # allocation was just released, so the session must land in
            # exactly one of RECOVERING / killed
            session.migrating_until = None
            if recovering:
                session.state = SessionState.RECOVERING
                session.recovering_since = now
            else:
                session.state = SessionState.FAILED
                del self._sessions[session.session_id]
                self.sessions_killed += 1
        if doomed and self.recorder.enabled:
            self.recorder.emit(
                "session.recovering" if recovering else "session.killed",
                **{entity_kind + "_id": entity_id, "count": len(doomed)},
            )
        return len(doomed)

    def recover_pending(self, now: Optional[float] = None) -> int:
        """Re-compose every ``RECOVERING`` session against live topology.

        Each pending session is re-composed with the manager's composer; on
        success the new allocation is committed and the session returns to
        ``COMPOSED`` with its recovery latency recorded.  A session past
        its recovery deadline falls back to a clean kill.  A session that
        fails to compose this sweep, or whose commit loses an admission
        race, has its transient reservations cancelled and stays
        ``RECOVERING``, to be retried at the next sweep until its
        deadline.  Returns the number of sessions recovered this sweep.
        """
        if self.recovery is None:
            return 0
        if now is None:
            now = self.clock()
        deadline_s = self.recovery.recovery_deadline_s
        pending = sorted(
            session_id
            for session_id, session in self._sessions.items()
            if session.state is SessionState.RECOVERING
        )
        recovered = 0
        for session_id in pending:
            session = self._sessions[session_id]
            assert session.recovering_since is not None
            if now - session.recovering_since > deadline_s + 1e-9:
                self._kill_recovering(session, "recovery_deadline")
                continue
            outcome = self.composer.compose(session.request)
            self.recovery_probe_messages += outcome.probe_messages
            if not outcome.success or outcome.composition is None:
                self.allocator.cancel_transient(session.request.request_id)
                continue  # retry at the next sweep until the deadline
            try:
                allocation = self.allocator.commit(outcome.composition)
            except AdmissionError:
                self.allocator.cancel_transient(session.request.request_id)
                continue
            latency_s = now - session.recovering_since
            session.composition = outcome.composition
            session.allocation = allocation
            session.state = SessionState.COMPOSED
            session.recovering_since = None
            session.recoveries += 1
            self.sessions_recovered += 1
            self.recovery_latency_total_s += latency_s
            recovered += 1
            if self.recorder.enabled:
                self.recorder.emit(
                    "session.recovered",
                    session_id=session_id,
                    latency_s=latency_s,
                    probe_messages=outcome.probe_messages,
                )
        return recovered

    def _kill_recovering(self, session: StreamSession, reason: str) -> None:
        """Give up on a recovering session (resources already released)."""
        session.state = SessionState.FAILED
        session.recovering_since = None
        del self._sessions[session.session_id]
        self.sessions_killed += 1
        if self.recorder.enabled:
            self.recorder.emit(
                "session.recovery_failed",
                session_id=session.session_id,
                reason=reason,
            )

    # -- live migration ------------------------------------------------------

    def sessions_using_node(self, node_id: int) -> Tuple[StreamSession, ...]:
        """Active (COMPOSED/PROCESSING) sessions holding resources on
        ``node_id``, in session-id order — the victim pool live migration
        plans over.  Sessions already migrating or recovering are excluded:
        one in-flight transition per session at a time."""
        return tuple(
            session
            for session in sorted(
                self._sessions.values(), key=lambda s: s.session_id
            )
            if session.state
            in (SessionState.COMPOSED, SessionState.PROCESSING)
            and node_id in session.allocation.node_demands
        )

    def begin_migration(
        self, session_id: int, composition: ComponentGraph, pause_s: float
    ) -> bool:
        """Atomically swap the session onto ``composition`` and pause it.

        The old allocation is released and the new one committed in one
        step (safe in the single-threaded simulator); on an admission race
        — the target filled up between planning and execution — the old
        footprint is re-admitted (it just freed exactly those resources,
        so the rollback cannot fail) and False is returned.  On success
        the session enters ``MIGRATING`` until the caller commits it via
        :meth:`complete_migration` after ``pause_s`` of state transfer.
        """
        if pause_s < 0.0:
            raise ValueError(f"pause_s must be non-negative, got {pause_s}")
        session = self._get_open(session_id)
        old_composition = session.composition
        self.allocator.release(session.allocation)
        try:
            allocation = self.allocator.commit(composition)
        except AdmissionError:
            session.allocation = self.allocator.commit(old_composition)
            self.migrations_rolled_back += 1
            if self.recorder.enabled:
                self.recorder.emit(
                    "migration.abort",
                    session_id=session_id,
                    reason="admission_race",
                )
            return False
        session.composition = composition
        session.allocation = allocation
        session.state = SessionState.MIGRATING
        session.migrating_until = self.clock() + pause_s
        if self.recorder.enabled:
            self.recorder.emit(
                "migration.start",
                session_id=session_id,
                pause_s=pause_s,
            )
        return True

    def complete_migration(self, session_id: int) -> bool:
        """Resume a ``MIGRATING`` session on its new placement.

        No-ops (returning False) when the session is gone or no longer
        migrating — its lifetime expired mid-transfer, or a fault
        disrupted it and recovery took over.  Either way the session's
        single live allocation was already handled exactly once.
        """
        session = self._sessions.get(session_id)
        if session is None or session.state is not SessionState.MIGRATING:
            return False
        session.state = SessionState.COMPOSED
        session.migrating_until = None
        session.migrations += 1
        self.sessions_migrated += 1
        if self.recorder.enabled:
            self.recorder.emit("migration.commit", session_id=session_id)
            self.recorder.inc("migration.sessions")
        return True

    # -- introspection -----------------------------------------------------------

    def session(self, session_id: int) -> StreamSession:
        return self._get_open(session_id)

    @property
    def active_session_count(self) -> int:
        return len(self._sessions)

    @property
    def recovering_count(self) -> int:
        """Sessions currently awaiting re-composition."""
        return sum(
            1
            for session in self._sessions.values()
            if session.state is SessionState.RECOVERING
        )

    @property
    def migrating_count(self) -> int:
        """Sessions currently paused for a state transfer."""
        return sum(
            1
            for session in self._sessions.values()
            if session.state is SessionState.MIGRATING
        )

    @property
    def mean_recovery_latency_s(self) -> float:
        """Mean disruption-to-readmission latency of recovered sessions."""
        if self.sessions_recovered == 0:
            return 0.0
        return self.recovery_latency_total_s / self.sessions_recovered

    def _get_open(self, session_id: int) -> StreamSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(f"unknown or closed session {session_id}")
        if session.state is SessionState.RECOVERING:
            raise SessionError(
                f"session {session_id} is recovering from a failure; "
                "it cannot be used until re-composition completes"
            )
        if session.state is SessionState.MIGRATING:
            raise SessionError(
                f"session {session_id} is migrating; its stream is paused "
                "until the state transfer commits"
            )
        return session
