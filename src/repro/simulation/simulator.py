"""The end-to-end stream processing simulation.

One :class:`StreamProcessingSimulator` runs one composition algorithm over
one system under one workload, reproducing the paper's experimental loop:

* Poisson request arrivals (time-varying rate supported);
* composition via the session middleware's ``find`` (composer + admission);
* sessions that hold their resources for 5–15 minutes and then close;
* transient-reservation expiry sweeps (the probe-timeout path);
* periodic success-rate sampling (Δt = 5 min by default), which also
  drives the adaptive probing-ratio tuner when one is attached;
* periodic virtual-link aggregation rounds with their message cost.

``run`` returns a :class:`SimulationReport` with the whole-run success
rate, message accounting, and the windowed time series Fig. 8 plots.
"""

from __future__ import annotations

from typing import Optional

from repro.core.acp import ACPComposer
from repro.core.composer import Composer
from repro.core.tuning import RatioTuner
from repro.middleware.migration import LiveSessionMigrationManager
from repro.middleware.session import RecoveryPolicy, SessionManager
from repro.observability import NULL_RECORDER, Recorder
from repro.placement.migration import ComponentMigrationManager
from repro.simulation.failures import FailureInjector
from repro.simulation.engine import EventScheduler
from repro.simulation.metrics import MetricsCollector, RequestRecord, SimulationReport
from repro.simulation.system import StreamSystem
from repro.simulation.workload import WorkloadSource


class StreamProcessingSimulator:
    """Event-driven run of one algorithm under one workload."""

    def __init__(
        self,
        system: StreamSystem,
        composer: Composer,
        workload: WorkloadSource,
        sampling_period_s: float = 300.0,
        tuner: Optional[RatioTuner] = None,
        migration: Optional[ComponentMigrationManager] = None,
        failures: Optional[FailureInjector] = None,
        recorder: Optional[Recorder] = None,
        recovery: Optional[RecoveryPolicy] = None,
        live_migration: Optional[LiveSessionMigrationManager] = None,
    ) -> None:
        if sampling_period_s <= 0.0:
            raise ValueError(f"sampling period must be positive: {sampling_period_s}")
        self.system = system
        self.composer = composer
        self.workload = workload
        self.sampling_period_s = sampling_period_s
        self.tuner = tuner
        self.migration = migration
        self.failures = failures
        self.recovery = recovery
        self.live_migration = live_migration
        self._recovery_sweep_pending = False
        if tuner is not None:
            if not isinstance(composer, ACPComposer):
                raise ValueError("only the ACP composer accepts a probing-ratio tuner")
            composer.attach_tuner(tuner)

        self.scheduler = EventScheduler()
        # the simulator is the observability wiring hub: one recorder
        # (argument > system default) reaches every layer, and trace
        # event timestamps follow the simulated clock.  Layers a caller
        # already pointed at a non-null recorder are left alone.
        self.recorder = recorder if recorder is not None else system.recorder
        self.recorder.bind_clock(lambda: self.scheduler.now)
        if composer.context.recorder is NULL_RECORDER:
            composer.context.recorder = self.recorder
        if system.router.recorder is NULL_RECORDER:
            system.router.recorder = self.recorder
        if tuner is not None and tuner.recorder is NULL_RECORDER:
            tuner.recorder = self.recorder
        if failures is not None and failures.recorder is NULL_RECORDER:
            failures.recorder = self.recorder
        if migration is not None and migration.recorder is NULL_RECORDER:
            migration.recorder = self.recorder
        if live_migration is not None and live_migration.recorder is NULL_RECORDER:
            live_migration.recorder = self.recorder
            live_migration.detector.recorder = self.recorder

        self.metrics = MetricsCollector(recorder=self.recorder)
        self._pending_arrival = None
        self.sessions = SessionManager(
            composer,
            system.allocator,
            clock=lambda: self.scheduler.now,
            recorder=self.recorder,
            recovery=recovery,
        )
        if live_migration is not None:
            live_migration.bind_sessions(self.sessions)
        # composers read the simulated clock for reservation deadlines
        composer.context.clock = lambda: self.scheduler.now

    # -- event handlers ------------------------------------------------------

    def _on_arrival(self) -> None:
        now = self.scheduler.now
        request = self.workload.make_request(now)
        session_id, outcome = self.sessions.find(request)
        phi = outcome.phi if outcome.success else None
        setup_latency_ms = None
        if session_id is not None and outcome.composition is not None:
            # session setup cost: one probe wavefront out plus one
            # confirmation back along the committed composition's critical
            # virtual-link path (pure function of the composition — no
            # randomness, so the rng streams are untouched)
            setup_latency_ms = 2.0 * outcome.composition.worst_link_delay_ms()
        self.metrics.record(
            RequestRecord(
                request_id=request.request_id,
                arrival_time=now,
                success=session_id is not None,
                probe_messages=outcome.probe_messages,
                setup_messages=outcome.setup_messages,
                explored=outcome.explored,
                phi=phi,
                failure_reason=outcome.failure_reason,
                setup_latency_ms=setup_latency_ms,
            )
        )
        if session_id is not None:
            # close_or_abandon: the session may be gone (crash-killed) or
            # still RECOVERING when its natural lifetime ends
            self.scheduler.schedule_after(
                request.duration,
                lambda sid=session_id: self.sessions.close_or_abandon(sid),
                name=f"close#{session_id}",
            )
        self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        delay = self.workload.next_interarrival(self.scheduler.now)
        self._pending_arrival = self.scheduler.schedule_after(
            delay, self._on_arrival, name="arrival"
        )

    def _on_sampling_tick(self) -> None:
        now = self.scheduler.now
        # sample the reservation queue *before* the expiry sweep: the gauge
        # should show what piled up over the window, not the swept floor
        transient = len(self.system.allocator.transient_request_ids)
        # probe reservations whose confirmation never came time out here
        self.system.allocator.expire_due(now)
        ratio = None
        if isinstance(self.composer, ACPComposer):
            ratio = self.composer.current_probing_ratio()
        sample = self.metrics.close_window(
            now,
            probing_ratio=ratio,
            open_sessions=self.sessions.active_session_count,
            transient_reservations=transient,
        )
        # an idle window carries the previous rate forward for the Fig. 8
        # series, but that carried value is NOT a measurement of the
        # current ratio — feeding it to the tuner would register phantom
        # profile points and could trigger spurious re-profiles
        if self.tuner is not None and sample.requests > 0:
            self.tuner.record_sample(sample.success_rate, time=now)

    def _on_aggregation_round(self) -> None:
        self.system.aggregation.run_round()

    def _on_migration_round(self) -> None:
        if self.migration is not None:
            self.migration.run_round(now=self.scheduler.now)

    def _on_rebalance_round(self) -> None:
        """One live-migration round: the manager starts state transfers,
        the simulator schedules each one's commit ``pause_s`` later."""
        if self.live_migration is None:
            return
        now = self.scheduler.now
        started = self.live_migration.run_round(
            now, admission_pressure=self.metrics.latest_admission_pressure
        )
        for record in started:
            self.scheduler.schedule_after(
                record.pause_s,
                lambda sid=record.session_id: self.sessions.complete_migration(
                    sid
                ),
                name=f"migrate#{record.session_id}",
            )

    def _on_failure_round(self) -> None:
        if self.failures is not None:
            self.failures.run_round(
                sessions=self.sessions, now=self.scheduler.now
            )
            if self.recovery is not None:
                self._maybe_schedule_recovery(self.recovery.detection_delay_s)

    def _maybe_schedule_recovery(self, delay_s: float) -> None:
        """Schedule one recovery sweep if sessions await re-composition.

        At most one sweep is in flight at a time; the first after a fault
        round fires after the policy's detection delay, and follow-up
        sweeps (for sessions whose re-composition failed and gets retried
        until the deadline) are paced at least a second apart so a
        zero-delay policy cannot spin the scheduler at one timestamp.
        """
        if self._recovery_sweep_pending:
            return
        if self.sessions.recovering_count == 0:
            return
        self._recovery_sweep_pending = True
        self.scheduler.schedule_after(
            delay_s, self._on_recovery_sweep, name="recovery"
        )

    def _on_recovery_sweep(self) -> None:
        self._recovery_sweep_pending = False
        self.sessions.recover_pending(now=self.scheduler.now)
        assert self.recovery is not None
        self._maybe_schedule_recovery(max(self.recovery.detection_delay_s, 1.0))

    # -- runs -------------------------------------------------------------------

    def run(self, duration_s: float) -> SimulationReport:
        """Simulate ``duration_s`` seconds and return the report."""
        if duration_s <= 0.0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        state = self.system.global_state
        aggregation = self.system.aggregation
        control = self.composer.context.control
        state_messages_before = state.total_update_messages
        aggregation_messages_before = aggregation.broadcast_messages
        state_lost_before = state.total_updates_lost
        probes_lost_before = control.messages_lost
        if self.recorder.enabled:
            self.recorder.emit(
                "sim.start",
                algorithm=self.composer.name,
                duration_s=duration_s,
                sampling_period_s=self.sampling_period_s,
                adaptive=self.tuner is not None,
            )

        self._schedule_next_arrival()
        sampling = self.scheduler.schedule_periodic(
            self.sampling_period_s, self._on_sampling_tick, name="sampling"
        )
        aggregating = self.scheduler.schedule_periodic(
            aggregation.period_s,
            self._on_aggregation_round,
            name="aggregation",
        )
        migrating = None
        if self.migration is not None:
            migrating = self.scheduler.schedule_periodic(
                self.migration.period_s, self._on_migration_round, name="migration"
            )
        rebalancing = None
        if self.live_migration is not None:
            rebalancing = self.scheduler.schedule_periodic(
                self.live_migration.period_s,
                self._on_rebalance_round,
                name="rebalance",
            )
        failing = None
        if self.failures is not None:
            failing = self.scheduler.schedule_periodic(
                self.failures.plan.period_s, self._on_failure_round, name="failures"
            )
        self.scheduler.run_until(duration_s)
        sampling.cancel()
        aggregating.cancel()
        if migrating is not None:
            migrating.cancel()
        if rebalancing is not None:
            rebalancing.cancel()
        if failing is not None:
            failing.cancel()
        if self._pending_arrival is not None:
            # stop the arrival process at the horizon so the event list can
            # drain (open sessions still close on their own schedule)
            self._pending_arrival.cancel()

        report = self.metrics.build_report(
            algorithm=self.composer.name,
            duration_s=duration_s,
            state_update_messages=state.total_update_messages
            - state_messages_before,
            aggregation_messages=aggregation.broadcast_messages
            - aggregation_messages_before,
            sessions_opened=self.sessions.sessions_created,
            sessions_disrupted=self.sessions.sessions_disrupted,
            sessions_recovered=self.sessions.sessions_recovered,
            sessions_killed=self.sessions.sessions_killed,
            recovery_probe_messages=self.sessions.recovery_probe_messages,
            mean_recovery_latency_s=self.sessions.mean_recovery_latency_s,
            state_updates_lost=state.total_updates_lost - state_lost_before,
            probe_messages_lost=control.messages_lost - probes_lost_before,
            sessions_migrated=self.sessions.sessions_migrated,
            migrations_aborted_on_slack=(
                self.live_migration.migrations_aborted_on_slack
                if self.live_migration is not None
                else 0
            ),
            migration_paused_stream_s=(
                self.live_migration.migration_paused_stream_s
                if self.live_migration is not None
                else 0.0
            ),
            migration_probe_messages=(
                self.live_migration.migration_probe_messages
                if self.live_migration is not None
                else 0
            ),
        )
        if self.recorder.enabled:
            self.recorder.emit(
                "sim.end",
                algorithm=report.algorithm,
                total_requests=report.total_requests,
                successes=report.successes,
                probe_messages=report.probe_messages,
            )
        return report
