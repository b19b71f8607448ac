"""Unit tests for the Find/Process/Close session middleware."""

import pytest

from repro.core.acp import ACPComposer
from repro.middleware.session import (
    RecoveryPolicy,
    SessionError,
    SessionManager,
    SessionState,
)
from repro.model.function_graph import FunctionGraph
from tests.conftest import make_request


@pytest.fixture
def manager(micro_context):
    composer = ACPComposer(micro_context, probing_ratio=1.0)
    return SessionManager(composer, micro_context.allocator, clock=lambda: 42.0)


class TestFind:
    def test_successful_find_creates_session(self, manager, micro_request):
        session_id, outcome = manager.find(micro_request)
        assert session_id is not None
        assert outcome.success
        session = manager.session(session_id)
        assert session.state is SessionState.COMPOSED
        assert session.created_at == 42.0
        assert manager.active_session_count == 1

    def test_failed_find_returns_null_session(self, manager, micro_context, catalog):
        graph = FunctionGraph.path([catalog[6]])  # undeployed function
        session_id, outcome = manager.find(make_request(graph))
        assert session_id is None
        assert not outcome.success
        assert manager.active_session_count == 0
        # no stray reservations
        assert micro_context.allocator.transient_request_ids == ()

    def test_find_commits_resources(self, manager, micro_context, micro_request):
        manager.find(micro_request)
        assert micro_context.allocator.active_session_count == 1

    def test_session_ids_unique(self, manager, micro_request, catalog):
        sid1, _ = manager.find(micro_request)
        second = make_request(
            FunctionGraph.path([catalog[0], catalog[1]]), request_id=1
        )
        sid2, _ = manager.find(second)
        assert sid1 != sid2

    def test_admission_race_leaves_composer_outcome_untouched(
        self, manager, micro_request, monkeypatch
    ):
        """Losing the post-probe admission race must not mutate the
        composer's outcome object in place — other holders (metrics,
        diagnostics) would see a successful composition silently flip to
        failed under them."""
        from repro.allocation.allocator import AdmissionError

        captured = {}
        original_compose = manager.composer.compose

        def spying_compose(request):
            outcome = original_compose(request)
            captured["outcome"] = outcome
            return outcome

        def losing_commit(composition):
            raise AdmissionError("lost the race")

        monkeypatch.setattr(manager.composer, "compose", spying_compose)
        monkeypatch.setattr(manager.allocator, "commit", losing_commit)
        session_id, outcome = manager.find(micro_request)
        assert session_id is None
        assert not outcome.success
        assert outcome.composition is None
        assert outcome.failure_reason == "admission_race"
        # the composer's original outcome is a distinct, unmodified object
        original = captured["outcome"]
        assert outcome is not original
        assert original.success
        assert original.composition is not None
        assert original.failure_reason is None
        assert manager.active_session_count == 0


class TestProcess:
    def test_processing_reports_stream_transform(self, manager, micro_request):
        session_id, _ = manager.find(micro_request)
        result = manager.process(session_id, units_in=1000.0)
        assert result.units_in == 1000.0
        # two stages with selectivities from the catalog apply; output must
        # be positive and reflect loss
        assert 0.0 < result.units_out < 1000.0
        assert result.expected_delay_ms > 0.0
        assert 0.0 <= result.expected_loss_rate < 1.0

    def test_processing_accumulates(self, manager, micro_request):
        session_id, _ = manager.find(micro_request)
        manager.process(session_id, 10.0)
        manager.process(session_id, 5.0)
        assert manager.session(session_id).units_processed == 15.0
        assert manager.session(session_id).state is SessionState.PROCESSING

    def test_zero_units(self, manager, micro_request):
        session_id, _ = manager.find(micro_request)
        result = manager.process(session_id, 0.0)
        assert result.units_out == 0.0

    def test_negative_units_rejected(self, manager, micro_request):
        session_id, _ = manager.find(micro_request)
        with pytest.raises(ValueError, match="non-negative"):
            manager.process(session_id, -1.0)

    def test_unknown_session_rejected(self, manager):
        with pytest.raises(SessionError, match="unknown or closed"):
            manager.process(999, 1.0)


class TestClose:
    def test_close_releases_resources(self, manager, micro_context, micro_request):
        before = [node.available for node in micro_context.network.nodes]
        session_id, _ = manager.find(micro_request)
        manager.close(session_id)
        after = [node.available for node in micro_context.network.nodes]
        assert before == after
        assert manager.active_session_count == 0

    def test_closed_session_unusable(self, manager, micro_request):
        session_id, _ = manager.find(micro_request)
        manager.close(session_id)
        with pytest.raises(SessionError):
            manager.process(session_id, 1.0)
        with pytest.raises(SessionError):
            manager.close(session_id)


class TestTermination:
    def test_terminate_by_node(self, manager, micro_context, micro_request):
        session_id, outcome = manager.find(micro_request)
        node_id = outcome.composition.component(0).node_id
        killed = manager.terminate_sessions_using_node(node_id)
        assert killed == 1
        assert manager.active_session_count == 0
        for node in micro_context.network.nodes:
            assert all(abs(v) < 1e-9 for v in node.allocated.values)

    def test_terminate_unrelated_node_is_noop(self, manager, micro_request):
        manager.find(micro_request)
        # node 2 hosts the unchosen twin (ACP picks v2 actually) — use a
        # node not in the composition
        session = manager.session(1)
        used = set(session.allocation.node_demands)
        unused = ({0, 1, 2} - used).pop()
        assert manager.terminate_sessions_using_node(unused) == 0
        assert manager.active_session_count == 1


@pytest.fixture
def clock():
    """A mutable simulated clock the recovery tests advance by hand."""
    return {"now": 0.0}


@pytest.fixture
def recovering_manager(micro_context, clock):
    composer = ACPComposer(micro_context, probing_ratio=1.0)
    return SessionManager(
        composer,
        micro_context.allocator,
        clock=lambda: clock["now"],
        recovery=RecoveryPolicy(recovery_deadline_s=30.0, detection_delay_s=2.0),
    )


def _disrupt(manager, session_id):
    """Disrupt the session via the node hosting its first component."""
    node_id = next(iter(manager.session(session_id).allocation.node_demands))
    return manager.terminate_sessions_using_node(node_id)


class TestRecoveryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="recovery_deadline_s"):
            RecoveryPolicy(recovery_deadline_s=0.0)
        with pytest.raises(ValueError, match="detection_delay_s"):
            RecoveryPolicy(detection_delay_s=-1.0)


class TestRecovery:
    def test_disruption_enters_recovering_and_releases_resources(
        self, recovering_manager, micro_context, micro_request
    ):
        session_id, _ = recovering_manager.find(micro_request)
        assert _disrupt(recovering_manager, session_id) == 1
        assert recovering_manager.recovering_count == 1
        assert recovering_manager.sessions_disrupted == 1
        assert recovering_manager.sessions_killed == 0
        # the old resources are released immediately, not held hostage
        for node in micro_context.network.nodes:
            assert all(abs(v) < 1e-9 for v in node.allocated.values)

    def test_recovering_session_rejects_every_operation(
        self, recovering_manager, micro_request
    ):
        session_id, _ = recovering_manager.find(micro_request)
        _disrupt(recovering_manager, session_id)
        with pytest.raises(SessionError, match="recovering"):
            recovering_manager.process(session_id, 1.0)
        with pytest.raises(SessionError, match="recovering"):
            recovering_manager.close(session_id)
        with pytest.raises(SessionError, match="recovering"):
            recovering_manager.session(session_id)

    def test_recover_pending_readmits(
        self, recovering_manager, clock, micro_request
    ):
        session_id, _ = recovering_manager.find(micro_request)
        _disrupt(recovering_manager, session_id)
        clock["now"] = 5.0
        assert recovering_manager.recover_pending() == 1
        session = recovering_manager.session(session_id)
        assert session.state is SessionState.COMPOSED
        assert session.recoveries == 1
        assert session.recovering_since is None
        assert recovering_manager.sessions_recovered == 1
        assert recovering_manager.sessions_killed == 0
        assert recovering_manager.mean_recovery_latency_s == pytest.approx(5.0)
        assert recovering_manager.recovery_probe_messages > 0
        # the re-admitted session is fully usable again
        result = recovering_manager.process(session_id, 10.0)
        assert result.units_out > 0.0

    def test_recovered_session_closes_cleanly(
        self, recovering_manager, micro_context, clock, micro_request
    ):
        before = [node.available for node in micro_context.network.nodes]
        session_id, _ = recovering_manager.find(micro_request)
        _disrupt(recovering_manager, session_id)
        clock["now"] = 3.0
        recovering_manager.recover_pending()
        recovering_manager.close(session_id)
        after = [node.available for node in micro_context.network.nodes]
        assert before == after
        assert recovering_manager.active_session_count == 0

    def test_deadline_expiry_kills(
        self, recovering_manager, clock, micro_request
    ):
        session_id, _ = recovering_manager.find(micro_request)
        _disrupt(recovering_manager, session_id)
        clock["now"] = 31.0  # past the 30 s recovery deadline
        assert recovering_manager.recover_pending() == 0
        assert recovering_manager.recovering_count == 0
        assert recovering_manager.active_session_count == 0
        assert recovering_manager.sessions_killed == 1
        assert recovering_manager.sessions_recovered == 0
        with pytest.raises(SessionError, match="unknown or closed"):
            recovering_manager.process(session_id, 1.0)

    def test_failed_recompose_retries_until_deadline(
        self, recovering_manager, micro_context, clock, micro_request
    ):
        """A sweep that cannot re-compose leaves the session RECOVERING;
        a later sweep against healed topology re-admits it."""
        session_id, _ = recovering_manager.find(micro_request)
        _disrupt(recovering_manager, session_id)
        # crash every candidate for F1 so re-composition must fail
        micro_context.network.node(1).fail()
        micro_context.network.node(2).fail()
        micro_context.router.set_down_nodes({1, 2})
        clock["now"] = 5.0
        assert recovering_manager.recover_pending() == 0
        assert recovering_manager.recovering_count == 1
        assert recovering_manager.sessions_killed == 0
        # no stray transient reservations from the failed attempt
        assert micro_context.allocator.transient_request_ids == ()
        micro_context.network.node(1).recover()
        micro_context.network.node(2).recover()
        micro_context.router.set_down_nodes(set())
        clock["now"] = 12.0
        assert recovering_manager.recover_pending() == 1
        assert recovering_manager.mean_recovery_latency_s == pytest.approx(12.0)

    def test_double_disruption_race_skips_recovering(
        self, recovering_manager, micro_request
    ):
        """A second fault in the same blast radius must not disrupt a
        session that is already recovering (it holds no resources)."""
        session_id, _ = recovering_manager.find(micro_request)
        session = recovering_manager.session(session_id)
        used = sorted(session.allocation.node_demands)
        assert _disrupt(recovering_manager, session_id) == 1
        for node_id in used:
            assert recovering_manager.terminate_sessions_using_node(node_id) == 0
        assert recovering_manager.sessions_disrupted == 1
        assert recovering_manager.recovering_count == 1

    def test_lifetime_expiry_while_recovering_abandons(
        self, recovering_manager, micro_request
    ):
        session_id, _ = recovering_manager.find(micro_request)
        _disrupt(recovering_manager, session_id)
        assert recovering_manager.close_or_abandon(session_id) is True
        assert recovering_manager.active_session_count == 0
        assert recovering_manager.sessions_killed == 1
        assert recovering_manager.sessions_recovered == 0

    def test_close_or_abandon_still_closes_healthy_sessions(
        self, recovering_manager, micro_request
    ):
        session_id, _ = recovering_manager.find(micro_request)
        assert recovering_manager.close_or_abandon(session_id) is True
        assert recovering_manager.close_or_abandon(session_id) is False
        assert recovering_manager.sessions_killed == 0

    def test_without_policy_disruption_kills(self, manager, micro_request):
        session_id, _ = manager.find(micro_request)
        assert _disrupt(manager, session_id) == 1
        assert manager.active_session_count == 0
        assert manager.sessions_disrupted == 1
        assert manager.sessions_killed == 1
        assert manager.recover_pending() == 0  # no policy: nothing pending
