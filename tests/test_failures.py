"""Tests for node failure injection and system resilience."""

import random

import pytest

from repro.core import ACPComposer, OptimalComposer, RandomComposer
from repro.middleware.session import SessionManager
from repro.model.node import InsufficientResourcesError
from repro.simulation import (
    FailureInjector,
    FaultPlan,
    RateSchedule,
    StreamProcessingSimulator,
    WorkloadGenerator,
)
from tests.conftest import build_small_system, make_request, rv


class TestNodeLiveness:
    def test_nodes_start_alive(self, micro_network):
        assert all(node.alive for node in micro_network.nodes)

    def test_dead_node_rejects_allocation(self, micro_network):
        node = micro_network.node(0)
        node.fail()
        assert not node.can_allocate(rv(1, 1))
        with pytest.raises(InsufficientResourcesError, match="down"):
            node.allocate(rv(1, 1))
        node.recover()
        node.allocate(rv(1, 1))

    def test_release_still_works_while_down(self, micro_network):
        """Terminating sessions must be able to return resources even on a
        crashed node — bookkeeping survives the crash."""
        node = micro_network.node(0)
        node.allocate(rv(5, 50))
        node.fail()
        node.release(rv(5, 50))
        assert node.allocated == rv(0, 0)


class TestRoutingAroundFailures:
    def test_reroute_avoids_down_relay(self, micro_network, micro_router):
        # v0 -> v2 normally relays through v1 (20 ms < direct 25 ms)
        assert micro_router.overlay_path(0, 2) == (0, 1)
        micro_router.set_down_nodes({1})
        assert micro_router.overlay_path(0, 2) == (2,)  # the direct link
        assert micro_router.delay(0, 2) == pytest.approx(25.0)

    def test_recovery_restores_routes(self, micro_router):
        micro_router.set_down_nodes({1})
        micro_router.set_down_nodes(set())
        assert micro_router.overlay_path(0, 2) == (0, 1)

    def test_down_endpoint_unreachable(self, micro_router):
        micro_router.set_down_nodes({1})
        assert not micro_router.reachable(0, 1)


class TestComposersAvoidDeadNodes:
    def test_acp_routes_around_crash(self, micro_context, micro_request):
        """With the preferred twin (v2) crashed, ACP must pick v1."""
        micro_context.network.node(2).fail()
        micro_context.router.set_down_nodes({2})
        outcome = ACPComposer(micro_context, probing_ratio=1.0).compose(
            micro_request
        )
        assert outcome.success
        assert outcome.composition.component(1).node_id == 1

    def test_optimal_routes_around_crash(self, micro_context, micro_request):
        micro_context.network.node(2).fail()
        micro_context.router.set_down_nodes({2})
        outcome = OptimalComposer(micro_context).compose(micro_request)
        assert outcome.success
        assert outcome.composition.component(1).node_id == 1

    def test_random_rejects_dead_assignment(self, micro_context, micro_request):
        """Random may draw the dead candidate; the compatibility check must
        catch it rather than compose onto a crashed node."""
        micro_context.network.node(1).fail()
        micro_context.network.node(2).fail()
        micro_context.router.set_down_nodes({1, 2})
        outcome = RandomComposer(micro_context).compose(micro_request)
        assert not outcome.success

    def test_all_candidates_dead_fails_cleanly(self, micro_context, micro_request):
        micro_context.network.node(1).fail()
        micro_context.network.node(2).fail()
        micro_context.router.set_down_nodes({1, 2})
        outcome = ACPComposer(micro_context, probing_ratio=1.0).compose(
            micro_request
        )
        assert not outcome.success
        assert outcome.failure_reason in (
            "no_qualified_candidates",
            "probes_dropped",
        )


class TestFailureInjector:
    @pytest.fixture
    def harness(self):
        system = build_small_system(seed=4, num_nodes=12)
        context = system.composition_context(rng=random.Random(1))
        composer = ACPComposer(context, probing_ratio=1.0)
        sessions = SessionManager(composer, system.allocator)
        injector = FailureInjector(
            system.network,
            system.router,
            plan=FaultPlan(node_recover_probability=1.0),
            rng=random.Random(2),
        )
        return system, sessions, injector

    def test_crash_terminates_sessions_on_node(self, harness):
        system, sessions, injector = harness
        template = system.templates.sample(random.Random(3))
        request = make_request(
            template.graph, delay_budget=500.0, loss_budget=0.4
        )
        session_id, outcome = sessions.find(request)
        assert session_id is not None
        victim = outcome.composition.component(0).node_id
        event = injector.crash(victim, sessions=sessions, now=10.0)
        assert event.sessions_killed == 1
        assert sessions.active_session_count == 0
        # all resources released everywhere, including the dead node
        for node in system.network.nodes:
            assert all(abs(v) < 1e-6 for v in node.allocated.values)

    def test_crash_then_recover_roundtrip(self, harness):
        system, _sessions, injector = harness
        injector.crash(3)
        assert not system.network.node(3).alive
        assert 3 in system.router.down_nodes
        injector.recover(3)
        assert system.network.node(3).alive
        assert system.router.down_nodes == frozenset()

    def test_double_crash_rejected(self, harness):
        _system, _sessions, injector = harness
        injector.crash(3)
        with pytest.raises(ValueError, match="already down"):
            injector.crash(3)

    def test_recover_up_node_rejected(self, harness):
        _system, _sessions, injector = harness
        with pytest.raises(ValueError, match="not down"):
            injector.recover(3)

    def test_round_respects_concurrency_cap(self):
        system = build_small_system(seed=5, num_nodes=12)
        injector = FailureInjector(
            system.network,
            system.router,
            plan=FaultPlan(
                node_fail_probability=1.0,  # everything wants to crash
                node_recover_probability=0.01,
                max_concurrent_failures=2,
            ),
            rng=random.Random(3),
        )
        injector.run_round(now=0.0)
        assert len(injector.down_nodes) == 2

    def test_validation(self):
        system = build_small_system(seed=5, num_nodes=12)
        with pytest.raises(TypeError, match="plan"):
            FailureInjector(system.network, system.router)
        with pytest.raises(ValueError, match="fail_probability"):
            FailureInjector(
                system.network,
                system.router,
                plan=FaultPlan(node_fail_probability=2.0),
            )
        with pytest.raises(ValueError, match="recover_probability"):
            FailureInjector(
                system.network,
                system.router,
                plan=FaultPlan(node_recover_probability=0.0),
            )

    def test_simulation_under_churn(self):
        """A full run with stochastic crashes: the system keeps composing,
        conserves resources, and records killed sessions."""
        system = build_small_system(seed=6, num_nodes=12)
        injector = FailureInjector(
            system.network,
            system.router,
            plan=FaultPlan(
                node_fail_probability=0.05,
                node_recover_probability=0.5,
                period_s=60.0,
            ),
            rng=random.Random(7),
        )
        workload = WorkloadGenerator(
            system.templates, RateSchedule.constant(30.0), seed=8
        )
        composer = ACPComposer(
            system.composition_context(rng=random.Random(9)), probing_ratio=0.5
        )
        simulator = StreamProcessingSimulator(
            system, composer, workload, sampling_period_s=300.0,
            failures=injector,
        )
        report = simulator.run(1200.0)
        assert report.total_requests > 0
        assert len(injector.events) > 0
        # drain remaining sessions and verify conservation on alive nodes
        simulator.scheduler.run_until(1200.0 + 1000.0)
        system.allocator.expire_due(simulator.scheduler.now)
        for request_id in list(system.allocator.transient_request_ids):
            system.allocator.cancel_transient(request_id)
        assert simulator.sessions.active_session_count == 0
        for node in system.network.nodes:
            assert all(abs(v) < 1e-6 for v in node.allocated.values)
        for link in system.network.links:
            assert abs(link.allocated_kbps) < 1e-6


class TestFaultPlan:
    def test_zero_plan_injects_nothing(self):
        plan = FaultPlan.none()
        assert plan.is_zero
        assert not plan.injects_churn
        assert not plan.injects_control_faults

    def test_injection_flags(self):
        assert FaultPlan(node_fail_probability=0.1).injects_churn
        assert FaultPlan(link_fail_probability=0.1).injects_churn
        assert FaultPlan(probe_loss_probability=0.1).injects_control_faults
        assert FaultPlan(probe_delay_ms=1.0).injects_control_faults
        assert FaultPlan(
            state_update_loss_probability=0.1
        ).injects_control_faults
        assert not FaultPlan(probe_loss_probability=0.1).injects_churn

    def test_validation(self):
        with pytest.raises(ValueError, match="node_fail_probability"):
            FaultPlan(node_fail_probability=1.5)
        with pytest.raises(ValueError, match="link_recover_probability"):
            FaultPlan(link_recover_probability=0.0)
        with pytest.raises(ValueError, match="probe_loss_probability"):
            FaultPlan(probe_loss_probability=1.0)
        with pytest.raises(ValueError, match="probe_delay_ms"):
            FaultPlan(probe_delay_ms=-1.0)
        with pytest.raises(ValueError, match="max_probe_retries"):
            FaultPlan(max_probe_retries=-1)
        with pytest.raises(ValueError, match="max_concurrent_failures"):
            FaultPlan(max_concurrent_failures=0)
        with pytest.raises(ValueError, match="period_s"):
            FaultPlan(period_s=0.0)

    def test_injector_adopts_plan_knobs(self):
        system = build_small_system(seed=5, num_nodes=12)
        plan = FaultPlan(
            node_fail_probability=0.2,
            link_fail_probability=0.1,
            max_concurrent_failures=4,
            period_s=30.0,
        )
        injector = FailureInjector(system.network, system.router, plan=plan)
        assert injector.plan is plan
        assert injector.max_concurrent_failures == 4
        # an unset cap resolves to a tenth of the nodes, at least one
        default = FailureInjector(system.network, system.router, plan=FaultPlan())
        assert default.max_concurrent_failures == 1


class TestLinkFaults:
    @pytest.fixture
    def harness(self):
        system = build_small_system(seed=4, num_nodes=12)
        injector = FailureInjector(
            system.network, system.router, plan=FaultPlan(), rng=random.Random(2)
        )
        return system, injector

    def test_link_failure_reroutes(self, micro_router):
        # v0 -> v2 normally relays over e0+e1 (20 ms < direct 25 ms)
        assert micro_router.overlay_path(0, 2) == (0, 1)
        micro_router.set_down_links({0})
        assert micro_router.overlay_path(0, 2) == (2,)  # the direct link
        micro_router.set_down_links(set())
        assert micro_router.overlay_path(0, 2) == (0, 1)

    def test_fail_and_recover_links_roundtrip(self, harness):
        system, injector = harness
        before = system.router.epoch
        events = injector.fail_links([0, 3], now=1.0)
        assert [e.link_id for e in events] == [0, 3]
        assert all(e.kind == "link_down" for e in events)
        assert all(e.node_id == -1 for e in events)
        assert system.router.epoch == before + 1  # one batched update
        assert injector.down_links == frozenset({0, 3})
        assert system.router.down_links == frozenset({0, 3})
        events = injector.recover_links([0], now=2.0)
        assert events[0].kind == "link_up"
        assert events[0].link_id == 0
        assert injector.down_links == frozenset({3})
        assert system.router.down_links == frozenset({3})

    def test_link_batch_validation(self, harness):
        _system, injector = harness
        with pytest.raises(ValueError, match="duplicate"):
            injector.fail_links([1, 1])
        with pytest.raises(ValueError, match="unknown overlay link"):
            injector.fail_links([10_000])
        with pytest.raises(ValueError, match="unknown overlay link"):
            injector.fail_links([-1])
        injector.fail_links([1])
        with pytest.raises(ValueError, match="already down"):
            injector.fail_links([1])
        with pytest.raises(ValueError, match="not down"):
            injector.recover_links([2])
        with pytest.raises(ValueError, match="duplicate"):
            injector.recover_links([1, 1])

    def test_link_failure_disrupts_crossing_sessions(self, harness):
        system, injector = harness
        context = system.composition_context(rng=random.Random(1))
        sessions = SessionManager(
            ACPComposer(context, probing_ratio=1.0), system.allocator
        )
        template = system.templates.sample(random.Random(3))
        request = make_request(
            template.graph, delay_budget=500.0, loss_budget=0.4
        )
        session_id, _outcome = sessions.find(request)
        assert session_id is not None
        crossed = sorted(sessions.session(session_id).allocation.link_demands)
        assert crossed  # the composition spans at least one overlay link
        events = injector.fail_links([crossed[0]], sessions=sessions, now=5.0)
        assert events[0].sessions_killed == 1
        assert sessions.active_session_count == 0
        for node in system.network.nodes:
            assert all(abs(v) < 1e-6 for v in node.allocated.values)
        for link in system.network.links:
            assert abs(link.allocated_kbps) < 1e-6

    def test_round_cap_counts_nodes_and_links_combined(self):
        system = build_small_system(seed=5, num_nodes=12)
        injector = FailureInjector(
            system.network,
            system.router,
            rng=random.Random(3),
            plan=FaultPlan(
                node_fail_probability=1.0,  # everything wants to crash
                link_fail_probability=1.0,
                node_recover_probability=0.01,
                link_recover_probability=0.01,
                max_concurrent_failures=5,
            ),
        )
        injector.run_round(now=0.0)
        assert injector.concurrent_failures == 5
        assert len(injector.down_nodes) + len(injector.down_links) == 5

    def test_stochastic_link_round_records_events(self):
        system = build_small_system(seed=6, num_nodes=12)
        injector = FailureInjector(
            system.network,
            system.router,
            rng=random.Random(7),
            plan=FaultPlan(
                link_fail_probability=0.5,
                link_recover_probability=0.5,
                max_concurrent_failures=6,
            ),
        )
        injector.run_round(now=0.0)
        injector.run_round(now=60.0)
        kinds = {event.kind for event in injector.events}
        assert "link_down" in kinds
        assert all(
            event.link_id is not None
            for event in injector.events
            if event.kind in ("link_down", "link_up")
        )

    def test_node_only_plan_replays_legacy_churn_schedule(self):
        """A plan without link faults draws only the node-churn randomness
        the injector drew before link faults existed: one draw per down
        node (recovery) and one per up node (crash), none per link."""

        class CountingRandom(random.Random):
            draws = 0

            def random(self):
                self.draws += 1
                return super().random()

        system = build_small_system(seed=8, num_nodes=12)
        rng = CountingRandom(21)
        injector = FailureInjector(
            system.network,
            system.router,
            rng=rng,
            plan=FaultPlan(
                node_fail_probability=0.3,
                node_recover_probability=0.5,
                # no cap break: every up node draws once per round
                max_concurrent_failures=len(system.network),
            ),
        )
        for now in (0.0, 60.0, 120.0, 180.0):
            before = rng.draws
            events = injector.run_round(now=now)
            recovered = sum(1 for e in events if e.kind == "recover")
            # down before the round + up after its recoveries = N + recovered
            assert rng.draws - before == len(system.network) + recovered
        assert injector.events  # the schedule did churn
        assert all(e.link_id is None for e in injector.events)
        assert system.router.down_links == frozenset()


class TestBatchedChurn:
    """Co-temporal crashes/recoveries must cost one routing update."""

    @pytest.fixture
    def harness(self):
        system = build_small_system(seed=4, num_nodes=12)
        injector = FailureInjector(
            system.network, system.router, plan=FaultPlan(), rng=random.Random(2)
        )
        return system, injector

    def test_crash_many_issues_one_routing_update(self, harness):
        system, injector = harness
        before = system.router.epoch
        events = injector.crash_many([2, 5, 7], now=1.0)
        assert [e.node_id for e in events] == [2, 5, 7]
        assert all(e.kind == "crash" for e in events)
        assert system.router.epoch == before + 1
        assert injector.down_nodes == frozenset({2, 5, 7})
        assert all(not system.network.node(n).alive for n in (2, 5, 7))

    def test_recover_many_issues_one_routing_update(self, harness):
        system, injector = harness
        injector.crash_many([2, 5, 7])
        before = system.router.epoch
        events = injector.recover_many([5, 7], now=2.0)
        assert [e.node_id for e in events] == [5, 7]
        assert system.router.epoch == before + 1
        assert injector.down_nodes == frozenset({2})
        assert system.network.node(5).alive and system.network.node(7).alive

    def test_crash_batch_validated_before_any_mutation(self, harness):
        system, injector = harness
        injector.crash(2)
        before = system.router.epoch
        with pytest.raises(ValueError, match="already down"):
            injector.crash_many([3, 2])
        assert system.network.node(3).alive
        assert injector.down_nodes == frozenset({2})
        assert system.router.epoch == before

    def test_duplicate_ids_rejected(self, harness):
        _system, injector = harness
        with pytest.raises(ValueError, match="duplicate"):
            injector.crash_many([3, 3])
        injector.crash(3)
        with pytest.raises(ValueError, match="duplicate"):
            injector.recover_many([3, 3])

    def test_recover_batch_validated_before_any_mutation(self, harness):
        system, injector = harness
        injector.crash(2)
        before = system.router.epoch
        with pytest.raises(ValueError, match="not down"):
            injector.recover_many([2, 4])
        assert injector.down_nodes == frozenset({2})
        assert system.router.epoch == before

    def test_stochastic_round_issues_one_routing_update(self):
        system = build_small_system(seed=5, num_nodes=12)
        injector = FailureInjector(
            system.network,
            system.router,
            plan=FaultPlan(
                node_fail_probability=1.0,
                node_recover_probability=0.5,
                max_concurrent_failures=3,
            ),
            rng=random.Random(3),
        )
        before = system.router.epoch
        events = injector.run_round(now=0.0)
        assert len(events) == 3
        assert system.router.epoch == before + 1
        # a mixed round (recoveries + crashes) is still one update
        before = system.router.epoch
        injector.run_round(now=60.0)
        assert system.router.epoch <= before + 1

    def test_crash_many_kills_sessions(self):
        system = build_small_system(seed=4, num_nodes=12)
        context = system.composition_context(rng=random.Random(1))
        composer = ACPComposer(context, probing_ratio=1.0)
        sessions = SessionManager(composer, system.allocator)
        injector = FailureInjector(
            system.network, system.router, plan=FaultPlan(), rng=random.Random(2)
        )
        template = system.templates.sample(random.Random(3))
        request = make_request(template.graph, delay_budget=500.0, loss_budget=0.4)
        session_id, outcome = sessions.find(request)
        assert session_id is not None
        used = set(outcome.composition.node_ids())
        events = injector.crash_many(sorted(used), sessions=sessions, now=5.0)
        assert sum(e.sessions_killed for e in events) == 1
        assert sessions.active_session_count == 0
