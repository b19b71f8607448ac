"""Tests for the paper's future-work extensions.

Section 6 names three follow-on directions, all implemented here:
(1) control-theoretic probing-ratio tuning — :class:`PIDRatioTuner`,
(2) application-specific constraints (security level, software licence) —
    component capability tags and request ``required_attributes``,
(3) dynamic component migration — :class:`ComponentMigrationManager`.
"""

import dataclasses
import random

import pytest

from repro.core import ACPComposer, OptimalComposer, PIDRatioTuner, RandomComposer
from repro.discovery.deployment import ComponentDeployer, DeploymentProfile
from repro.model.function_graph import FunctionGraph
from repro.placement.migration import (
    ComponentMigrationManager,
    MigrationPolicy,
)
from tests.conftest import build_small_system, make_component, make_request, rv


# -- (1) PID ratio tuner ------------------------------------------------------


class TestPIDRatioTuner:
    def test_starts_at_base(self):
        tuner = PIDRatioTuner(target_success_rate=0.9)
        assert tuner.current_ratio() == 0.1

    def test_rises_below_target(self):
        tuner = PIDRatioTuner(target_success_rate=0.9)
        ratio = tuner.record_sample(0.5)
        assert ratio > 0.1

    def test_falls_above_target(self):
        tuner = PIDRatioTuner(target_success_rate=0.7)
        tuner.record_sample(0.3)  # push up
        high = tuner.current_ratio()
        for _ in range(4):
            tuner.record_sample(0.99)
        assert tuner.current_ratio() < high

    def test_bounds_respected(self):
        tuner = PIDRatioTuner(target_success_rate=0.99, max_ratio=0.8)
        for _ in range(20):
            tuner.record_sample(0.0)
        assert tuner.current_ratio() == 0.8
        descender = PIDRatioTuner(target_success_rate=0.5)
        descender.record_sample(0.0)  # push up first
        for _ in range(20):
            descender.record_sample(1.0)
        assert descender.current_ratio() == descender.base_ratio

    def test_integral_antiwindup(self):
        """An unreachable target must not poison later convergence."""
        tuner = PIDRatioTuner(target_success_rate=0.99, integral_limit=1.0)
        for _ in range(50):
            tuner.record_sample(0.2)  # rails at max, integral clamped
        assert abs(tuner.integral) <= 1.0
        # regime change: success above target -> ratio must come down fast
        for _ in range(5):
            tuner.record_sample(1.0)
        assert tuner.current_ratio() < 1.0

    def test_converges_on_synthetic_plant(self):
        """Against a synthetic monotone α→success plant, the controller
        settles near the α that meets the target."""
        tuner = PIDRatioTuner(target_success_rate=0.8, kp=0.8, ki=0.2, kd=0.1)

        def plant(alpha):
            return min(1.0, 0.4 + 0.5 * alpha)  # target met at alpha = 0.8

        ratio = tuner.current_ratio()
        for _ in range(60):
            ratio = tuner.record_sample(plant(ratio))
        assert plant(ratio) == pytest.approx(0.8, abs=0.07)

    def test_drives_acp_composer(self, micro_context):
        tuner = PIDRatioTuner(target_success_rate=0.9)
        composer = ACPComposer(micro_context, tuner=None)
        composer.attach_tuner(tuner)
        assert composer.current_probing_ratio() == tuner.current_ratio()
        tuner.record_sample(0.2)
        assert composer.current_probing_ratio() == tuner.current_ratio()

    def test_drives_simulation(self):
        """The simulator wires its recorder into the tuner it is given;
        a PID tuner must take that wiring and then steer α every window."""
        from repro.observability import TraceRecorder
        from repro.simulation import (
            QOS_LEVELS,
            RateSchedule,
            StreamProcessingSimulator,
            WorkloadGenerator,
        )

        system = build_small_system(seed=4, num_nodes=12)
        workload = WorkloadGenerator(
            system.templates,
            RateSchedule.constant(20.0),
            qos_level=QOS_LEVELS["normal"],
            num_client_routers=system.config.num_routers,
            seed=54,
        )
        composer = ACPComposer(
            system.composition_context(rng=random.Random(4)), probing_ratio=0.5
        )
        tuner = PIDRatioTuner(target_success_rate=0.9)
        recorder = TraceRecorder()
        simulator = StreamProcessingSimulator(
            system, composer, workload, sampling_period_s=300.0,
            tuner=tuner, recorder=recorder,
        )
        assert tuner.recorder is recorder
        report = simulator.run(900.0)
        assert report.total_requests > 0
        assert len(tuner.samples) > 0
        decisions = recorder.events_of("tuner.decision")
        assert [(e.time, e.fields["ratio"]) for e in decisions] == [
            (s.time, s.ratio) for s in tuner.samples
        ]
        assert decisions[-1].fields["new_ratio"] == tuner.current_ratio()

    def test_reset(self):
        tuner = PIDRatioTuner()
        tuner.record_sample(0.1)
        tuner.reset()
        assert tuner.current_ratio() == tuner.base_ratio
        assert tuner.integral == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="target"):
            PIDRatioTuner(target_success_rate=0.0)
        with pytest.raises(ValueError, match="base_ratio"):
            PIDRatioTuner(base_ratio=0.9, max_ratio=0.5)
        with pytest.raises(ValueError, match="integral_limit"):
            PIDRatioTuner(integral_limit=0.0)
        with pytest.raises(ValueError, match="success rate"):
            PIDRatioTuner().record_sample(2.0)


# -- (2) attribute constraints ---------------------------------------------------


class TestAttributeConstraints:
    def test_component_tag_check(self, catalog):
        secure = make_component(0, catalog[0], 0)
        secure = dataclasses.replace(
            secure, attributes=frozenset({"security:high", "licence:apache"})
        )
        assert secure.satisfies_attributes(frozenset({"security:high"}))
        assert not secure.satisfies_attributes(frozenset({"security:top"}))
        assert secure.satisfies_attributes(frozenset())

    def _tagged_request(self, catalog, tags):
        graph = FunctionGraph.path([catalog[0], catalog[1]])
        request = make_request(graph)
        return dataclasses.replace(request, required_attributes=frozenset(tags))

    def test_acp_filters_untagged_candidates(self, micro_context, catalog):
        request = self._tagged_request(catalog, {"security:high"})
        outcome = ACPComposer(micro_context, probing_ratio=1.0).compose(request)
        # micro components advertise no tags -> nothing qualifies
        assert not outcome.success

    def test_optimal_filters_untagged_candidates(self, micro_context, catalog):
        request = self._tagged_request(catalog, {"security:high"})
        outcome = OptimalComposer(micro_context).compose(request)
        assert not outcome.success

    def test_random_filters_untagged_candidates(self, micro_context, catalog):
        request = self._tagged_request(catalog, {"security:high"})
        outcome = RandomComposer(micro_context).compose(request)
        assert not outcome.success

    def test_tagged_candidates_compose(self, micro_context, catalog):
        # retrofit tags onto the deployed components via the registry
        for component_id in (0, 1, 2):
            old = micro_context.registry.component(component_id)
            tagged = dataclasses.replace(
                old, attributes=frozenset({"security:high"})
            )
            micro_context.registry.replace(tagged)
            node = micro_context.network.node(old.node_id)
            node.unhost(old.component_id)
            node.host(tagged)
        request = self._tagged_request(catalog, {"security:high"})
        outcome = ACPComposer(micro_context, probing_ratio=1.0).compose(request)
        assert outcome.success

    def test_deployment_attribute_pool(self):
        system = build_small_system(seed=2)
        profile = DeploymentProfile(
            components_per_node=(1, 1),
            attribute_pool=(("security:high", 1.0), ("licence:gpl", 0.0)),
        )
        from repro.model.functions import FunctionCatalog
        from repro.topology.ip_network import IPNetwork
        from repro.topology.overlay import build_overlay_network
        from repro.topology.powerlaw import PowerLawTopologyGenerator

        ip = IPNetwork(PowerLawTopologyGenerator(num_routers=80, seed=3).generate())
        network = build_overlay_network(ip, 15, rng=random.Random(4))
        registry = ComponentDeployer(FunctionCatalog(size=10), profile).deploy(
            network, rng=random.Random(5)
        )
        for component in registry.components():
            assert "security:high" in component.attributes
            assert "licence:gpl" not in component.attributes

    def test_invalid_attribute_probability(self):
        with pytest.raises(ValueError, match="probability"):
            DeploymentProfile(attribute_pool=(("x", 1.5),))


# -- (3) component migration ------------------------------------------------------


class TestMigration:
    @pytest.fixture
    def loaded_system(self):
        """A small system with one node driven above the high watermark.

        Fails rather than skips without a replicated function: a
        deployment change must not quietly drop the tests using it."""
        system = build_small_system(seed=8, num_nodes=12)
        # find a node hosting a component whose function has >1 instance
        for node in system.network.nodes:
            for component in node.components:
                if system.registry.candidate_count(component.function) > 1:
                    hot = node
                    capacity = hot.capacity
                    hot.allocate(capacity.scaled(0.9))
                    return system, hot
        pytest.fail("no replicated function in this seed")

    def test_round_moves_component_off_hot_node(self, loaded_system):
        system, hot = loaded_system
        manager = ComponentMigrationManager(system.network, system.registry)
        before = len(hot.components)
        records = manager.run_round(now=100.0)
        assert len(records) >= 1
        record = records[0]
        assert record.from_node == hot.node_id
        assert len(hot.components) == before - 1
        # the instance is hosted and registered at the target
        target = system.network.node(record.to_node)
        assert target.hosts(record.component_id)
        moved = system.registry.component(record.component_id)
        assert moved.node_id == record.to_node

    def test_registry_order_stable_across_migration(self, loaded_system):
        system, _hot = loaded_system
        order_before = [c.component_id for c in system.registry.components()]
        ComponentMigrationManager(system.network, system.registry).run_round()
        order_after = [c.component_id for c in system.registry.components()]
        assert order_before == order_after

    def test_idle_system_does_not_migrate(self):
        system = build_small_system(seed=8, num_nodes=12)
        manager = ComponentMigrationManager(system.network, system.registry)
        assert manager.run_round() == []
        assert manager.migration_count == 0

    def test_message_accounting(self, loaded_system):
        system, _hot = loaded_system
        manager = ComponentMigrationManager(system.network, system.registry)
        records = manager.run_round()
        assert manager.migration_messages == 2 * len(records)

    def test_target_below_low_watermark_only(self, loaded_system):
        system, hot = loaded_system
        # saturate every other node so no target qualifies
        for node in system.network.nodes:
            if node is not hot:
                node.allocate(node.capacity.scaled(0.6))
        manager = ComponentMigrationManager(system.network, system.registry)
        assert manager.run_round() == []

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="watermark"):
            MigrationPolicy(high_watermark=0.4, low_watermark=0.5)
        with pytest.raises(ValueError, match="max_migrations"):
            MigrationPolicy(max_migrations_per_round=0)

    def test_simulator_integration(self):
        """The simulator drives periodic migration rounds; composition keeps
        working on the migrated placement."""
        import random as _random

        from repro.simulation import (
            RateSchedule,
            StreamProcessingSimulator,
            WorkloadGenerator,
        )

        system = build_small_system(seed=9, num_nodes=12)
        manager = ComponentMigrationManager(
            system.network,
            system.registry,
            policy=MigrationPolicy(high_watermark=0.5, low_watermark=0.3),
            period_s=120.0,
        )
        workload = WorkloadGenerator(
            system.templates, RateSchedule.constant(30.0), seed=10
        )
        composer = ACPComposer(
            system.composition_context(rng=_random.Random(1)), probing_ratio=0.5
        )
        simulator = StreamProcessingSimulator(
            system, composer, workload, sampling_period_s=300.0,
            migration=manager,
        )
        report = simulator.run(900.0)
        assert report.total_requests > 0
        # hosting and registry stayed consistent through any migrations
        for node in system.network.nodes:
            for component in node.components:
                assert component.node_id == node.node_id
                assert (
                    system.registry.component(component.component_id)
                    is component
                )

    def test_instance_migration_is_traced(self, loaded_system):
        """Satellite of the live-migration PR: the instance-migration path
        emits guarded ``migration.instance`` events and a counter, so
        ``repro-experiments trace`` sees rebalancing."""
        from repro.observability import TraceRecorder

        system, hot = loaded_system
        recorder = TraceRecorder()
        manager = ComponentMigrationManager(
            system.network, system.registry, recorder=recorder
        )
        records = manager.run_round(now=50.0)
        assert len(records) >= 1
        events = recorder.events_of("migration.instance")
        assert len(events) == len(records)
        assert events[0].fields["from_node"] == hot.node_id
        assert events[0].fields["component_id"] == records[0].component_id
        assert (
            recorder.registry.counter("migration.instances").value
            == len(records)
        )


class TestMigrationTieBreaks:
    """Satellite of the live-migration PR: shed/target selection must be a
    pure function of system state — ordered by ``(coverage, component_id)``
    and ``(load, node_id)`` — not of node/hosting scan order."""

    def _build(self, host_order):
        from repro.discovery.registry import ComponentRegistry
        from repro.model.functions import FunctionCatalog
        from repro.model.node import Node
        from repro.topology.overlay import OverlayLink, OverlayNetwork

        catalog = FunctionCatalog(size=4, num_formats=2)
        fn_a, fn_b = catalog[0], catalog[1]
        network = OverlayNetwork(
            [
                Node(node_id, router_id=node_id, capacity=rv(100, 1000))
                for node_id in range(4)
            ],
            [
                OverlayLink(i, i, i + 1, delay_ms=10.0, loss_rate=0.001,
                            capacity_kbps=10_000.0)
                for i in range(3)
            ],
        )
        # node 0: one instance of each function; fn B is better covered
        # (3 instances) than fn A (2), and its node-0 instance has the
        # smallest component id hosted there
        components = {
            5: make_component(5, fn_a, 0),
            3: make_component(3, fn_b, 0),
            7: make_component(7, fn_a, 3),
            9: make_component(9, fn_b, 3),
            11: make_component(11, fn_b, 3),
        }
        registry = ComponentRegistry()
        for component_id in host_order:
            component = components[component_id]
            network.node(component.node_id).host(component)
            registry.register(component)
        # drive node 0 hot; nodes 1 and 2 stay idle at identical load
        hot = network.node(0)
        hot.allocate(hot.capacity.scaled(0.9))
        return network, registry

    @pytest.mark.parametrize(
        "host_order", [(5, 3, 7, 9, 11), (11, 9, 7, 3, 5), (3, 7, 11, 5, 9)]
    )
    def test_selection_is_hosting_order_independent(self, host_order):
        network, registry = self._build(host_order)
        manager = ComponentMigrationManager(network, registry)
        records = manager.run_round(now=0.0)
        assert len(records) == 1
        record = records[0]
        # shed: fn B wins on coverage (3 > 2); its hosted instance is c3
        assert record.component_id == 3
        # target: nodes 1 and 2 tie at zero load — the smaller id wins
        assert record.from_node == 0
        assert record.to_node == 1

    def test_shed_coverage_tie_breaks_on_component_id(self):
        network, registry = self._build((5, 3, 7, 9, 11))
        # give fn A a third instance so both functions tie at coverage 3
        extra = make_component(13, registry.component(5).function, 3)
        network.node(3).host(extra)
        registry.register(extra)
        manager = ComponentMigrationManager(network, registry)
        shed = manager._pick_component_to_shed(network.node(0))
        assert shed is not None
        assert shed.component_id == 3  # min id among equal-coverage picks
