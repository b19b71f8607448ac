"""Unit tests for the component registry and deployment."""

import random

import pytest

from repro.discovery.deployment import ComponentDeployer, DeploymentProfile
from repro.discovery.registry import ComponentRegistry
from repro.model.functions import FunctionCatalog
from repro.topology.ip_network import IPNetwork
from repro.topology.overlay import build_overlay_network
from repro.topology.powerlaw import PowerLawTopologyGenerator
from tests.conftest import make_component


class TestRegistry:
    def test_register_and_candidates(self, catalog):
        registry = ComponentRegistry()
        c0 = make_component(0, catalog[0], 0)
        c1 = make_component(1, catalog[0], 1)
        registry.register(c0)
        registry.register(c1)
        assert registry.candidates(catalog[0]) == (c0, c1)
        assert registry.candidate_count(catalog[0]) == 2

    def test_duplicate_id_rejected(self, catalog):
        registry = ComponentRegistry([make_component(0, catalog[0], 0)])
        with pytest.raises(ValueError, match="duplicate"):
            registry.register(make_component(0, catalog[1], 1))

    def test_missing_function_empty(self, catalog):
        registry = ComponentRegistry()
        assert registry.candidates(catalog[3]) == ()
        assert registry.candidate_count(catalog[3]) == 0

    def test_static_choice_is_first_registered(self, catalog):
        registry = ComponentRegistry()
        first = make_component(5, catalog[0], 2)
        registry.register(first)
        registry.register(make_component(6, catalog[0], 3))
        assert registry.static_choice(catalog[0]) is first

    def test_static_choice_none_when_undeployed(self, catalog):
        assert ComponentRegistry().static_choice(catalog[0]) is None

    def test_component_lookup(self, catalog):
        component = make_component(9, catalog[2], 4)
        registry = ComponentRegistry([component])
        assert registry.component(9) is component
        with pytest.raises(KeyError, match="unknown component"):
            registry.component(8)

    def test_functions_covered(self, catalog):
        registry = ComponentRegistry(
            [make_component(0, catalog[2], 0), make_component(1, catalog[5], 1)]
        )
        assert registry.functions_covered() == (2, 5)

    def test_replace_preserves_order(self, catalog):
        registry = ComponentRegistry(
            [make_component(0, catalog[0], 0), make_component(1, catalog[0], 1)]
        )
        moved = make_component(0, catalog[0], 5)
        old = registry.replace(moved)
        assert old.node_id == 0
        assert [c.component_id for c in registry.candidates(catalog[0])] == [0, 1]
        assert registry.component(0).node_id == 5

    def test_replace_function_mismatch_rejected(self, catalog):
        registry = ComponentRegistry([make_component(0, catalog[0], 0)])
        with pytest.raises(ValueError, match="must provide"):
            registry.replace(make_component(0, catalog[1], 5))

    def test_replace_unknown_id_rejected(self, catalog):
        registry = ComponentRegistry()
        with pytest.raises(KeyError):
            registry.replace(make_component(0, catalog[0], 5))


class TestDeployment:
    @pytest.fixture(scope="class")
    def network(self):
        ip = IPNetwork(PowerLawTopologyGenerator(num_routers=100, seed=1).generate())
        return build_overlay_network(ip, 30, rng=random.Random(2))

    def test_every_function_covered(self, network):
        catalog = FunctionCatalog(size=20)
        deployer = ComponentDeployer(
            catalog, DeploymentProfile(components_per_node=(1, 2))
        )
        registry = deployer.deploy(network, rng=random.Random(3))
        assert registry.functions_covered() == tuple(range(20))

    def test_per_node_quota_respected(self):
        ip = IPNetwork(PowerLawTopologyGenerator(num_routers=100, seed=4).generate())
        network = build_overlay_network(ip, 30, rng=random.Random(5))
        catalog = FunctionCatalog(size=10)
        profile = DeploymentProfile(components_per_node=(2, 2))
        ComponentDeployer(catalog, profile).deploy(network, rng=random.Random(6))
        for node in network.nodes:
            assert len(node.components) == 2

    def test_too_small_deployment_rejected(self, network):
        catalog = FunctionCatalog(size=80)
        deployer = ComponentDeployer(
            catalog, DeploymentProfile(components_per_node=(1, 1))
        )
        # 30 nodes * 1 component < 80 functions
        with pytest.raises(ValueError, match="deployment too small"):
            deployer.deploy(network, rng=random.Random(0))

    def test_deterministic_for_seed(self):
        catalog = FunctionCatalog(size=10)
        ip = IPNetwork(PowerLawTopologyGenerator(num_routers=100, seed=7).generate())

        def deploy(seed):
            network = build_overlay_network(ip, 20, rng=random.Random(8))
            registry = ComponentDeployer(
                catalog, DeploymentProfile(components_per_node=(1, 2))
            ).deploy(network, rng=random.Random(seed))
            return [
                (c.component_id, c.function.function_id, c.node_id)
                for c in registry.components()
            ]

        assert deploy(1) == deploy(1)
        assert deploy(1) != deploy(2)

    def test_qos_within_profile_ranges(self, network):
        catalog = FunctionCatalog(size=10)
        profile = DeploymentProfile(
            components_per_node=(1, 1),
            processing_delay_ms=(5.0, 50.0),
            loss_rate=(0.001, 0.01),
        )
        # fresh network to avoid double hosting
        ip = IPNetwork(PowerLawTopologyGenerator(num_routers=100, seed=9).generate())
        fresh = build_overlay_network(ip, 15, rng=random.Random(1))
        registry = ComponentDeployer(catalog, profile).deploy(
            fresh, rng=random.Random(2)
        )
        for component in registry.components():
            assert 5.0 <= component.qos.delay <= 50.0
            assert 0.001 <= component.qos.loss_rate <= 0.01

    def test_format_restriction_probability_zero_keeps_full_interface(self):
        catalog = FunctionCatalog(size=10)
        profile = DeploymentProfile(
            components_per_node=(1, 1), input_format_restriction_prob=0.0
        )
        ip = IPNetwork(PowerLawTopologyGenerator(num_routers=100, seed=10).generate())
        network = build_overlay_network(ip, 15, rng=random.Random(3))
        registry = ComponentDeployer(catalog, profile).deploy(
            network, rng=random.Random(4)
        )
        for component in registry.components():
            assert component.input_formats == component.function.input_formats

    def test_invalid_profile(self):
        with pytest.raises(ValueError, match="components_per_node"):
            DeploymentProfile(components_per_node=(3, 2))
        with pytest.raises(ValueError, match="restriction_prob"):
            DeploymentProfile(input_format_restriction_prob=1.5)
