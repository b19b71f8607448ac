"""Unit tests for system assembly."""

from repro.simulation.system import SystemConfig
from tests.conftest import build_small_system


class TestBuildSystem:
    def test_component_counts(self, small_system):
        assert len(small_system.network) == 12
        assert len(small_system.registry) >= len(small_system.catalog)

    def test_full_function_coverage(self, small_system):
        covered = small_system.registry.functions_covered()
        assert covered == tuple(range(len(small_system.catalog)))

    def test_deterministic_build(self):
        a = build_small_system(seed=7)
        b = build_small_system(seed=7)
        assert [n.capacity for n in a.network.nodes] == [
            n.capacity for n in b.network.nodes
        ]
        assert [l.endpoints for l in a.network.links] == [
            l.endpoints for l in b.network.links
        ]
        assert [
            (c.component_id, c.node_id, c.function.function_id)
            for c in a.registry.components()
        ] == [
            (c.component_id, c.node_id, c.function.function_id)
            for c in b.registry.components()
        ]

    def test_seed_changes_build(self):
        a = build_small_system(seed=7)
        b = build_small_system(seed=8)
        assert [n.capacity for n in a.network.nodes] != [
            n.capacity for n in b.network.nodes
        ]

    def test_mean_candidates_per_function(self, small_system):
        mean = small_system.mean_candidates_per_function()
        assert mean == len(small_system.registry) / len(small_system.catalog)

    def test_composition_context_wiring(self, small_system):
        context = small_system.composition_context()
        assert context.network is small_system.network
        assert context.registry is small_system.registry
        assert context.allocator is small_system.allocator
        assert context.global_state is small_system.global_state

    def test_config_helpers(self):
        config = SystemConfig(num_nodes=100, seed=1)
        assert config.with_nodes(300).num_nodes == 300
        # originals untouched (frozen dataclass)
        assert config.seed == 1
        assert config.num_nodes == 100

    def test_overlay_connected(self, small_system):
        router = small_system.router
        n = len(small_system.network)
        assert all(router.reachable(0, i) for i in range(n))
