"""Unit tests for the Random and Static baselines."""

import random

from repro.core.baselines import RandomComposer, StaticComposer
from repro.model.function_graph import FunctionGraph
from tests.conftest import make_request, rv


class TestStatic:
    def test_always_picks_first_registered(self, micro_context, micro_request):
        outcome = StaticComposer(micro_context).compose(micro_request)
        assert outcome.success
        # F1's first-registered candidate is c1 on v1
        assert outcome.composition.component(1).component_id == 1

    def test_deterministic_across_calls(self, micro_context, micro_request):
        composer = StaticComposer(micro_context)
        first = composer.compose(micro_request)
        micro_context.allocator.cancel_transient(micro_request.request_id)
        second = composer.compose(micro_request)
        assert [c.component_id for c in first.composition.components] == [
            c.component_id for c in second.composition.components
        ]

    def test_fails_when_fixed_choice_overloaded(self, micro_context, micro_request):
        micro_context.network.node(1).allocate(rv(49, 499))
        outcome = StaticComposer(micro_context).compose(micro_request)
        assert not outcome.success
        assert outcome.failure_reason == "node_resources"

    def test_fails_on_undeployed_function(self, micro_context, catalog):
        graph = FunctionGraph.path([catalog[5]])
        outcome = StaticComposer(micro_context).compose(make_request(graph))
        assert not outcome.success
        assert outcome.failure_reason == "no_candidates"


class TestRandom:
    def test_succeeds_on_micro(self, micro_context, micro_request):
        outcome = RandomComposer(micro_context).compose(micro_request)
        assert outcome.success
        assert outcome.setup_messages == 2

    def test_seeded_rng_reproducible(self, micro_network, micro_request):
        """Two contexts with equal seeds pick identical compositions."""
        from repro.allocation.allocator import ResourceAllocator
        from repro.core.composer import CompositionContext
        from repro.discovery.registry import ComponentRegistry
        from repro.state.global_state import GlobalStateManager
        from repro.topology.routing import OverlayRouter

        def compose_seeded(seed):
            registry = ComponentRegistry()
            for node in micro_network.nodes:
                for component in node.components:
                    registry.register(component)
            router = OverlayRouter(micro_network)
            context = CompositionContext(
                network=micro_network,
                router=router,
                registry=registry,
                allocator=ResourceAllocator(micro_network, router),
                global_state=GlobalStateManager(micro_network),
                rng=random.Random(seed),
            )
            outcome = RandomComposer(context).compose(micro_request)
            context.allocator.cancel_transient(micro_request.request_id)
            return [c.component_id for c in outcome.composition.components]

        assert compose_seeded(11) == compose_seeded(11)

    def test_eventually_explores_both_candidates(self, micro_context, micro_request):
        composer = RandomComposer(micro_context)
        seen = set()
        for _ in range(30):
            outcome = composer.compose(micro_request)
            micro_context.allocator.cancel_transient(micro_request.request_id)
            if outcome.success:
                seen.add(outcome.composition.component(1).component_id)
        assert seen == {1, 2}

    def test_no_probe_messages(self, micro_context, micro_request):
        outcome = RandomComposer(micro_context).compose(micro_request)
        assert outcome.probe_messages == 0

    def test_interface_incompatibility_detected(self, micro_context, catalog):
        """A request whose stream rate exceeds every candidate's interface
        limit fails with incompatible_interfaces."""
        graph = FunctionGraph.path([catalog[0], catalog[1]])
        request = make_request(graph, stream_rate=5000.0, kbps_per_unit=0.01)
        outcome = RandomComposer(micro_context).compose(request)
        assert not outcome.success
        assert outcome.failure_reason == "incompatible_interfaces"
