"""Unit and behavioural tests for the probing protocol (ACP/SP/RP)."""

import pytest

from repro.core.acp import ACPComposer
from repro.core.baselines import RandomProbingComposer, SelectiveProbingComposer
from repro.core.probe import ProbeFactory
from repro.core.prober import FinalSelectionPolicy, HopSelectionPolicy
from repro.model.function_graph import FunctionGraph
from tests.conftest import make_request, qv, rv


class TestProbe:
    def test_initial_probe_empty(self, micro_request):
        probe = ProbeFactory().initial(micro_request)
        assert probe.assignment == {}
        assert probe.accumulated_out == {}
        assert probe.request is micro_request

    def test_spawn_inherits_and_extends(self, micro_request, micro_registry):
        factory = ProbeFactory()
        parent = factory.initial(micro_request)
        child = parent.spawn(
            factory.next_id(), 0, micro_registry.component(0), qv(10.0, 0.001)
        )
        grandchild = child.spawn(
            factory.next_id(), 1, micro_registry.component(1), qv(20.0, 0.002)
        )
        assert child.request is micro_request
        assert child.probe_id != parent.probe_id
        assert child.assignment[0].component_id == 0
        assert child.accumulated_out == {0: qv(10.0, 0.001)}
        # the grandchild inherits its parent's placement and extends it
        assert grandchild.assignment[0] is child.assignment[0]
        assert grandchild.assignment[1].component_id == 1
        assert grandchild.accumulated_out == {
            0: qv(10.0, 0.001),
            1: qv(20.0, 0.002),
        }
        # parents untouched
        assert parent.assignment == {} and parent.accumulated_out == {}
        assert list(child.assignment) == [0]


class TestACPComposition:
    def test_success_on_micro_system(self, micro_context, micro_request):
        composer = ACPComposer(micro_context, probing_ratio=1.0)
        outcome = composer.compose(micro_request)
        assert outcome.success
        assert outcome.composition is not None
        assert outcome.phi is not None and outcome.phi > 0
        assert outcome.probe_messages > 0

    def test_prefers_less_loaded_twin(self, micro_context, micro_request):
        """F1 has candidates on v1 (50 cpu) and v2 (100 cpu); the φ-minimal
        choice is the bigger/idler node v2 when link costs allow."""
        composer = ACPComposer(micro_context, probing_ratio=1.0)
        outcome = composer.compose(micro_request)
        chosen = outcome.composition.component(1)
        assert chosen.node_id == 2

    def test_load_shifts_choice(self, micro_context, micro_request):
        """Loading v2 heavily must flip the choice to v1."""
        micro_context.network.node(2).allocate(rv(90, 900))
        composer = ACPComposer(micro_context, probing_ratio=1.0)
        outcome = composer.compose(micro_request)
        assert outcome.composition.component(1).node_id == 1

    def test_probing_ratio_limits_messages(self, micro_context, micro_request):
        full = ACPComposer(micro_context, probing_ratio=1.0).compose(micro_request)
        micro_context.allocator.cancel_transient(micro_request.request_id)
        narrow_context = micro_context
        narrow = ACPComposer(narrow_context, probing_ratio=0.5).compose(micro_request)
        assert narrow.probe_messages <= full.probe_messages

    def test_no_candidates_fails(self, micro_context, catalog):
        graph = FunctionGraph.path([catalog[7]])  # nothing deployed for F7
        request = make_request(graph)
        outcome = ACPComposer(micro_context).compose(request)
        assert not outcome.success
        assert outcome.failure_reason == "no_candidates"

    def test_qos_budget_too_tight_fails(self, micro_context, catalog):
        graph = FunctionGraph.path([catalog[0], catalog[1]])
        request = make_request(graph, delay_budget=5.0)  # < any component delay
        outcome = ACPComposer(micro_context, probing_ratio=1.0).compose(request)
        assert not outcome.success
        assert outcome.failure_reason in (
            "no_qualified_candidates",
            "no_qualified_composition",
        )

    def test_failure_cancels_transient_reservations(self, micro_context, catalog):
        graph = FunctionGraph.path([catalog[0], catalog[1]])
        # F0 alone (10 ms) fits, but any F1 extension (≥ 30 ms) does not
        request = make_request(graph, delay_budget=25.0)
        ACPComposer(micro_context, probing_ratio=1.0).compose(request)
        assert micro_context.allocator.transient_request_ids == ()
        for node in micro_context.network.nodes:
            assert node.allocated == rv(0, 0)

    def test_success_keeps_reservations_for_commit(
        self, micro_context, micro_request
    ):
        composer = ACPComposer(micro_context, probing_ratio=1.0)
        outcome = composer.compose(micro_request)
        assert outcome.success
        assert micro_request.request_id in (
            micro_context.allocator.transient_request_ids
        )
        # commit converts them into the session allocation
        micro_context.allocator.commit(outcome.composition)
        assert micro_context.allocator.transient_request_ids == ()

    def test_resource_starved_node_skipped(self, micro_context, micro_request):
        """With v1 and v2 both out of resources, composition must fail."""
        micro_context.network.node(1).allocate(rv(49, 499))
        micro_context.network.node(2).allocate(rv(99, 999))
        outcome = ACPComposer(micro_context, probing_ratio=1.0).compose(micro_request)
        assert not outcome.success

    def test_stale_state_can_mislead_selection(self, micro_context, micro_request):
        """Load v2 *below* the update threshold after a refresh: the global
        state still advertises it as idle, and the probe discovers the truth
        only on arrival (the hybrid approach's trade-off)."""
        node = micro_context.network.node(2)
        node.allocate(rv(9, 90))  # below 10% threshold: global state stale
        stale = micro_context.global_state.node_available(2)
        assert stale == rv(100, 1000)  # still the old value
        composer = ACPComposer(micro_context, probing_ratio=1.0)
        outcome = composer.compose(micro_request)
        # precise final selection still accounts for the true load
        assert outcome.success


class TestVariants:
    def test_sp_configuration(self, micro_context):
        sp = SelectiveProbingComposer(micro_context)
        assert sp.hop_policy is HopSelectionPolicy.GUIDED
        assert sp.final_policy is FinalSelectionPolicy.RANDOM
        assert sp.use_global_state

    def test_rp_configuration(self, micro_context):
        rp = RandomProbingComposer(micro_context)
        assert rp.hop_policy is HopSelectionPolicy.RANDOM
        assert rp.final_policy is FinalSelectionPolicy.PHI
        assert not rp.use_global_state

    def test_sp_succeeds_on_micro(self, micro_context, micro_request):
        outcome = SelectiveProbingComposer(micro_context, probing_ratio=1.0).compose(
            micro_request
        )
        assert outcome.success

    def test_rp_succeeds_on_micro(self, micro_context, micro_request):
        outcome = RandomProbingComposer(micro_context, probing_ratio=1.0).compose(
            micro_request
        )
        assert outcome.success

    def test_invalid_ratio_rejected(self, micro_context):
        with pytest.raises(ValueError, match="probing ratio"):
            ACPComposer(micro_context, probing_ratio=0.0)

    def test_tuner_attachment(self, micro_context):
        from repro.core.tuning import ProbingRatioTuner

        tuner = ProbingRatioTuner(target_success_rate=0.9)
        composer = ACPComposer(micro_context, tuner=tuner)
        assert composer.current_probing_ratio() == tuner.current_ratio()
