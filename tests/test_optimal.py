"""Tests for the optimal (exhaustive branch-and-bound) composer.

The crucial property: on instances small enough to enumerate by hand, the
branch-and-bound result must coincide with a brute-force scan over *all*
assignments — pruning must never cut the true optimum.
"""

import itertools
import random

import pytest

from repro.core.baselines import RandomComposer
from repro.core.composer import CompositionEvaluator
from repro.core.optimal import OptimalComposer
from repro.model.function_graph import FunctionGraph
from tests.conftest import build_small_system, make_request


def brute_force_best(context, request):
    """Enumerate every assignment; return (best_phi, assignment) or None."""
    evaluator = CompositionEvaluator(context)
    graph = request.function_graph
    pools = [
        context.registry.candidates(graph.node(i).function)
        for i in range(len(graph))
    ]
    best = None
    for combo in itertools.product(*pools):
        ids = [c.component_id for c in combo]
        if len(set(ids)) != len(ids):
            continue
        assignment = dict(enumerate(combo))
        if not evaluator.interface_compatible(request, assignment):
            continue
        composition = evaluator.build_component_graph(request, assignment)
        phi = evaluator.judge(composition, evaluator.reads(request))
        if isinstance(phi, str):
            continue
        if best is None or phi < best[0]:
            best = (phi, assignment)
    return best


class TestMicroOptimality:
    def test_matches_brute_force(self, micro_context, micro_request):
        outcome = OptimalComposer(micro_context).compose(micro_request)
        expected = brute_force_best(micro_context, micro_request)
        assert outcome.success
        assert expected is not None
        assert outcome.phi == pytest.approx(expected[0])

    def test_picks_idler_node(self, micro_context, micro_request):
        outcome = OptimalComposer(micro_context).compose(micro_request)
        assert outcome.composition.component(1).node_id == 2

    def test_counts_explored_partials(self, micro_context, micro_request):
        outcome = OptimalComposer(micro_context).compose(micro_request)
        assert outcome.probe_messages == outcome.explored >= 2

    def test_failure_when_nothing_qualifies(self, micro_context, catalog):
        graph = FunctionGraph.path([catalog[0], catalog[1]])
        request = make_request(graph, delay_budget=5.0)
        outcome = OptimalComposer(micro_context).compose(request)
        assert not outcome.success
        assert outcome.failure_reason == "no_qualified_composition"

    def test_no_candidates(self, micro_context, catalog):
        graph = FunctionGraph.path([catalog[6]])
        outcome = OptimalComposer(micro_context).compose(make_request(graph))
        assert not outcome.success
        assert outcome.failure_reason == "no_candidates"

    def test_invalid_cap(self, micro_context):
        with pytest.raises(ValueError, match="max_explored"):
            OptimalComposer(micro_context, max_explored=0)


class TestOptimalityOnRandomSystems:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_branch_and_bound_equals_brute_force(self, seed):
        """On seeded small systems, B&B must equal exhaustive enumeration."""
        system = build_small_system(seed=seed, num_nodes=10)
        context = system.composition_context(rng=random.Random(seed))
        rng = random.Random(seed + 100)
        template = system.templates.sample(rng)
        request = make_request(
            template.graph,
            delay_budget=400.0,
            loss_budget=0.3,
            cpu=3.0,
            memory=15.0,
        )
        outcome = OptimalComposer(context).compose(request)
        expected = brute_force_best(context, request)
        if expected is None:
            assert not outcome.success
        else:
            assert outcome.success
            assert outcome.phi == pytest.approx(expected[0])

    def test_never_worse_than_random(self):
        """φ(optimal) ≤ φ(random pick) whenever both succeed."""
        system = build_small_system(seed=9, num_nodes=10)
        context = system.composition_context(rng=random.Random(1))
        rng = random.Random(2)
        checked = 0
        for attempt in range(20):
            template = system.templates.sample(rng)
            request = make_request(
                template.graph, request_id=attempt, delay_budget=500.0,
                loss_budget=0.4,
            )
            optimal = OptimalComposer(context).compose(request)
            context.allocator.cancel_transient(request.request_id)
            random_pick = RandomComposer(context).compose(request)
            context.allocator.cancel_transient(request.request_id)
            if optimal.success and random_pick.success:
                assert optimal.phi <= random_pick.phi + 1e-9
                checked += 1
        assert checked > 0

    def test_exploration_cap_truncates_gracefully(self):
        system = build_small_system(seed=3, num_nodes=10)
        context = system.composition_context(rng=random.Random(0))
        template = system.templates.sample(random.Random(5))
        request = make_request(template.graph, delay_budget=500.0, loss_budget=0.4)
        composer = OptimalComposer(context, max_explored=3)
        outcome = composer.compose(request)
        assert outcome.explored <= 3
        # either it found something within the cap or failed cleanly
        assert outcome.success or outcome.failure_reason is not None
