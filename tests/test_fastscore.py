"""FastScorer against the scalar oracle, level by level.

``repro.core.fastscore`` scores each probing level as one batch of array
operations whose every step mirrors the scalar equations' operation
order.  The reference is ``tests/oracles/scalar_scorer.py``, which scores
the same level one (probe, candidate) pair at a time.  These tests wrap
the context's ``FastScorer.score_level`` so that every level the
production wavefront scores is re-scored by the oracle and compared
before the composer sees it:

* the pool — candidate, parent probe, congestion, accumulated QoS and
  pre-candidate QoS, entry by entry and in order — exactly;
* risk within ``RISK_REL_TOL``, fixed in advance: ``np.log1p`` and
  ``math.log1p`` may differ in the last ulp;
* the guided selection at budgets 1, 3 and 7 — exactly.

The request streams cover the trickiest paths: guided ACP probing
(risk/congestion ranking over the stale view), tight QoS bounds, failed
and recovering nodes (the per-request liveness mask, and routes and
bandwidth rows over a churned router), and random-probing (RP) hop
selection, whose rng draws index pool positions.

They also pin that per-request scoring state does not outlive one
``compose()`` call, that the scorer rejects inputs it cannot score
instead of answering wrongly, and that an exact risk and congestion tie
between two components falls to the lower component id.
"""

import math
import random
import sys

import numpy as np
import pytest

from repro.core import ACPComposer
from repro.core.baselines import RandomProbingComposer
from repro.core.fastscore import LevelPool, _CandidateTable
from repro.core.selection import RankingPolicy
from repro.experiments import EVALUATION_DEPLOYMENT
from repro.model.qos import QoSVector
from repro.model.qos_model import LoadDependentQoSModel
from repro.model.request import StreamRequest, derive_bandwidth_requirements
from repro.model.resources import DEFAULT_RESOURCE_SCHEMA, ResourceVector
from repro.simulation import FailureInjector, FaultPlan, SystemConfig, build_system
from tests.conftest import make_component
from tests.oracles.scalar_scorer import ScalarScorer, select_best
from tests.test_routing_differential import bandwidth_row

CONFIG = SystemConfig(
    num_routers=240, num_nodes=100, deployment=EVALUATION_DEPLOYMENT, seed=7
)


def fresh_context():
    system = build_system(CONFIG)
    return system, system.composition_context(rng=random.Random(11))


def requests_for(system, count, qos=(420.0, 0.25), rate=90.0):
    """A deterministic mixed-template request stream."""
    out = []
    for i in range(count):
        graph = system.templates[i % len(system.templates)].graph
        out.append(
            StreamRequest(
                request_id=i,
                function_graph=graph,
                qos_requirement=QoSVector(*qos),
                node_requirements={
                    j: ResourceVector(DEFAULT_RESOURCE_SCHEMA, [4.0, 25.0])
                    for j in range(len(graph))
                },
                bandwidth_requirements=derive_bandwidth_requirements(
                    graph, rate, 2.0
                ),
                stream_rate=rate,
            )
        )
    return out


def outcome_signature(request, outcome):
    """Everything a composition decision consists of."""
    if outcome.composition is None:
        assignment = None
    else:
        assignment = tuple(
            outcome.composition.component(i).component_id
            for i in range(len(request.function_graph))
        )
    return (
        outcome.success,
        assignment,
        outcome.probe_messages,
        outcome.setup_messages,
        outcome.explored,
        outcome.failure_reason,
    )


#: Risk tolerance, fixed before any run: four ulps relative.
RISK_REL_TOL = 4 * sys.float_info.epsilon

#: Selection budgets compared on every level.
SELECTION_BUDGETS = (1, 3, 7)


def expansion(entry):
    return (entry.candidate.component_id, id(entry.parent))


class OracleCheck:
    """Re-scores every level a context's FastScorer scores with the
    scalar oracle and asserts both agree before the composer sees it."""

    def __init__(self, composer):
        self.composer = composer
        self.oracle = ScalarScorer(composer.context)
        self.levels = 0
        self.entries = 0
        scorer = composer.context.fast_scorer()
        begin_request = scorer.begin_request
        score_level = scorer.score_level

        def checked_begin_request(request):
            begin_request(request)
            self.oracle.begin_request()

        def checked_score_level(*args):
            level = score_level(*args)
            self.compare(level, self.oracle.score_level(*args))
            return level

        scorer.begin_request = checked_begin_request
        scorer.score_level = checked_score_level

    def compare(self, level, expected):
        got = level.take(range(level.size))
        assert len(got) == len(expected)
        for fast, scalar in zip(got, expected):
            assert fast.candidate is scalar.candidate
            assert fast.parent is scalar.parent
            assert fast.congestion == scalar.congestion
            assert fast.accumulated_qos == scalar.accumulated_qos
            assert fast.pre_qos == scalar.pre_qos
            assert math.isclose(fast.risk, scalar.risk, rel_tol=RISK_REL_TOL)
        ranking = self.composer.ranking_policy
        for budget in SELECTION_BUDGETS:
            picked = level.select_best(budget, ranking=ranking)
            want = select_best(expected, budget, ranking=ranking)
            assert [expansion(e) for e in picked] == [expansion(e) for e in want]
        self.levels += 1
        self.entries += len(expected)

    def run(self, requests):
        context = self.composer.context
        for request in requests:
            self.composer.compose(request)
            context.allocator.cancel_transient(request.request_id)
        # the stream must reach scored pools, or nothing was compared
        assert self.levels > 0 and self.entries > 0


def test_acp_decisions_identical():
    system, context = fresh_context()
    check = OracleCheck(ACPComposer(context, probing_ratio=0.3))
    check.run(requests_for(system, 40))


def test_acp_decisions_identical_tight_qos():
    """Near-infeasible bounds exercise the qualification edges."""
    system, context = fresh_context()
    check = OracleCheck(ACPComposer(context, probing_ratio=0.5))
    check.run(requests_for(system, 40, qos=(180.0, 0.08), rate=120.0))


def test_acp_decisions_identical_with_down_nodes():
    """The vectorised liveness mask must match per-candidate alive checks,
    and levels must score over the churned router: crashes and recoveries
    go through the injector, so virtual links re-route around the down
    relays, and the mid-stream recovery leaves every bandwidth row cached
    so far from an older router epoch."""
    system, context = fresh_context()
    check = OracleCheck(ACPComposer(context, probing_ratio=0.3))
    requests = requests_for(system, 30)
    injector = FailureInjector(system.network, system.router, plan=FaultPlan())

    injector.crash_many([3, 17, 42, 80])
    check.run(requests[:15])
    # partial recovery mid-stream: the mask and the rows must track it
    injector.recover_many([3, 17])
    check.run(requests[15:])


def test_random_probing_decisions_identical():
    """RP samples pool positions, so pool order must match the oracle's
    entry for entry (risk and congestion are zero without global state)."""
    system, context = fresh_context()
    check = OracleCheck(RandomProbingComposer(context, probing_ratio=0.4))
    check.run(requests_for(system, 30))


def test_compose_leaves_no_per_request_state():
    """Per-request scoring state is compose()-local; nothing may leak
    onto the composer between requests."""
    system, context = fresh_context()
    composer = ACPComposer(context, probing_ratio=0.3)
    requests = requests_for(system, 3)

    composer.compose(requests[0])
    context.allocator.cancel_transient(requests[0].request_id)
    attrs_after_first = set(vars(composer))
    for request in requests[1:]:
        composer.compose(request)
        context.allocator.cancel_transient(request.request_id)
        assert set(vars(composer)) == attrs_after_first
    assert not hasattr(composer, "_stale_qos_memo")
    assert not hasattr(composer, "_stale_bw_memo")


class TestUnsupportedInputsRejected:
    """The scorer is specialised to the stock QoS model; any other is an
    error, never a silent other path."""

    def test_rejects_qos_model_subclass(self):
        class TunedModel(LoadDependentQoSModel):
            pass

        system, context = fresh_context()
        context.qos_model = TunedModel()
        with pytest.raises(ValueError, match="TunedModel"):
            ACPComposer(context, probing_ratio=0.3).compose(
                requests_for(system, 1)[0]
            )


def test_fast_scorer_is_shared_and_epoch_keyed():
    """One FastScorer per context, reused across composers and requests;
    its caches key on substrate epochs, not on requests."""
    system, context = fresh_context()
    first = ACPComposer(context, probing_ratio=0.3)
    second = ACPComposer(context, probing_ratio=0.6)
    assert context.fast_scorer() is context.fast_scorer()

    request = requests_for(system, 1)[0]
    first.compose(request)
    context.allocator.cancel_transient(request.request_id)
    scorer = context.fast_scorer()
    tables_before = dict(scorer._tables)
    second.compose(request)
    context.allocator.cancel_transient(request.request_id)
    # same registry version → the candidate tables were reused, not rebuilt
    for function_id, table in scorer._tables.items():
        assert tables_before.get(function_id) is table


def test_stale_arrays_equal_fresh_tables_across_a_compose_stream():
    """A table rebuilds its stale arrays only when the global state has
    republished one of its own nodes (per-node stamps).  After every
    compose of a stream that opens and closes sessions, each cached
    table's stale arrays equal those of a table built fresh from the
    current global state, and both the skip and the rebuild ran."""
    system, context = fresh_context()
    composer = ACPComposer(context, probing_ratio=0.3)
    scorer = context.fast_scorer()
    global_state = context.global_state
    sessions = []
    skipped = rebuilt = 0
    for request in requests_for(system, 40):
        outcome = composer.compose(request)
        context.allocator.cancel_transient(request.request_id)
        if outcome.success:
            sessions.append(context.allocator.commit(outcome.composition))
        if len(sessions) > 8:
            context.allocator.release(sessions.pop(0))
        for table in scorer._tables.values():
            moved = table.stale_version != global_state.node_version
            before = table.stale_available
            table.ensure_stale(context)
            if moved:
                skipped += table.stale_available is before
                rebuilt += table.stale_available is not before
            fresh = _CandidateTable(table.components, table.registry_version)
            fresh.ensure_stale(context)
            for name in ("stale_available", "stale_delay", "stale_loss"):
                assert np.array_equal(getattr(table, name), getattr(fresh, name))
    assert skipped and rebuilt


def test_bandwidth_rows_follow_the_router_epoch():
    """A cached stale bandwidth row is rebuilt once churn moves the
    router's epoch, even though the link state has not changed."""
    system, context = fresh_context()
    scorer = context.fast_scorer()
    router = context.router
    table = _CandidateTable(context.registry.components(), registry_version=0)
    link_version = context.global_state.link_version

    def fresh_row(source):
        return bandwidth_row(
            router, source, context.global_state.link_available_array
        )[table.node_ids]

    def scorer_row(source):
        return scorer._stale_bandwidth(source, table.node_ids, None, None)

    source = 0
    before = scorer_row(source)
    assert np.array_equal(before, fresh_row(source))
    # crash the first neighbour whose loss re-routes some candidate
    for relay in system.network.neighbors(source):
        router.set_down_nodes({relay})
        if not np.array_equal(fresh_row(source), before):
            break
    else:
        pytest.fail("no single crash changes the row")
    assert context.global_state.link_version == link_version
    assert np.array_equal(scorer_row(source), fresh_row(source))


def test_bandwidth_rows_follow_the_link_version():
    """A stale bandwidth memo row restarts once a link-state update moves
    ``link_version``: after every link's snapshot changes, the scorer reads
    the new values, not the ones folded before."""
    system, context = fresh_context()
    scorer = context.fast_scorer()
    global_state = context.global_state
    table = _CandidateTable(context.registry.components(), registry_version=0)
    source = 0
    before = scorer._stale_bandwidth(source, table.node_ids, None, None)
    link_version = global_state.link_version
    for link in system.network.links:
        link.allocate_bandwidth(0.5 * link.available_kbps)
    global_state.force_refresh()
    assert global_state.link_version > link_version
    after = scorer._stale_bandwidth(source, table.node_ids, None, None)
    want = bandwidth_row(
        context.router, source, global_state.link_available_array
    )[table.node_ids]
    assert np.array_equal(after, want)
    assert not np.array_equal(after, before)


@pytest.mark.parametrize("ranking", list(RankingPolicy))
def test_select_best_breaks_exact_ties_on_component_id(ranking, catalog):
    """Two distinct components with equal risk and equal congestion rank
    by component id, the lower first, whatever their pool order.  No
    wavefront cell produces such a tie, so only this test pins it."""
    function = catalog[1]
    table = _CandidateTable(
        [make_component(5, function, 0), make_component(2, function, 1)],
        registry_version=0,
    )
    pool = LevelPool(
        table,
        probes=[None],
        predecessors=(),
        probe_index=np.zeros(2, dtype=np.int64),
        candidate_index=np.arange(2, dtype=np.int64),
        risk=np.full(2, 0.4),
        congestion=np.full(2, 0.3),
        accumulated_delay=np.full(2, 10.0),
        accumulated_loss=np.full(2, 0.001),
        pre_delay=None,
        pre_loss=None,
    )
    (best,) = pool.select_best(1, ranking)
    assert best.candidate.component_id == 2
