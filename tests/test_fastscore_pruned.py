"""Locality-pruned candidate scoring: decision identity and fallback.

The pruning contract has three legs, each pinned here:

* **k >= N is the full scan.**  Whenever the neighbourhood covers the
  whole overlay, the pruned gather excludes exactly the candidates the
  full scan masks as unreachable, every gathered float is byte-identical
  (bounded trees are prefixes of the router's trees), and pool order is
  preserved — so composition decisions are *identical*, hypothesis-swept
  over neighbourhood sizes, probing ratios, and QoS tightness.
* **Aggressive pruning trades scan work, not success.**  A pruned level
  that qualifies nothing deterministically widens and re-scores; with a
  tiny k the widen counters spin but the success count matches the full
  scan's.
* **The default config is untouched.**  ``candidate_prune_k=None`` never
  constructs a neighbourhood index, and a fig7 cell replays byte-identical
  to the PR 6 tree (values below were generated at the PR 6 tip and are
  reproduced by today's default path).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ACPComposer
from repro.experiments import EVALUATION_DEPLOYMENT, EXPERIMENTS
from repro.experiments.config import ExperimentScale
from repro.simulation import SystemConfig, build_system
from tests.test_fastscore import outcome_signature, requests_for

CONFIG = SystemConfig(
    num_routers=240, num_nodes=100, deployment=EVALUATION_DEPLOYMENT, seed=7
)

_SYSTEM = None


def shared_system():
    """One built system reused across examples (state is per-context)."""
    global _SYSTEM
    if _SYSTEM is None:
        _SYSTEM = build_system(CONFIG)
    return _SYSTEM


def run_signatures(prune_k, ratio=0.3, qos=(420.0, 0.25), count=20):
    """Outcome signatures of an ACP stream at a given prune setting.

    The context is rebuilt per run (fresh rng, fresh scorer); the prune
    size is set directly on it, which is exactly what
    ``composition_context`` does after resolving the config spec.
    """
    system = shared_system()
    context = system.composition_context(rng=random.Random(11))
    context.candidate_prune_k = prune_k
    composer = ACPComposer(context, probing_ratio=ratio)
    signatures = []
    for request in requests_for(system, count, qos=qos):
        outcome = composer.compose(request)
        signatures.append(outcome_signature(request, outcome))
        context.allocator.cancel_transient(request.request_id)
    index = context._neighborhood_index
    if index is not None:
        index.close()
    return signatures, context


class TestDecisionIdentityAtFullCoverage:
    def test_k_equal_n_identical(self):
        full, _ = run_signatures(None)
        pruned, context = run_signatures(100)
        assert full == pruned
        assert context.fast_scorer().widen_retries == 0

    def test_k_above_n_identical_tight_qos(self):
        full, _ = run_signatures(None, ratio=0.5, qos=(180.0, 0.08))
        pruned, _ = run_signatures(250, ratio=0.5, qos=(180.0, 0.08))
        assert full == pruned

    @given(
        k=st.integers(min_value=100, max_value=400),
        ratio=st.sampled_from([0.2, 0.5, 1.0]),
        tight=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_hypothesis_k_ge_n_decision_identical(self, k, ratio, tight):
        qos = (200.0, 0.1) if tight else (420.0, 0.25)
        full, _ = run_signatures(None, ratio=ratio, qos=qos, count=8)
        pruned, _ = run_signatures(k, ratio=ratio, qos=qos, count=8)
        assert full == pruned


class TestWidenFallback:
    def test_aggressive_prune_preserves_success_via_widening(self):
        full, _ = run_signatures(None, count=30)
        pruned, context = run_signatures(8, count=30)
        assert context.fast_scorer().widen_retries > 0
        assert sum(s[0] for s in pruned) == sum(s[0] for s in full)

    def test_membership_mask_is_clean_between_levels(self):
        """Each pruned level resets the neighbourhood mask at the members
        it set.  A leak would change no decision (non-members still read
        as unreachable) but would grow every later level's pool."""
        _, context = run_signatures(8, count=30)
        scorer = context.fast_scorer()
        assert scorer.widen_retries > 0
        assert not scorer._in_neighborhood.any()

    def test_widen_counter_lands_in_traces(self):
        from repro.observability import TraceRecorder

        system = shared_system()
        recorder = TraceRecorder()
        context = system.composition_context(
            rng=random.Random(11), recorder=recorder
        )
        context.candidate_prune_k = 8
        composer = ACPComposer(context, probing_ratio=0.3)
        for request in requests_for(system, 10):
            composer.compose(request)
            context.allocator.cancel_transient(request.request_id)
        counters = recorder.registry.snapshot()["counters"]
        assert counters.get("fastscore.widen_retries", 0) > 0
        assert counters.get("neighborhood.solve", 0) > 0
        context._neighborhood_index.close()


class TestDefaultPathUntouched:
    def test_default_config_builds_no_index(self):
        _, context = run_signatures(None, count=5)
        assert context._neighborhood_index is None

    def test_config_resolves_auto_spec(self):
        system = shared_system()
        assert system.composition_context().candidate_prune_k is None
        auto = build_system(
            SystemConfig(
                num_routers=240,
                num_nodes=100,
                deployment=EVALUATION_DEPLOYMENT,
                seed=7,
                candidate_prune_k="auto",
            )
        )
        # auto floors at 256, capped at N=100: full coverage at paper scale
        assert auto.composition_context().candidate_prune_k == 100
        auto.router.close()
        auto.global_state.close()

    def test_malformed_spec_fails_at_build_time(self):
        with pytest.raises(ValueError, match="candidate_prune_k"):
            build_system(
                SystemConfig(
                    num_routers=240, num_nodes=100, candidate_prune_k="fast"
                )
            )

    def test_fig7_cell_replays_pr6_bytes(self):
        """One fig7 cell under the default config reproduces the exact
        floats measured at the PR 6 tip (commit f05a0d7) — the committed
        figures replay byte-identically with pruning merged but off."""
        tiny = ExperimentScale(
            name="tiny",
            num_routers=120,
            duration_s=240.0,
            adaptability_duration_s=540.0,
            sampling_period_s=60.0,
            optimal_max_explored=3000,
        )
        success, overhead = EXPERIMENTS["fig7"].run(
            scale=tiny, counts=(80,), algorithms=("ACP",), seed=1
        ).figures
        assert success.series["ACP"].points == ((80, 0.31085043988269795),)
        assert overhead.series["ACP"].points == ((80, 371.75),)
