"""Unit tests for per-hop candidate selection (Eqs. 6-10)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.selection import ScoredCandidate, probe_budget
from tests.conftest import make_component, qv, rv
from tests.oracles.scalar_scorer import (
    congestion_value,
    qualification_failure,
    risk_value,
    select_best,
)


class TestRiskValue:
    def test_max_over_metrics(self):
        # delay at 50% of budget, loss at 80% of budget
        requirement = qv(100.0, 0.1)
        loss_at_80_percent = 1 - (1 - 0.1) ** 0.8
        accumulated = qv(50.0, loss_at_80_percent)
        assert risk_value(accumulated, requirement) == pytest.approx(0.8, rel=1e-6)

    def test_violation_exceeds_one(self):
        assert risk_value(qv(150.0, 0.0), qv(100.0, 0.1)) > 1.0

    def test_zero_accumulation_zero_risk(self):
        assert risk_value(qv(0.0, 0.0), qv(100.0, 0.1)) == 0.0


class TestCongestionValue:
    def test_matches_required_over_available(self):
        value = congestion_value(rv(5, 20), rv(50, 200))
        assert value == pytest.approx(5 / 50 + 20 / 200)

    def test_includes_bandwidth_terms(self):
        value = congestion_value(rv(0, 0), rv(10, 10), [100.0], [1000.0])
        assert value == pytest.approx(0.1)

    def test_multiple_links_for_joins(self):
        value = congestion_value(rv(0, 0), rv(10, 10), [100.0, 200.0], [1000.0, 1000.0])
        assert value == pytest.approx(0.3)

    def test_saturated_link_inf(self):
        assert math.isinf(congestion_value(rv(0, 0), rv(1, 1), [10.0], [0.0]))

    def test_zero_bandwidth_requirement_free(self):
        assert congestion_value(rv(0, 0), rv(1, 1), [0.0], [0.0]) == 0.0


class TestQualification:
    def test_qualified(self):
        assert (
            qualification_failure(
                qv(50.0, 0.01), qv(100.0, 0.1), rv(5, 20), rv(50, 200), [100.0], [500.0]
            )
            is None
        )

    def test_eq6_qos(self):
        assert (
            qualification_failure(
                qv(150.0, 0.01), qv(100.0, 0.1), rv(5, 20), rv(50, 200)
            )
            == "qos"
        )

    def test_eq7_node_resources(self):
        assert (
            qualification_failure(
                qv(10.0, 0.0), qv(100.0, 0.1), rv(60, 20), rv(50, 200)
            )
            == "node_resources"
        )

    def test_eq8_link_bandwidth(self):
        assert (
            qualification_failure(
                qv(10.0, 0.0), qv(100.0, 0.1), rv(5, 20), rv(50, 200), [600.0], [500.0]
            )
            == "link_bandwidth"
        )


def scored(component_id, risk, congestion, catalog):
    return ScoredCandidate(
        candidate=make_component(component_id, catalog[0], component_id),
        risk=risk,
        congestion=congestion,
        accumulated_qos=qv(0.0, 0.0),
    )


class TestSelectBest:
    def test_lower_risk_wins(self, catalog):
        pool = [scored(0, 0.9, 0.1, catalog), scored(1, 0.2, 0.9, catalog)]
        best = select_best(pool, 1)
        assert best[0].candidate.component_id == 1

    def test_similar_risk_breaks_on_congestion(self, catalog):
        pool = [scored(0, 0.50, 0.9, catalog), scored(1, 0.52, 0.1, catalog)]
        best = select_best(pool, 1, risk_tie_epsilon=0.05)
        assert best[0].candidate.component_id == 1

    def test_distinct_risk_buckets_ignore_congestion(self, catalog):
        pool = [scored(0, 0.2, 0.9, catalog), scored(1, 0.8, 0.0, catalog)]
        best = select_best(pool, 1, risk_tie_epsilon=0.05)
        assert best[0].candidate.component_id == 0

    def test_limit_respected(self, catalog):
        pool = [scored(i, 0.1 * i, 0.0, catalog) for i in range(10)]
        assert len(select_best(pool, 3)) == 3

    def test_zero_limit(self, catalog):
        assert select_best([scored(0, 0.1, 0.1, catalog)], 0) == []

    def test_deterministic_tiebreak_on_id(self, catalog):
        pool = [scored(5, 0.5, 0.5, catalog), scored(2, 0.5, 0.5, catalog)]
        best = select_best(pool, 1)
        assert best[0].candidate.component_id == 2


class TestProbeBudget:
    def test_paper_example(self):
        """α = 0.3 with ten candidates probes 0.3 × 10 = 3."""
        assert probe_budget(0.3, 10) == 3

    def test_ceiling(self):
        assert probe_budget(0.3, 5) == 2  # ceil(1.5)

    def test_at_least_one(self):
        assert probe_budget(0.01, 3) == 1

    def test_full_ratio_probes_all(self):
        assert probe_budget(1.0, 7) == 7

    def test_zero_candidates(self):
        assert probe_budget(0.5, 0) == 0

    def test_invalid_ratio(self):
        with pytest.raises(ValueError, match="probing ratio"):
            probe_budget(0.0, 5)
        with pytest.raises(ValueError, match="probing ratio"):
            probe_budget(1.1, 5)

    def test_negative_candidates(self):
        with pytest.raises(ValueError, match="negative"):
            probe_budget(0.5, -1)


@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.integers(min_value=1, max_value=1000),
)
def test_probe_budget_bounds(ratio, count):
    budget = probe_budget(ratio, count)
    assert 1 <= budget <= count
    assert budget >= ratio * count - 1e-9  # never probes fewer than α·k
