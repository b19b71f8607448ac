"""Unit tests for QoS vectors."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.model.qos import QoSVector, elementwise_max
from tests.conftest import qv
from tests.oracles.scalar_scorer import combine_all, utilization


class TestQoSVectorConstruction:
    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            qv(-1.0)

    def test_loss_of_one_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            qv(1.0, 1.0)

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            qv(1.0, -0.1)

    def test_numpy_inputs_stored_as_python_floats(self):
        vector = QoSVector(np.float64(1.5), np.float32(0.25))
        assert [type(value) for value in vector.values] == [float, float]
        assert repr(vector) == "QoSVector(delay=1.5, loss_rate=0.25)"

    def test_zero_vector(self):
        zero = QoSVector.zero()
        assert zero.values == (0.0, 0.0)

    def test_named_access(self):
        vector = qv(12.5, 0.01)
        assert vector.delay == 12.5
        assert vector.loss_rate == 0.01

    def test_repr_mentions_metric_names(self):
        assert "delay=3" in repr(qv(3.0))


class TestCombine:
    def test_delay_adds(self):
        assert qv(10.0).combine(qv(15.0)).delay == 25.0

    def test_loss_composes_multiplicatively(self):
        combined = qv(0.0, 0.1).combine(qv(0.0, 0.2))
        assert combined.loss_rate == pytest.approx(1 - 0.9 * 0.8)

    def test_zero_is_identity(self):
        vector = qv(30.0, 0.05)
        assert vector.combine(QoSVector.zero()).values == pytest.approx(vector.values)
        assert QoSVector.zero().combine(vector).values == pytest.approx(vector.values)

    def test_combine_all_empty_is_zero(self):
        assert combine_all([]) == QoSVector.zero()

    def test_combine_all_folds(self):
        total = combine_all([qv(10.0, 0.1), qv(5.0, 0.1), qv(1.0, 0.0)])
        assert total.delay == 16.0
        assert total.loss_rate == pytest.approx(1 - 0.9 * 0.9)


class TestSatisfies:
    def test_within_bounds(self):
        assert qv(10.0, 0.01).satisfies(qv(10.0, 0.01))

    def test_delay_violation(self):
        assert not qv(10.1, 0.0).satisfies(qv(10.0, 0.01))

    def test_loss_violation(self):
        assert not qv(0.0, 0.02).satisfies(qv(10.0, 0.01))


class TestAdditiveTransform:
    def test_delay_passes_through(self):
        assert qv(42.0, 0.0).additive_values()[0] == 42.0

    def test_loss_maps_to_neg_log_survival(self):
        value = qv(0.0, 0.5).additive_values()[1]
        assert value == pytest.approx(-math.log(0.5))

    def test_zero_loss_maps_to_zero(self):
        assert qv(0.0, 0.0).additive_values()[1] == 0.0

    def test_transform_makes_loss_additive(self):
        # survival probabilities multiply <=> transformed values add
        a, b = qv(0.0, 0.1), qv(0.0, 0.3)
        combined = a.combine(b)
        assert combined.additive_values()[1] == pytest.approx(
            a.additive_values()[1] + b.additive_values()[1]
        )


class TestUtilization:
    def test_exact_budget_is_one(self):
        requirement = qv(100.0, 0.1)
        assert utilization(qv(100.0, 0.1), requirement) == pytest.approx((1.0, 1.0))

    def test_zero_budget_with_zero_use(self):
        assert utilization(qv(0.0, 0.0), qv(0.0, 0.0)) == (0.0, 0.0)

    def test_zero_budget_with_nonzero_use_is_inf(self):
        assert utilization(qv(5.0, 0.0), qv(0.0, 0.1))[0] == math.inf

    def test_half_budget(self):
        assert utilization(qv(50.0, 0.0), qv(100.0, 0.1))[0] == pytest.approx(0.5)


class TestElementwiseMax:
    def test_picks_worst_per_metric(self):
        worst = elementwise_max(qv(10.0, 0.01), qv(5.0, 0.05))
        assert worst.delay == 10.0
        assert worst.loss_rate == 0.05

    def test_idempotent(self):
        vector = qv(3.0, 0.2)
        assert elementwise_max(vector, vector) == vector


# -- property-based tests ------------------------------------------------------

delays = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
losses = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)
vectors = st.builds(lambda d, l: qv(d, l), delays, losses)


@given(vectors, vectors, vectors)
def test_combine_is_associative(a, b, c):
    left = a.combine(b).combine(c)
    right = a.combine(b.combine(c))
    assert left.values == pytest.approx(right.values)


@given(vectors, vectors)
def test_combine_is_commutative(a, b):
    assert a.combine(b).values == pytest.approx(b.combine(a).values)


@given(vectors, vectors)
def test_combine_never_improves_qos(a, b):
    """Both metrics are minimum-optimal: accumulation is monotone."""
    combined = a.combine(b)
    assert combined.delay >= a.delay
    assert combined.loss_rate >= a.loss_rate - 1e-12


@given(vectors, vectors)
def test_additive_transform_is_monotone(a, b):
    combined = a.combine(b)
    assert all(
        c >= x - 1e-9
        for c, x in zip(combined.additive_values(), a.additive_values())
    )


@given(vectors)
def test_satisfies_is_reflexive(a):
    assert a.satisfies(a)
