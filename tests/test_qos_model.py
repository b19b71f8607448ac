"""Unit tests for the load-dependent component QoS model."""

import pytest

from repro.model.qos_model import LoadDependentQoSModel
from tests.conftest import make_component, rv


@pytest.fixture
def model():
    return LoadDependentQoSModel(delay_load_factor=1.0, loss_load_factor=1.0)


class TestUtilization:
    def test_idle_is_zero(self, model):
        assert model.utilization(rv(100, 1000), rv(100, 1000)) == 0.0

    def test_full_is_one(self, model):
        assert model.utilization(rv(0, 0), rv(100, 1000)) == 1.0

    def test_worst_dimension_dominates(self, model):
        # cpu 50% used, memory 90% used -> utilization 0.9
        assert model.utilization(rv(50, 100), rv(100, 1000)) == pytest.approx(0.9)

    def test_clamped_to_unit_interval(self, model):
        # negative availability (transient overshoot) clamps at 1
        assert model.utilization(rv(-5, 0), rv(100, 1000)) == 1.0


class TestEffectiveQoS:
    def test_idle_host_keeps_base_qos(self, model, catalog):
        component = make_component(0, catalog[0], 0, delay=20.0, loss=0.004)
        qos = model.effective_qos(component, rv(100, 1000), rv(100, 1000))
        assert qos.delay == pytest.approx(20.0)
        assert qos.loss_rate == pytest.approx(0.004)

    def test_full_host_doubles_with_unit_factors(self, model, catalog):
        component = make_component(0, catalog[0], 0, delay=20.0, loss=0.004)
        qos = model.effective_qos(component, rv(0, 0), rv(100, 1000))
        assert qos.delay == pytest.approx(40.0)
        assert qos.loss_rate == pytest.approx(0.008)

    def test_zero_factors_recover_static_model(self, catalog):
        static = LoadDependentQoSModel(delay_load_factor=0.0, loss_load_factor=0.0)
        component = make_component(0, catalog[0], 0, delay=20.0, loss=0.004)
        qos = static.effective_qos(component, rv(0, 0), rv(100, 1000))
        assert qos == component.qos

    def test_loss_clamped_below_one(self, catalog):
        model = LoadDependentQoSModel(loss_load_factor=1e9)
        component = make_component(0, catalog[0], 0, loss=0.01)
        qos = model.effective_qos(component, rv(0, 0), rv(100, 1000))
        assert qos.loss_rate < 1.0

    def test_monotone_in_load(self, model, catalog):
        component = make_component(0, catalog[0], 0, delay=20.0)
        lighter = model.effective_qos(component, rv(80, 800), rv(100, 1000))
        heavier = model.effective_qos(component, rv(20, 200), rv(100, 1000))
        assert heavier.delay > lighter.delay
        assert heavier.loss_rate >= lighter.loss_rate

    def test_negative_factors_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LoadDependentQoSModel(delay_load_factor=-1.0)


class TestContextViews:
    def test_precise_vs_stale_divergence(self, micro_context):
        """Loading a node below the update threshold: the precise view sees
        slower components, the stale view still reports base QoS."""
        component = micro_context.registry.component(2)  # on v2 (100 cpu)
        micro_context.network.node(2).allocate(rv(8, 80))  # under threshold
        precise = micro_context.precise_component_qos(component)
        stale = micro_context.stale_component_qos(component)
        assert precise.delay > component.qos.delay
        assert stale.delay == pytest.approx(component.qos.delay)

    def test_views_agree_after_reported_update(self, micro_context):
        component = micro_context.registry.component(2)
        micro_context.network.node(2).allocate(rv(30, 300))  # over threshold
        precise = micro_context.precise_component_qos(component)
        stale = micro_context.stale_component_qos(component)
        assert stale.delay == pytest.approx(precise.delay)
