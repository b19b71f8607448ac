"""Unit tests for the periodic virtual-link aggregation round."""

import pytest

from repro.state.aggregation import AggregationManager
from repro.state.global_state import GlobalStateManager


class TestAggregation:
    @pytest.fixture
    def global_state(self, micro_network):
        return GlobalStateManager(micro_network)

    def test_broadcast_message_accounting(self, micro_network, global_state):
        manager = AggregationManager(micro_network, global_state)
        cost = manager.run_round()
        assert cost == len(micro_network) - 1
        assert manager.broadcast_messages == cost
        manager.run_round()
        assert manager.broadcast_messages == 2 * cost

    def test_invalid_period_rejected(self, micro_network, global_state):
        with pytest.raises(ValueError, match="period"):
            AggregationManager(micro_network, global_state, period_s=0.0)
