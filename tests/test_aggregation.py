"""Unit tests for the periodic virtual-link aggregation round."""

import pytest

from repro.state.aggregation import AggregationManager


class TestAggregation:
    def test_broadcast_message_accounting(self, micro_network):
        manager = AggregationManager(micro_network)
        cost = manager.run_round()
        assert cost == len(micro_network) - 1
        assert manager.broadcast_messages == cost
        manager.run_round()
        assert manager.broadcast_messages == 2 * cost

    def test_invalid_period_rejected(self, micro_network):
        with pytest.raises(ValueError, match="period"):
            AggregationManager(micro_network, period_s=0.0)
