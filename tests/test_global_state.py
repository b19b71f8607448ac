"""Unit tests for coarse-grain global state maintenance."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.state.global_state import GlobalStateManager
from tests.conftest import rv
from tests.test_routing_differential import random_mesh


@pytest.fixture
def state(micro_network):
    return GlobalStateManager(micro_network, threshold_fraction=0.1)


class TestThresholdUpdates:
    def test_initial_snapshot_is_exact(self, micro_network, state):
        for node in micro_network.nodes:
            assert state.node_available(node.node_id) == node.available

    def test_small_drift_not_reported(self, micro_network, state):
        node = micro_network.node(0)  # capacity 100 cpu, threshold 10
        node.allocate(rv(5, 50))  # below both thresholds (10 cpu / 100 MB)
        assert state.node_available(0) == node.capacity  # stale
        assert state.node_update_messages == 0

    def test_large_drift_reported(self, micro_network, state):
        node = micro_network.node(0)
        node.allocate(rv(20, 10))  # 20 cpu > 10 cpu threshold
        assert state.node_available(0) == node.available
        assert state.node_update_messages == 1

    def test_accumulated_drift_eventually_reported(self, micro_network, state):
        node = micro_network.node(0)
        for _ in range(3):
            node.allocate(rv(4, 1))  # each step small, drift accumulates
        assert state.node_update_messages == 1
        assert state.node_available(0) == node.available

    def test_link_threshold(self, micro_network, state):
        link = micro_network.link(0)  # capacity 10000, threshold 1000
        link.allocate_bandwidth(900.0)
        assert state.link_available_kbps(0) == 10_000.0
        assert state.link_update_messages == 0
        link.allocate_bandwidth(200.0)  # cumulative drift 1100 > threshold
        assert state.link_available_kbps(0) == pytest.approx(8_900.0)
        assert state.link_update_messages == 1

    def test_total_update_messages(self, micro_network, state):
        micro_network.node(0).allocate(rv(20, 10))
        micro_network.link(0).allocate_bandwidth(2_000.0)
        assert state.total_update_messages == 2


class TestQueries:
    def test_virtual_link_bottleneck_over_stale_states(self, micro_network, state):
        micro_network.link(0).allocate_bandwidth(3_000.0)  # reported
        assert state.virtual_link_available_kbps([0, 1]) == pytest.approx(7_000.0)

    def test_virtual_link_empty_path_infinite(self, state):
        assert state.virtual_link_available_kbps([]) == float("inf")

    def test_max_drift_fraction(self, micro_network, state):
        assert state.max_drift_fraction() == 0.0
        micro_network.node(0).allocate(rv(5, 0))  # 5% cpu drift, unreported
        assert state.max_drift_fraction() == pytest.approx(0.05)

    def test_force_refresh(self, micro_network, state):
        micro_network.node(0).allocate(rv(5, 0))
        state.force_refresh()
        assert state.max_drift_fraction() == 0.0


class TestQuantization:
    def test_values_snap_to_buckets(self, micro_network):
        state = GlobalStateManager(
            micro_network, threshold_fraction=0.0, quantization_levels=4
        )
        node = micro_network.node(0)  # 100 cpu capacity
        node.allocate(rv(30, 0))  # available 70 -> nearest bucket of 25s = 75
        assert state.node_available(0)["cpu"] == pytest.approx(75.0)

    def test_quantized_value_never_exceeds_capacity(self, micro_network):
        state = GlobalStateManager(
            micro_network, threshold_fraction=0.0, quantization_levels=3
        )
        for node in micro_network.nodes:
            snapshot = state.node_available(node.node_id)
            assert all(
                s <= c + 1e-9
                for s, c in zip(snapshot.values, node.capacity.values)
            )

    def test_exact_mode_by_default(self, state):
        assert state.quantization_levels is None

    def test_invalid_levels_rejected(self, micro_network):
        with pytest.raises(ValueError, match="quantization_levels"):
            GlobalStateManager(micro_network, quantization_levels=0)


class TestValidation:
    def test_bad_threshold_rejected(self, micro_network):
        with pytest.raises(ValueError, match="threshold_fraction"):
            GlobalStateManager(micro_network, threshold_fraction=1.5)


class TestNodeSnapshotArray:
    """The dense node-snapshot matrix and the per-node stamps that the
    scorer keys its stale arrays on."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        levels=st.sampled_from([None, 2, 5]),
        loss=st.sampled_from([0.0, 0.4]),
        steps=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_matrix_and_stamps_follow_every_published_change(
        self, seed, levels, loss, steps
    ):
        """After random allocate/release/refresh sequences, under update
        loss and value quantization, each matrix row equals the node's
        published snapshot and each stamp is the version of its node's
        last published change."""
        network = random_mesh(seed, num_nodes=6, extra_edges=4)
        state = GlobalStateManager(network, quantization_levels=levels)
        state.set_update_loss(loss, random.Random(seed))
        rng = random.Random(seed + 1)
        held = {node.node_id: [] for node in network.nodes}
        last_change = [0] * len(network)
        for _ in range(steps):
            node = network.node(rng.randrange(len(network)))
            version = state.node_version
            action = rng.random()
            if action < 0.1:
                state.force_refresh()
                last_change = [state.node_version] * len(network)
            elif held[node.node_id] and action < 0.5:
                amounts = held[node.node_id]
                node.release(amounts.pop(rng.randrange(len(amounts))))
            else:
                amount = rv(rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0))
                if node.can_allocate(amount):
                    node.allocate(amount)
                    held[node.node_id].append(amount)
            if action >= 0.1 and state.node_version != version:
                assert state.node_version == version + 1
                last_change[node.node_id] = state.node_version
            for other in network.nodes:
                assert state.node_available_array[other.node_id].tolist() == list(
                    state.node_available(other.node_id).values
                )
            assert state.node_stamps.tolist() == last_change

    def test_views_are_read_only(self, state):
        with pytest.raises(ValueError):
            state.node_available_array[0, 0] = 1.0
        with pytest.raises(ValueError):
            state.node_stamps[0] = 1
