"""Coarse-grain global state maintenance (Section 3.2).

"The global state consists of: (1) the QoS and resource states of all
nodes, and (2) the QoS and resource states of all virtual links between all
pairs of nodes. ... For scalability, the global state update is performed
at a coarse-grain level.  The global state update is triggered only when
state variations on a node or an overlay link exceed a specified threshold."

:class:`GlobalStateManager` keeps *stale snapshots* of every node's
available resources and every overlay link's available bandwidth.  It
subscribes to entity change events and refreshes a snapshot — counting one
update message — only when the drift since the last report exceeds
``threshold_fraction`` of the metric's maximum value (the paper's
experiments use 10 %; its running examples are "100 KB of memory",
"200 kbps of bandwidth" absolute thresholds, which the fraction
generalises).

Virtual-link state is *derived*: overlay-link reports flow to the current
aggregation node (see ``repro.state.aggregation``), and the global view of
a virtual link's bandwidth is the bottleneck over the *stale* states of its
constituent overlay links — so a consumer of the global state sees exactly
the coarse-grain picture the paper describes, while live entities may have
drifted within the threshold.

Component QoS values are static in this system, so their global snapshot is
exact and free (the paper's QoS-state updates follow the same threshold
rule; with static QoS they simply never fire).
"""

from __future__ import annotations

import random
import sys
from typing import Dict, Iterable, Optional

import numpy as np

from repro.model.node import Node
from repro.model.resources import ResourceVector
from repro.topology.overlay import OverlayLink, OverlayNetwork


class GlobalStateManager:
    """Threshold-triggered coarse-grain snapshots of nodes and links.

    ``quantization_levels`` optionally coarsens the *values* as well as the
    update cadence: reported availabilities are rounded to one of L buckets
    of the entity's capacity.  This models a global state that carries
    coarse-grain summaries ("about half free") rather than exact figures;
    the state-granularity ablation sweeps it.  ``None`` reports exact
    values at threshold-triggered times.
    """

    def __init__(
        self,
        network: OverlayNetwork,
        threshold_fraction: float = 0.1,
        quantization_levels: Optional[int] = None,
    ) -> None:
        if not 0.0 <= threshold_fraction <= 1.0:
            raise ValueError(
                f"threshold_fraction must be in [0, 1], got {threshold_fraction}"
            )
        if quantization_levels is not None and quantization_levels < 1:
            raise ValueError(
                f"quantization_levels must be >= 1, got {quantization_levels}"
            )
        self.network = network
        self.threshold_fraction = threshold_fraction
        self.quantization_levels = quantization_levels
        self._closed = False
        #: messages spent on node state updates since construction
        self.node_update_messages = 0
        #: messages spent on overlay-link reports to the aggregation node
        self.link_update_messages = 0
        #: update messages the (lossy) management plane dropped; the
        #: snapshot they carried stays stale until the next drift trigger
        self.node_updates_lost = 0
        self.link_updates_lost = 0
        # state-update loss is off by default; see set_update_loss()
        self._update_loss_probability = 0.0
        self._loss_rng: Optional[random.Random] = None
        #: monotone epochs, bumped whenever a published snapshot changes;
        #: consumers (``repro.core.fastscore``) key derived caches on them
        self.node_version = 0
        self.link_version = 0

        self._node_snapshots: Dict[int, ResourceVector] = {}
        # link snapshots live in a dense array (link ids are dense 0..m-1)
        # so bulk consumers — the per-source bottleneck-bandwidth rows of
        # repro.core.fastscore — read the whole coarse-grain link state in
        # one vectorised gather
        self._link_snapshots = np.zeros(len(network.links))
        self._link_snapshot_view = self._link_snapshots.view()
        self._link_snapshot_view.setflags(write=False)
        # raw values at the last report: the threshold compares against
        # these, not the (possibly quantized) published snapshots, so value
        # quantization cannot re-trigger updates by itself
        self._node_reported: Dict[int, ResourceVector] = {}
        self._link_reported: Dict[int, float] = {}
        # per-dimension absolute thresholds derived from entity capacities
        self._node_thresholds: Dict[int, ResourceVector] = {}
        self._link_thresholds: Dict[int, float] = {}

        for node in network.nodes:
            self._node_snapshots[node.node_id] = self._quantize_node(node)
            self._node_reported[node.node_id] = node.available
            self._node_thresholds[node.node_id] = node.capacity.scaled(
                threshold_fraction
            )
            node.add_change_listener(self._on_node_change)
        for link in network.links:
            self._link_snapshots[link.link_id] = self._quantize_link(link)
            self._link_reported[link.link_id] = link.available_kbps
            self._link_thresholds[link.link_id] = (
                link.capacity_kbps * threshold_fraction
            )
            link.add_change_listener(self._on_link_change)
        # the node twin of the link array (node ids are dense 0..n-1), and
        # per node the node_version of its last published change
        self._node_matrix = np.array(
            [self._node_snapshots[node.node_id].values for node in network.nodes]
        )
        self._node_matrix_view = self._node_matrix.view()
        self._node_matrix_view.setflags(write=False)
        self._node_stamps = np.zeros(len(network), dtype=np.int64)
        self._node_stamps_view = self._node_stamps.view()
        self._node_stamps_view.setflags(write=False)

    def close(self) -> None:
        """Detach from the network's node/link change streams.

        A state manager observes every node and link; one that is replaced
        (fresh managers per experiment on a shared network) must deregister
        or the entities keep notifying — and referencing — the dead
        manager forever.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        for node in self.network.nodes:
            node.remove_change_listener(self._on_node_change)
        for link in self.network.links:
            link.remove_change_listener(self._on_link_change)

    def memory_footprint(self) -> Dict[str, int]:
        """Approximate resident bytes per state substructure.

        Dense node and link snapshots and the node stamps are exact
        ``nbytes``; the per-node dicts are
        ``sys.getsizeof`` estimates (container + vectors).  BENCH_scale
        uses this to attribute memory per subsystem.
        """
        node_state = 0
        for mapping in (
            self._node_snapshots,
            self._node_reported,
            self._node_thresholds,
        ):
            node_state += sys.getsizeof(mapping)
            for vector in mapping.values():
                node_state += sys.getsizeof(vector) + sys.getsizeof(vector.values)
        node_state += self._node_matrix.nbytes + self._node_stamps.nbytes
        link_state = int(self._link_snapshots.nbytes)
        for link_mapping in (self._link_reported, self._link_thresholds):
            link_state += sys.getsizeof(link_mapping)
            link_state += 32 * len(link_mapping)  # float keys/values boxes
        footprint = {"node_state": int(node_state), "link_state": link_state}
        footprint["total"] = sum(footprint.values())
        return footprint

    # -- quantization -----------------------------------------------------------

    def _quantize_value(self, value: float, capacity: float) -> float:
        levels = self.quantization_levels
        if levels is None or capacity <= 0.0:
            return value
        bucket = round(value / capacity * levels)
        return min(capacity, max(0.0, bucket * capacity / levels))

    def _quantize_node(self, node: Node) -> ResourceVector:
        available = node.available
        if self.quantization_levels is None:
            return available
        return ResourceVector(
            available.schema,
            [
                self._quantize_value(value, cap)
                for value, cap in zip(available.values, node.capacity.values)
            ],
        )

    def _quantize_link(self, link: OverlayLink) -> float:
        return self._quantize_value(link.available_kbps, link.capacity_kbps)

    # -- update path ---------------------------------------------------------

    def set_update_loss(
        self, probability: float, rng: Optional[random.Random] = None
    ) -> None:
        """Make the management plane lossy: each triggered update message is
        dropped independently with ``probability``.

        A dropped update leaves both the published snapshot *and* the
        last-reported raw value untouched, so the entity keeps re-triggering
        at every subsequent drift event until a report gets through — the
        snapshot goes genuinely stale rather than merely
        threshold-quantised.  The loss draws come from a dedicated ``rng``
        stream (never a composer's), so enabling zero-probability loss
        changes nothing.
        """
        if not 0.0 <= probability < 1.0:
            raise ValueError(f"probability must be in [0, 1), got {probability}")
        self._update_loss_probability = probability
        if probability > 0.0:
            self._loss_rng = rng if rng is not None else random.Random(0)

    def _update_lost(self) -> bool:
        if self._update_loss_probability <= 0.0:
            return False
        assert self._loss_rng is not None
        return self._loss_rng.random() < self._update_loss_probability

    def _on_node_change(self, node: Node) -> None:
        reported = self._node_reported[node.node_id]
        threshold = self._node_thresholds[node.node_id]
        current = node.available
        drift_exceeds = any(
            abs(cur - rep) > thr
            for cur, rep, thr in zip(
                current.values, reported.values, threshold.values
            )
        )
        if drift_exceeds:
            if self._update_lost():
                self.node_updates_lost += 1
                return
            snapshot = self._quantize_node(node)
            self._node_snapshots[node.node_id] = snapshot
            self._node_reported[node.node_id] = current
            self.node_update_messages += 1
            self.node_version += 1
            self._node_matrix[node.node_id] = snapshot.values
            self._node_stamps[node.node_id] = self.node_version

    def _on_link_change(self, link: OverlayLink) -> None:
        reported = self._link_reported[link.link_id]
        if abs(link.available_kbps - reported) > self._link_thresholds[link.link_id]:
            if self._update_lost():
                self.link_updates_lost += 1
                return
            self._link_snapshots[link.link_id] = self._quantize_link(link)
            self._link_reported[link.link_id] = link.available_kbps
            self.link_update_messages += 1
            self.link_version += 1

    def force_refresh(self) -> None:
        """Snapshot everything (used by tests and by a fresh system)."""
        for node in self.network.nodes:
            self._node_snapshots[node.node_id] = self._quantize_node(node)
            self._node_reported[node.node_id] = node.available
        for link in self.network.links:
            self._link_snapshots[link.link_id] = self._quantize_link(link)
            self._link_reported[link.link_id] = link.available_kbps
        self._node_matrix[:] = [
            self._node_snapshots[node.node_id].values for node in self.network.nodes
        ]
        self.node_version += 1
        self.link_version += 1
        self._node_stamps.fill(self.node_version)

    # -- query path (what ACP's candidate selection reads) --------------------

    def node_available(self, node_id: int) -> ResourceVector:
        """Coarse-grain available resources of a node."""
        return self._node_snapshots[node_id]

    @property
    def node_available_array(self) -> np.ndarray:
        """Coarse-grain available resources of every node, one row per
        node id (a read-only view; snapshot refreshes show through).
        Bulk consumers pair it with :attr:`node_stamps`."""
        return self._node_matrix_view

    @property
    def node_stamps(self) -> np.ndarray:
        """Per node id, the :attr:`node_version` at which its snapshot last
        changed (0 before any change; a read-only view)."""
        return self._node_stamps_view

    def link_available_kbps(self, link_id: int) -> float:
        """Coarse-grain available bandwidth of one overlay link."""
        return float(self._link_snapshots[link_id])

    @property
    def link_available_array(self) -> np.ndarray:
        """Coarse-grain available bandwidth of every overlay link, indexed
        by link id (a read-only view; snapshot refreshes show through).
        Bulk consumers pair it with :attr:`link_version`."""
        return self._link_snapshot_view

    def virtual_link_available_kbps(self, overlay_link_ids: Iterable[int]) -> float:
        """Coarse-grain bottleneck bandwidth of a virtual link.

        This is the aggregation-node computation of Section 3.2:
        ``ba_li = min(ba_e1, ..., ba_ek)`` over the *reported* link states.
        The empty path (co-located components) has infinite bandwidth.
        """
        available = float("inf")
        for link_id in overlay_link_ids:
            available = min(available, float(self._link_snapshots[link_id]))
        return available

    @property
    def total_update_messages(self) -> int:
        return self.node_update_messages + self.link_update_messages

    @property
    def total_updates_lost(self) -> int:
        return self.node_updates_lost + self.link_updates_lost

    def max_drift_fraction(self) -> float:
        """Largest current drift as a fraction of capacity (diagnostics)."""
        worst = 0.0
        for node in self.network.nodes:
            snapshot = self._node_snapshots[node.node_id]
            for cur, snap, cap in zip(
                node.available.values, snapshot.values, node.capacity.values
            ):
                if cap > 0:
                    worst = max(worst, abs(cur - snap) / cap)
        for link in self.network.links:
            snapshot = self._link_snapshots[link.link_id]
            worst = max(
                worst,
                abs(link.available_kbps - snapshot) / link.capacity_kbps,
            )
        return worst
