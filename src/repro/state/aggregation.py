"""Virtual-link state aggregation: the periodic dissemination round.

Section 3.2: "we select one node (e.g., the least loaded node) as the
aggregation node to calculate the states of all virtual links.  All other
nodes send significant QoS/resource state variations of their adjacent
overlay links to the aggregation node.  The aggregation node periodically
updates the global state with the states of all virtual links between all
pairs of nodes in the overlay mesh at large time interval (e.g., 10
minutes).  For load sharing, we switch the aggregation role among all
system nodes (e.g., round robin or least loaded first)."

:class:`AggregationManager` models the role's message cost.  The
*content* of the aggregation (bottleneck-over-stale-links) lives in
:meth:`GlobalStateManager.virtual_link_available_kbps`; what this class
adds is the periodic dissemination of the refreshed virtual-link table to
every node, counted as one message per receiving node.  Which node holds
the role is not modelled: the role consumes no node resources, so no
result could observe it or its rotation.
"""

from __future__ import annotations

from repro.topology.overlay import OverlayNetwork


class AggregationManager:
    """The periodic virtual-link aggregation round and its message cost."""

    def __init__(
        self,
        network: OverlayNetwork,
        period_s: float = 600.0,
    ) -> None:
        if period_s <= 0.0:
            raise ValueError(f"period must be positive, got {period_s}")
        self.network = network
        self.period_s = period_s
        #: messages spent disseminating the periodic virtual-link refresh
        self.broadcast_messages = 0
        #: how many aggregation rounds have run
        self.rounds = 0

    def run_round(self) -> int:
        """One periodic aggregation round.

        Recomputes the virtual-link table from reported overlay-link states
        (a no-op computationally here — the global state derives it on
        demand from the same reports) and disseminates it to every other
        node.  Returns the messages this round cost.
        """
        messages = len(self.network) - 1  # table push to every other node
        self.broadcast_messages += messages
        self.rounds += 1
        return messages
