"""Hierarchical state management (paper Section 3.2).

Coarse-grain threshold-triggered global state and the periodic
virtual-link aggregation round.  Probes read each node's precise local
state from the live node and link entities, so it needs no module here.
"""

from repro.state.aggregation import AggregationManager
from repro.state.global_state import GlobalStateManager

__all__ = [
    "AggregationManager",
    "GlobalStateManager",
]
