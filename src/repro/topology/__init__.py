"""Network substrate: power-law IP topology, overlay mesh, routing.

Reproduces Section 4.1's network setup: an Inet-style 3200-router power-law
IP graph, N stream processing nodes connected into a K-neighbour overlay
mesh, and delay-based shortest-path routing on both layers.
"""

from repro.topology.ip_network import IPNetwork
from repro.topology.overlay import (
    InsufficientBandwidthError,
    OverlayLink,
    OverlayNetwork,
    build_overlay_network,
    default_node_capacity_sampler,
)
from repro.topology.powerlaw import (
    PowerLawTopologyGenerator,
    RouterGraph,
    RouterLink,
    sample_powerlaw_degrees,
)
from repro.topology.routing import OverlayRouter, RoutingError

__all__ = [
    "IPNetwork",
    "OverlayLink",
    "OverlayNetwork",
    "InsufficientBandwidthError",
    "build_overlay_network",
    "default_node_capacity_sampler",
    "PowerLawTopologyGenerator",
    "RouterGraph",
    "RouterLink",
    "sample_powerlaw_degrees",
    "OverlayRouter",
    "RoutingError",
]
