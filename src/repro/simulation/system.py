"""System assembly: one config → the full distributed stream processing
system of Section 4.1.

``build_system`` wires every substrate together deterministically from a
single seed: the power-law IP topology, the overlay mesh, component
deployment, routing, the hierarchical state manager, the aggregation role,
and the resource allocator.  Experiments construct one
:class:`StreamSystem` per (algorithm, parameter point) so that algorithms
compared at the same seed see byte-identical systems and workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple, Union

from repro.allocation.allocator import ResourceAllocator
from repro.core.composer import CompositionContext
from repro.discovery.deployment import ComponentDeployer, DeploymentProfile
from repro.discovery.registry import ComponentRegistry
from repro.model.functions import FunctionCatalog
from repro.model.templates import TemplateLibrary
from repro.observability import NULL_RECORDER, Recorder
from repro.state.aggregation import AggregationManager
from repro.state.global_state import GlobalStateManager
from repro.topology.ip_network import IPNetwork
from repro.topology.overlay import OverlayNetwork, build_overlay_network
from repro.topology.neighborhood import resolve_prune_k
from repro.topology.powerlaw import PowerLawTopologyGenerator
from repro.topology.routing import OverlayRouter


@dataclass(frozen=True)
class SystemConfig:
    """Knobs of the simulated distributed stream processing system.

    Defaults reproduce Section 4.1: a 3200-router power-law IP network,
    N stream processing nodes in a K-neighbour overlay mesh, 80 functions,
    20 application templates, and coarse-grain state updates at a 10 %
    drift threshold.  The section's other values are the defaults of the
    constructors ``build_system`` calls: the power-law exponent 2.2
    (``PowerLawTopologyGenerator``), overlay link bandwidths of
    20–100 Mbps (``build_overlay_network``), half the templates as DAGs
    (``TemplateLibrary``), a 10-minute aggregation period
    (``AggregationManager``) and a 10 s transient-reservation timeout
    (``ResourceAllocator``).
    """

    num_routers: int = 3200
    num_nodes: int = 400
    neighbors_per_node: int = 6
    catalog_size: int = 80
    num_formats: int = 3
    num_templates: int = 20
    template_path_length: Tuple[int, int] = (2, 5)
    deployment: DeploymentProfile = field(default_factory=DeploymentProfile)
    state_threshold_fraction: float = 0.1
    #: bound on the router's per-source tree/path/QoS caches: router memory
    #: is O(router_cache_size × N) instead of O(N²).  The default exceeds
    #: the paper's 600-node scale, so paper-scale runs never evict and
    #: replay byte-identically; the scale benchmark shrinks it.
    router_cache_size: int = 1024
    #: bound on the scorer's per-source stale-bandwidth-row cache
    #: (``repro.core.fastscore``); same O(bound × N) rationale.
    scorer_row_cache_size: int = 512
    #: locality-pruned candidate scoring: None (default) scores the full
    #: candidate pool at every level — committed figures replay
    #: byte-identically; "auto" derives a neighbourhood size from N
    #: (``repro.topology.neighborhood.resolve_prune_k``); an explicit int
    #: pins it.  A pruned level that yields no qualified expansion
    #: deterministically widens the neighbourhood and re-scores, so
    #: success is preserved, not traded away.
    candidate_prune_k: Union[int, str, None] = None
    #: bound on the neighbourhood index's (source, k) entry cache; each
    #: entry is O(k), so index memory is O(bound × k)
    neighborhood_cache_size: int = 1024
    seed: int = 0
    #: observability sink wired through every layer built from this
    #: config (router, composers, simulator); None means the shared
    #: zero-overhead null recorder.  Excluded from equality/hash so two
    #: configs describe the same system regardless of who watches it.
    recorder: Optional[Recorder] = field(
        default=None, compare=False, repr=False
    )

    def with_nodes(self, num_nodes: int) -> "SystemConfig":
        return replace(self, num_nodes=num_nodes)


@dataclass
class StreamSystem:
    """A fully wired system: topology, deployment, state, allocation."""

    config: SystemConfig
    catalog: FunctionCatalog
    templates: TemplateLibrary
    ip_network: IPNetwork
    network: OverlayNetwork
    router: OverlayRouter
    registry: ComponentRegistry
    global_state: GlobalStateManager
    aggregation: AggregationManager
    allocator: ResourceAllocator
    #: the recorder the system was built with (the null singleton unless
    #: the config asked for tracing)
    recorder: Recorder = NULL_RECORDER

    def composition_context(
        self,
        rng: Optional[random.Random] = None,
        clock: Callable[[], float] = lambda: 0.0,
        recorder: Optional[Recorder] = None,
    ) -> CompositionContext:
        """A composer-facing view of this system."""
        return CompositionContext(
            network=self.network,
            router=self.router,
            registry=self.registry,
            allocator=self.allocator,
            global_state=self.global_state,
            rng=rng or random.Random(self.config.seed + 1),
            clock=clock,
            recorder=recorder or self.recorder,
            scorer_row_cache_size=self.config.scorer_row_cache_size,
            candidate_prune_k=resolve_prune_k(
                self.config.candidate_prune_k, len(self.network)
            ),
            neighborhood_cache_size=self.config.neighborhood_cache_size,
        )

    def mean_candidates_per_function(self) -> float:
        """Average candidate pool size k (diagnostics for probe budgets)."""
        counts = [
            self.registry.candidate_count(function) for function in self.catalog
        ]
        return sum(counts) / len(counts)


def build_system(config: SystemConfig) -> StreamSystem:
    """Deterministically build the full system described by ``config``.

    Sub-seeds are derived from ``config.seed`` so each stage has an
    independent stream and changing one knob does not scramble the others.
    """
    recorder = config.recorder if config.recorder is not None else NULL_RECORDER
    # resolve early so a malformed prune spec fails at build time, not on
    # the first compose
    resolve_prune_k(config.candidate_prune_k, config.num_nodes)
    catalog = FunctionCatalog(size=config.catalog_size, num_formats=config.num_formats)
    templates = TemplateLibrary(
        catalog,
        size=config.num_templates,
        path_length_range=config.template_path_length,
        seed=config.seed * 7 + 1,
    )
    router_graph = PowerLawTopologyGenerator(
        num_routers=config.num_routers,
        seed=config.seed * 7 + 2,
    ).generate()
    ip_network = IPNetwork(router_graph)
    network = build_overlay_network(
        ip_network,
        num_nodes=config.num_nodes,
        neighbors_per_node=config.neighbors_per_node,
        rng=random.Random(config.seed * 7 + 3),
    )
    overlay_router = OverlayRouter(
        network, recorder=recorder, tree_cache_size=config.router_cache_size
    )
    registry = ComponentDeployer(catalog, profile=config.deployment).deploy(
        network, rng=random.Random(config.seed * 7 + 4)
    )
    global_state = GlobalStateManager(
        network, threshold_fraction=config.state_threshold_fraction
    )
    aggregation = AggregationManager(network)
    allocator = ResourceAllocator(network, overlay_router)
    return StreamSystem(
        config=config,
        catalog=catalog,
        templates=templates,
        ip_network=ip_network,
        network=network,
        router=overlay_router,
        registry=registry,
        global_state=global_state,
        aggregation=aggregation,
        allocator=allocator,
        recorder=recorder,
    )
