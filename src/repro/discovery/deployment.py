"""Component deployment onto the overlay.

Section 4.1: "Each node provides a number of components whose functions are
selected from 80 pre-defined functions."  Section 2.1: "Due to the
constraints of security, software licence, and hardware requirements, we do
not assume that each node can provide all stream processing components."

:class:`ComponentDeployer` places component instances on overlay nodes and
returns the populated :class:`ComponentRegistry`.  Two properties the
evaluation depends on are guaranteed:

* **Coverage** — every catalog function gets at least one instance (a
  function with zero candidates would fail every request touching it for
  *every* algorithm, polluting the comparison with noise unrelated to
  composition quality).  The first pass deals one instance of each function
  to a distinct random node; remaining instances are placed uniformly.
* **Proportional scaling** — the per-node component count is drawn from a
  fixed range, so adding nodes grows every function's candidate pool
  proportionally, exactly the Section 4.2 scalability setup ("the number of
  candidate components for each function increases proportionally").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.discovery.registry import ComponentRegistry
from repro.model.component import Component
from repro.model.functions import FunctionCatalog, StreamFunction
from repro.model.qos import QoSVector
from repro.topology.overlay import OverlayNetwork


@dataclass(frozen=True)
class DeploymentProfile:
    """Distributions governing deployed component properties.

    Attributes:
        components_per_node: Inclusive range of instances per node.
        processing_delay_ms: Uniform range of component processing delay.
        loss_rate: Uniform range of component loss rate.
        max_input_rate: Uniform range of the interface's maximum input
            stream rate (data units/s).
        input_format_restriction_prob: Probability that a component narrows
            its accepted input formats to a single format (exercising the
            paper's interface compatibility filter); otherwise it accepts
            the whole format universe.
        attribute_pool: ``(tag, probability)`` pairs; each deployed
            component advertises each tag independently with its
            probability.  Empty by default — attribute constraints are the
            paper's future-work extension and off unless an experiment
            turns them on.
    """

    components_per_node: Tuple[int, int] = (1, 3)
    processing_delay_ms: Tuple[float, float] = (5.0, 50.0)
    loss_rate: Tuple[float, float] = (0.001, 0.01)
    max_input_rate: Tuple[float, float] = (150.0, 600.0)
    input_format_restriction_prob: float = 0.1
    attribute_pool: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        low, high = self.components_per_node
        if not (0 <= low <= high):
            raise ValueError(f"invalid components_per_node {self.components_per_node}")
        if not 0.0 <= self.input_format_restriction_prob <= 1.0:
            raise ValueError("input_format_restriction_prob must be in [0, 1]")
        for tag, probability in self.attribute_pool:
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"attribute probability for {tag!r} must be in [0, 1]"
                )


class ComponentDeployer:
    """Places component instances on nodes and builds the registry."""

    def __init__(
        self,
        catalog: FunctionCatalog,
        profile: DeploymentProfile = DeploymentProfile(),
    ) -> None:
        self.catalog = catalog
        self.profile = profile
        self._next_component_id = 0

    def _make_component(
        self, rng: random.Random, function: StreamFunction, node_id: int
    ) -> Component:
        profile = self.profile
        qos = QoSVector(
            rng.uniform(*profile.processing_delay_ms),
            rng.uniform(*profile.loss_rate),
        )
        formats = sorted(function.input_formats)
        if rng.random() < profile.input_format_restriction_prob:
            input_formats = frozenset([rng.choice(formats)])
        else:
            input_formats = function.input_formats
        output_format = rng.choice(sorted(function.output_formats))
        attributes = frozenset(
            tag
            for tag, probability in profile.attribute_pool
            if rng.random() < probability
        )
        component = Component(
            component_id=self._next_component_id,
            function=function,
            node_id=node_id,
            qos=qos,
            input_formats=input_formats,
            output_format=output_format,
            max_input_rate=rng.uniform(*profile.max_input_rate),
            attributes=attributes,
        )
        self._next_component_id += 1
        return component

    def deploy(
        self,
        network: OverlayNetwork,
        rng: Optional[random.Random] = None,
    ) -> ComponentRegistry:
        """Deploy components over ``network`` and return the registry.

        The total instance count is the sum of per-node draws from
        ``components_per_node``; the first ``len(catalog)`` instances cover
        every function once (on distinct nodes where possible).
        """
        # explicit fixed seed when the caller doesn't care about the stream;
        # never the process-global RNG, so builds replay byte-identically
        rng = rng if rng is not None else random.Random(0)
        registry = ComponentRegistry()
        per_node_quota = {
            node.node_id: rng.randint(*self.profile.components_per_node)
            for node in network.nodes
        }
        total = sum(per_node_quota.values())
        if total < len(self.catalog):
            raise ValueError(
                f"deployment too small: {total} instances cannot cover "
                f"{len(self.catalog)} functions; raise components_per_node "
                f"or add nodes"
            )

        # Pass 1: coverage — one instance of every function, dealt to nodes
        # with remaining quota in shuffled order.
        open_nodes = [n for n, quota in per_node_quota.items() if quota > 0]
        rng.shuffle(open_nodes)
        for function in self.catalog:
            node_id = open_nodes.pop(0)
            component = self._make_component(rng, function, node_id)
            network.node(node_id).host(component)
            registry.register(component)
            per_node_quota[node_id] -= 1
            if per_node_quota[node_id] > 0:
                open_nodes.append(node_id)
            if not open_nodes:
                open_nodes = [n for n, q in per_node_quota.items() if q > 0]
                rng.shuffle(open_nodes)

        # Pass 2: fill remaining quota with uniformly random functions.
        for node_id, quota in per_node_quota.items():
            for _ in range(quota):
                function = self.catalog[rng.randrange(len(self.catalog))]
                component = self._make_component(rng, function, node_id)
                network.node(node_id).host(component)
                registry.register(component)
        return registry
