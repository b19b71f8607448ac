"""Probe messages (Section 3.1, 3.3).

A probe carries "the composition request information (e.g., the function
graph ξ, QoS constraints Q^req, resource constraints R^req) and the probing
ratio α", and as it travels it accumulates (a) a partial component
composition and (b) the *precise* QoS/resource states collected from the
nodes it visits — the fine-grain information the deputy's final selection
runs on.

Here a probe carries only what later hops and the final selection read:
the request, the partial composition and the QoS accumulated through
each placed component.  The probing ratio stays with the composer for the whole
compose.  Precise node and link state is checked on arrival
(``repro.core.prober``) but not carried: the deputy's final selection
re-reads precise state itself (``repro.core.composer``), and composes run
one at a time, so nothing else changes that state between a probe's
visit and the selection.

:class:`Probe` is an immutable-ish record: spawning a child probe copies
the parent's state and extends it with the next-hop component (the paper's
"Each new probe ... inherits the states collected by its parent probe").
The hop-by-hop protocol around probes lives in ``repro.core.prober``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict

from repro.model.component import Component
from repro.model.qos import QoSVector
from repro.model.request import StreamRequest


@dataclass
class Probe:
    """One probe message with its partial composition and collected state."""

    probe_id: int
    request: StreamRequest
    #: function placement index -> selected component, for assigned prefixes
    assignment: Dict[int, Component] = field(default_factory=dict)
    #: placement index -> worst-path QoS accumulated through its *output*
    accumulated_out: Dict[int, QoSVector] = field(default_factory=dict)

    def spawn(
        self,
        probe_id: int,
        function_index: int,
        component: Component,
        accumulated: QoSVector,
    ) -> "Probe":
        """Child probe extending this one with ``component`` at the placement,
        whose output accumulates ``accumulated``."""
        assignment = dict(self.assignment)
        assignment[function_index] = component
        accumulated_out = dict(self.accumulated_out)
        accumulated_out[function_index] = accumulated
        return Probe(
            probe_id=probe_id,
            request=self.request,
            assignment=assignment,
            accumulated_out=accumulated_out,
        )

    def __repr__(self) -> str:
        placements = ",".join(
            f"F{i}:c{c.component_id}" for i, c in sorted(self.assignment.items())
        )
        return f"Probe(#{self.probe_id} req={self.request.request_id} [{placements}])"


class ProbeFactory:
    """Dense probe-id assignment within one composition attempt."""

    def __init__(self) -> None:
        self._counter = itertools.count()

    def initial(self, request: StreamRequest) -> Probe:
        """The deputy's initial probe P0 (Section 3.3, step 1)."""
        return Probe(probe_id=next(self._counter), request=request)

    def next_id(self) -> int:
        """A fresh probe id for a spawned child."""
        return next(self._counter)
