"""Load-dependent component QoS.

Section 2.1 attaches time-varying QoS states (processing time, loss rate)
to components, and Section 3.2's hierarchical state manager exists
precisely because those states drift: nodes "update the global state only
when state variations ... exceed a specified threshold".  Footnote 2 makes
the load coupling explicit: "The component can drop data units when it is
overloaded."

:class:`LoadDependentQoSModel` realises that coupling: a component's
*effective* QoS inflates its deployed base values with the hosting node's
current utilisation,

    delay(u)  = base_delay · (1 + delay_load_factor · u)
    loss(u)   = base_loss  · (1 + loss_load_factor · u)

where u ∈ [0, 1] is the node's worst-dimension allocated fraction.  Both
the precise view (live node state — what probes observe on arrival) and
the coarse-grain view (the global state's stale availability snapshot —
what per-hop candidate selection ranks on) evaluate the same formula on
their respective inputs, so staleness distorts QoS guidance exactly the
way it distorts resource guidance.

Factors of zero recover the static-QoS model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.component import Component
from repro.model.qos import QoSVector
from repro.model.resources import ResourceVector

#: Effective loss rates are clamped just below certain loss so the additive
#: transform stays finite.
_MAX_LOSS = 0.999999


@dataclass(frozen=True)
class LoadDependentQoSModel:
    """Maps (component, host availability) to effective QoS values."""

    delay_load_factor: float = 1.0
    loss_load_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.delay_load_factor < 0.0 or self.loss_load_factor < 0.0:
            raise ValueError("load factors must be non-negative")

    @staticmethod
    def utilization(available: ResourceVector, capacity: ResourceVector) -> float:
        """Worst-dimension allocated fraction, clamped to [0, 1]."""
        worst = 0.0
        for avail, cap in zip(available.values, capacity.values):
            if cap > 0.0:
                worst = max(worst, 1.0 - avail / cap)
        return min(1.0, max(0.0, worst))

    def effective_qos(
        self,
        component: Component,
        available: ResourceVector,
        capacity: ResourceVector,
    ) -> QoSVector:
        """The component's QoS at the given host availability."""
        utilization = self.utilization(available, capacity)
        base = component.qos
        delay = base.delay * (1.0 + self.delay_load_factor * utilization)
        loss = min(
            _MAX_LOSS,
            base.loss_rate * (1.0 + self.loss_load_factor * utilization),
        )
        # validation provably passes: delay >= 0 (non-negative base times a
        # factor >= 1) and loss in [0, _MAX_LOSS] — skip it
        return QoSVector._raw((delay, loss))

    def effective_qos_arrays(
        self,
        base_delay: np.ndarray,
        base_loss: np.ndarray,
        utilization: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`effective_qos` over candidate arrays.

        ``base_delay``/``base_loss``/``utilization`` are parallel NumPy
        arrays (one entry per candidate); returns ``(delay, loss)`` arrays
        computed with exactly the scalar formula's operation order, so the
        vectorised probing path (``repro.core.fastscore``) scores candidates
        on bit-identical values.
        """
        delay = base_delay * (1.0 + self.delay_load_factor * utilization)
        loss = np.minimum(
            _MAX_LOSS, base_loss * (1.0 + self.loss_load_factor * utilization)
        )
        return delay, loss
