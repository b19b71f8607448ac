"""QoS vectors: the paper's (delay, loss rate) pair.

The paper (Section 2.1) associates a QoS vector ``[q_1, ..., q_m]`` with every
component and every (virtual) link, and accumulates QoS along a composed
application.  Footnote 3 states the modelling convention this module
implements:

    "we assume that QoS metrics are additive and minimum-optimal.  For
    non-additive metrics (e.g., loss rate), we can make them additive and
    minimum-optimal using logarithm and inverse transformations."

Concretely, the delay accumulates by plain summation, while the loss rate
accumulates multiplicatively (the probability a data unit survives a
pipeline is the product of per-stage survival probabilities) and becomes
additive in ``-log(1 - p)`` space.  Both are minimum-optimal: smaller is
better, and a user requirement is an upper bound.

The vector is fixed to the paper's running pair, processing/network delay
in milliseconds and data-unit loss rate in [0, 1), because nothing varies
it: every producer (overlay links, deployed components, the load-dependent
QoS model, workload requirements) writes exactly that pair, and the
vectorised scorer and the router's per-source rows carry one delay and one
loss array.
"""

from __future__ import annotations

import math
from typing import Tuple

#: Loss rates at or above this value are treated as total loss; the additive
#: transform diverges at p = 1 so we clamp slightly below.
_MAX_LOSS = 1.0 - 1e-12


class QoSVector:
    """An immutable (delay, loss rate) QoS vector.

    Supports accumulation (:meth:`combine`), requirement checks
    (:meth:`satisfies`), and the additive-space transform behind the ACP
    risk function (:meth:`additive_values`).
    """

    __slots__ = ("_values",)

    def __init__(self, delay: float, loss_rate: float) -> None:
        delay = float(delay)
        loss_rate = float(loss_rate)
        if delay < 0.0:
            raise ValueError(f"negative QoS value {delay} for metric 'delay'")
        if loss_rate < 0.0 or loss_rate >= 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        self._values = (delay, loss_rate)

    @classmethod
    def zero(cls) -> "QoSVector":
        """The identity element of :meth:`combine`: zero delay, zero loss."""
        return cls(0.0, 0.0)

    @classmethod
    def _raw(cls, values: Tuple[float, float]) -> "QoSVector":
        """Internal fast constructor skipping conversion and validation.

        Only for callers that can *prove* the values pass ``__init__``'s
        checks (two floats, delay ≥ 0, loss in [0, 1)) — e.g. the
        load-dependent QoS model, whose outputs are clamped below 1.
        """
        self = object.__new__(cls)
        self._values = values
        return self

    @property
    def values(self) -> Tuple[float, float]:
        """``(delay, loss_rate)`` as Python floats."""
        return self._values

    @property
    def delay(self) -> float:
        return self._values[0]

    @property
    def loss_rate(self) -> float:
        return self._values[1]

    def combine(self, other: "QoSVector") -> "QoSVector":
        """Accumulate ``other`` after ``self`` along a composition.

        Delays sum; loss rates compose as ``1 - (1 - a)(1 - b)``.
        """
        delay, loss = self._values
        other_delay, other_loss = other._values
        return QoSVector(delay + other_delay, 1.0 - (1.0 - loss) * (1.0 - other_loss))

    def satisfies(self, requirement: "QoSVector") -> bool:
        """True iff both metrics are within the (upper-bound) requirement."""
        delay, loss = self._values
        max_delay, max_loss = requirement._values
        return delay <= max_delay + 1e-12 and loss <= max_loss + 1e-12

    def additive_values(self) -> Tuple[float, float]:
        """Metric values mapped into the additive space (footnote 3).

        The delay passes through; the loss rate maps to ``-log(1 - p)``.
        The ACP risk function (Eq. 9) compares accumulated QoS against the
        requirement in this space so that ratios are meaningful for both
        metrics.
        """
        delay, loss = self._values
        return (delay, -math.log1p(-min(loss, _MAX_LOSS)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QoSVector) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        delay, loss = self._values
        return f"QoSVector(delay={delay:g}, loss_rate={loss:g})"


def elementwise_max(a: QoSVector, b: QoSVector) -> QoSVector:
    """Per-metric maximum of two vectors.

    Used for worst-path accumulation over DAG compositions: at a join, the
    QoS "seen" by the downstream stage is bounded by the worse branch per
    metric.  Valid for both metrics because both additive transforms are
    monotone.
    """
    (a_delay, a_loss), (b_delay, b_loss) = a.values, b.values
    return QoSVector(max(a_delay, b_delay), max(a_loss, b_loss))
