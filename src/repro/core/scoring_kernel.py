"""The elementwise batches of the fastscore inner loops.

The vectorised probing hot path (:mod:`repro.core.fastscore`) spends its
time in three elementwise batches over ``(probes × candidates)`` arrays:

* the per-predecessor **through-QoS fold** — upstream output QoS plus the
  gathered virtual-link row, max-folded into the worst-path accumulator;
* the **candidate finalisation** — worst-path QoS through the candidate
  itself (delay sum, raw-space loss composition);
* the **congestion fold** (Eq. 10) — per-dimension node terms broadcast
  over the probe axis, then per-predecessor link terms, summed in the
  scalar equation's term order.

Each is a pure function over float64 arrays whose elementwise IEEE
operation order matches the scalar equations, so
``tests/test_scoring_kernel.py`` can demand bit-equality with a
pure-Python loop.  The risk transform (Eq. 9) lives in fastscore itself.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np


def resolve_scoring_kernel(name: str = "numpy") -> str:
    """The scoring backend a run uses: always ``"numpy"``, whatever
    ``name`` says.

    Kept only because the benchmark harness (``perfbench/harness.py``)
    imports it to stamp each run, and that harness is changed only
    together with the benchmark itself; numpy is the one backend.
    """
    return "numpy"


def through_qos(
    out_delay: np.ndarray,
    out_loss: np.ndarray,
    link_delay: np.ndarray,
    link_loss: np.ndarray,
    accumulated_delay: Optional[np.ndarray],
    accumulated_loss: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """One predecessor's worst-path fold.

    ``out_*`` are per-probe columns ``(probes, 1)``; ``link_*`` are the
    gathered rows ``(probes, candidates)``.  Returns the updated
    ``(accumulated_delay, accumulated_loss)`` — the through-values on
    the first predecessor, the elementwise max fold afterwards.
    """
    through_delay = out_delay + link_delay
    through_loss = 1.0 - (1.0 - out_loss) * (1.0 - link_loss)
    if accumulated_delay is None or accumulated_loss is None:
        return through_delay, through_loss
    return (
        np.maximum(accumulated_delay, through_delay),
        np.maximum(accumulated_loss, through_loss),
    )


def finalize_qos(
    accumulated_delay: np.ndarray,
    accumulated_loss: np.ndarray,
    candidate_delay: np.ndarray,
    candidate_loss: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Worst-path QoS through the candidate itself (delay sum, raw-space
    loss composition); candidate arrays broadcast over the probe axis."""
    return (
        accumulated_delay + candidate_delay,
        1.0 - (1.0 - accumulated_loss) * (1.0 - candidate_loss),
    )


def congestion(
    requirement_values: Tuple[float, ...],
    available: np.ndarray,
    bandwidth_rows: List[Tuple[float, np.ndarray]],
    shape: Tuple[int, int],
) -> np.ndarray:
    """Eq. 10 over the ``(probes × candidates)`` batch, summing terms in
    the scalar order.  Node-resource terms depend only on the candidate,
    so they are computed once per dimension and broadcast over the probe
    axis — each row receives exactly the scalar sequence of additions.

    Division is only ever applied to strictly positive denominators
    (non-positive availability contributes ``inf`` directly), so no
    warnings fire and no errstate guard is needed.
    """
    total = np.zeros(shape)
    node_term = np.empty(available.shape[0])
    for dimension, required in enumerate(requirement_values):
        if required <= 0.0:
            continue
        column = available[:, dimension]
        node_term.fill(math.inf)
        np.divide(required, column, out=node_term, where=column > 0.0)
        total += node_term
    for bandwidth_required, rows in bandwidth_rows:
        if bandwidth_required <= 0.0:
            continue
        link_term = np.full(shape, math.inf)
        np.divide(bandwidth_required, rows, out=link_term, where=rows > 0.0)
        total += link_term
    return total
