"""ACP — Adaptive Composition Probing (the paper's contribution).

:class:`ACPComposer` is the probing protocol with both of ACP's defining
choices enabled:

* per-hop candidate selection *guided by the coarse-grain global state*
  (risk function Eq. 9, congestion function Eq. 10, top-M under the
  probing ratio), and
* optimal final selection at the deputy: among compositions qualified
  against the probes' precise collected state, minimise the congestion
  aggregation φ(λ) of Eq. 1.

The *adaptive* half — tuning the probing ratio to hold a target
composition success rate — lives in
:class:`~repro.core.tuning.ProbingRatioTuner`; attach one via
:meth:`ACPComposer.attach_tuner` and the composer will read its ratio for
every request.
"""

from __future__ import annotations

from typing import Optional

from repro.core.composer import CompositionContext
from repro.core.prober import (
    FinalSelectionPolicy,
    HopSelectionPolicy,
    ProbingComposer,
)
from repro.core.tuning import RatioTuner


class ACPComposer(ProbingComposer):
    """Adaptive composition probing (Sections 3.1–3.5)."""

    name = "ACP"

    def __init__(
        self,
        context: CompositionContext,
        probing_ratio: float = 0.3,
        tuner: Optional[RatioTuner] = None,
    ) -> None:
        super().__init__(
            context,
            probing_ratio=probing_ratio,
            hop_policy=HopSelectionPolicy.GUIDED,
            final_policy=FinalSelectionPolicy.PHI,
            use_global_state=True,
            ratio_provider=None,
        )
        self.tuner = tuner
        if tuner is not None:
            self.attach_tuner(tuner)

    def attach_tuner(self, tuner: RatioTuner) -> None:
        """Drive the probing ratio from an adaptive tuner (Section 3.4)."""
        self.tuner = tuner
        self._ratio_provider = tuner.current_ratio

    def detach_tuner(self) -> None:
        """Return to the fixed probing ratio."""
        self.tuner = None
        self._ratio_provider = None
