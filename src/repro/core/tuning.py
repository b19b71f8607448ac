"""Probing ratio tuning (Section 3.4).

The probing ratio α is "a tuning knob to control the trade-off between
composition performance and probing overhead".  ACP's tuner holds a target
composition success rate μ* and, from measured success-rate samples,
adaptively picks the *minimal* α predicted to achieve it.

The paper's scheme, reproduced here:

* **On-line profiling** maintains the (α → success rate) mapping from
  measurements taken while the system runs, starting from a base ratio
  (0.1) and moving in 0.1 steps.  Profile points are exponentially
  averaged so old system conditions fade.
* **Re-profiling trigger**: when the measured success rate disagrees with
  the profile's prediction for the current α by more than δ (2 %), the
  system conditions have changed — stale profile points are discarded and
  profiling restarts from the current measurement.
* **Ratio updates**: below target, α rises proportionally to the shortfall
  (rounded up to the 0.1 grid, so a 35-point shortfall jumps several steps
  at once — the Fig. 8(b) behaviour); above target, α steps down by one
  grid step at a time, but never when the profile predicts the lower α
  would miss the target.  α stops rising at ``max_ratio`` ("ACP stops
  increasing the probing ratio if the probing overhead already reaches its
  limit", footnote 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from repro.observability import NULL_RECORDER, Recorder

#: Tolerance for float noise when ceiling a shortfall onto the step grid:
#: ``0.1 + 0.2`` must count as exactly three 0.1-steps, not four.
_GRID_EPSILON = 1e-9


def _snap_to_grid(value: float, grid: float) -> float:
    """Round ``value`` to the tuning grid, guarding float error."""
    steps = round(value / grid)
    return round(steps * grid, 10)


class RatioTuner(Protocol):
    """What the composer and the simulator need from a probing-ratio tuner.

    :class:`ProbingRatioTuner` and
    :class:`~repro.core.tuning_pid.PIDRatioTuner` both satisfy it.
    """

    recorder: Recorder

    def current_ratio(self) -> float: ...

    def record_sample(self, success_rate: float, time: float = 0.0) -> float: ...


@dataclass
class TunerSample:
    """One sampling-period observation (diagnostics / Fig. 8 series)."""

    time: float
    ratio: float
    success_rate: float
    reprofiled: bool


class ProbingRatioTuner:
    """Self-tuning probing ratio targeting a composition success rate."""

    def __init__(
        self,
        target_success_rate: float = 0.9,
        base_ratio: float = 0.1,
        step: float = 0.1,
        max_ratio: float = 1.0,
        tolerance: float = 0.02,
        smoothing: float = 0.5,
        gain: float = 1.0,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if not 0.0 < target_success_rate <= 1.0:
            raise ValueError(f"target must be in (0, 1], got {target_success_rate}")
        if not 0.0 < base_ratio <= max_ratio <= 1.0:
            raise ValueError(
                f"need 0 < base_ratio <= max_ratio <= 1, got "
                f"{base_ratio}, {max_ratio}"
            )
        if step <= 0.0:
            raise ValueError(f"step must be positive, got {step}")
        if tolerance < 0.0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance}")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self.target_success_rate = target_success_rate
        self.base_ratio = base_ratio
        self.step = step
        self.max_ratio = max_ratio
        self.tolerance = tolerance
        self.gain = gain
        self.smoothing = smoothing
        self.recorder = recorder
        self._ratio = base_ratio
        #: on-line profile: ratio -> smoothed success rate observed at it
        self._profile: Dict[float, float] = {}
        self._samples: List[TunerSample] = []
        self.reprofile_count = 0

    # -- observation -------------------------------------------------------------

    def current_ratio(self) -> float:
        """The probing ratio the composer should use right now."""
        return self._ratio

    @property
    def profile(self) -> Dict[float, float]:
        return dict(self._profile)

    @property
    def samples(self) -> Tuple[TunerSample, ...]:
        return tuple(self._samples)

    def predicted_success(self, ratio: Optional[float] = None) -> Optional[float]:
        """Profile prediction for ``ratio`` (default: current), if known."""
        key = _snap_to_grid(self._ratio if ratio is None else ratio, self.step)
        return self._profile.get(key)

    # -- the control loop -----------------------------------------------------------

    def record_sample(self, success_rate: float, time: float = 0.0) -> float:
        """Feed one sampling-period success rate; returns the new ratio.

        Call once per sampling period Δt with μ'(t) = successes/requests
        over the period.
        """
        if not 0.0 <= success_rate <= 1.0:
            raise ValueError(f"success rate must be in [0, 1], got {success_rate}")
        key = _snap_to_grid(self._ratio, self.step)
        predicted = self._profile.get(key)
        reprofiled = False
        if predicted is not None and abs(predicted - success_rate) > self.tolerance:
            # prediction error exceeds δ: system conditions changed —
            # discard the stale mapping and start a fresh profile
            self._profile.clear()
            self.reprofile_count += 1
            reprofiled = True
        if key in self._profile:
            previous = self._profile[key]
            self._profile[key] = (
                (1.0 - self.smoothing) * previous + self.smoothing * success_rate
            )
        else:
            self._profile[key] = success_rate

        self._samples.append(TunerSample(time, self._ratio, success_rate, reprofiled))
        previous_ratio = self._ratio
        self._ratio = self._next_ratio(success_rate)
        if self.recorder.enabled:
            self.recorder.emit(
                "tuner.decision",
                time=time,
                ratio=previous_ratio,
                measured=success_rate,
                predicted=predicted,
                reprofiled=reprofiled,
                new_ratio=self._ratio,
            )
        return self._ratio

    def _next_ratio(self, measured: float) -> float:
        target = self.target_success_rate
        current = _snap_to_grid(self._ratio, self.step)
        if measured < target - self.tolerance:
            # below target: proportional jump, rounded up to the grid with
            # an epsilon-tolerant ceil — a plain ceil overshoots one full
            # step when float error lands shortfall/step just above an
            # integer (e.g. shortfall 0.1 + 0.2 over step 0.1)
            shortfall = (target - measured) * self.gain
            steps = max(1, math.ceil(shortfall / self.step - _GRID_EPSILON))
            return min(self.max_ratio, _snap_to_grid(current + steps * self.step,
                                                     self.step))
        if current > self.base_ratio:
            # the target is met: seek the *minimal* ratio that still meets
            # it ("ACP should always use the minimal probing ratio α(t) for
            # achieving the target", Section 3.4) — descend one step unless
            # the profile predicts the lower ratio misses the target
            lower = _snap_to_grid(current - self.step, self.step)
            prediction = self._profile.get(lower)
            if prediction is None or prediction >= target - self.tolerance:
                return max(self.base_ratio, lower)
        return current

    # -- profiling sweep (used to regenerate Fig. 5-style mappings) -----------------

    def profile_points(self) -> Tuple[Tuple[float, float], ...]:
        """The learned (ratio, success rate) mapping, sorted by ratio."""
        return tuple(sorted(self._profile.items()))
