"""Control-theoretic probing ratio tuning (future-work direction 1).

Section 6: "Future research directions ... include (1) applying control
theory to tune the probing ratio more precisely."

:class:`PIDRatioTuner` closes the loop with a discrete PID controller on
the success-rate error e(t) = μ* − μ'(t):

    α(t+1) = clamp( α(t) + K_p·e + K_i·Σe + K_d·(e − e_prev) )

compared to the paper's profile-based :class:`ProbingRatioTuner` it needs
no profile and reacts every sampling period, at the price of the usual PID
trade-offs (overshoot vs sluggishness controlled by the gains).  The
integral term is anti-windup-clamped so that an unreachable target (error
permanently positive at α = max) cannot poison later convergence.

The class is signature-compatible with :class:`ProbingRatioTuner` where it
matters (``current_ratio`` / ``record_sample`` / ``samples`` / ``recorder``,
the :class:`~repro.core.tuning.RatioTuner` protocol), so it can drive
:class:`~repro.core.acp.ACPComposer` through the same ``attach_tuner`` hook
and the simulator's sampling loop, and be compared head-to-head in the
tuner ablation.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.tuning import TunerSample
from repro.observability import NULL_RECORDER, Recorder


class PIDRatioTuner:
    """Discrete PID controller over the probing ratio."""

    def __init__(
        self,
        target_success_rate: float = 0.9,
        kp: float = 1.2,
        ki: float = 0.3,
        kd: float = 0.2,
        base_ratio: float = 0.1,
        max_ratio: float = 1.0,
        integral_limit: float = 1.0,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if not 0.0 < target_success_rate <= 1.0:
            raise ValueError(f"target must be in (0, 1], got {target_success_rate}")
        if not 0.0 < base_ratio <= max_ratio <= 1.0:
            raise ValueError(
                f"need 0 < base_ratio <= max_ratio <= 1, got "
                f"{base_ratio}, {max_ratio}"
            )
        if integral_limit <= 0.0:
            raise ValueError("integral_limit must be positive")
        self.target_success_rate = target_success_rate
        self.kp = kp
        self.ki = ki
        self.kd = kd
        self.base_ratio = base_ratio
        self.max_ratio = max_ratio
        self.integral_limit = integral_limit
        self.recorder = recorder
        self._ratio = base_ratio
        self._integral = 0.0
        self._previous_error = 0.0
        self._primed = False
        self._samples: List[TunerSample] = []

    # -- ProbingRatioTuner-compatible surface ------------------------------------

    def current_ratio(self) -> float:
        return self._ratio

    @property
    def samples(self) -> Tuple[TunerSample, ...]:
        return tuple(self._samples)

    def record_sample(self, success_rate: float, time: float = 0.0) -> float:
        """Feed one sampling-period success rate; returns the new ratio."""
        if not 0.0 <= success_rate <= 1.0:
            raise ValueError(f"success rate must be in [0, 1], got {success_rate}")
        error = self.target_success_rate - success_rate
        if self._primed and (error > 0.0) != (self._previous_error > 0.0):
            # crossing the target: dump accumulated history so the response
            # to the new regime is not fighting stale integral action
            self._integral = 0.0
        self._integral = max(
            -self.integral_limit, min(self.integral_limit, self._integral + error)
        )
        derivative = (error - self._previous_error) if self._primed else 0.0
        self._previous_error = error
        self._primed = True

        self._samples.append(TunerSample(time, self._ratio, success_rate, False))
        adjustment = self.kp * error + self.ki * self._integral + self.kd * derivative
        previous_ratio = self._ratio
        self._ratio = max(
            self.base_ratio, min(self.max_ratio, self._ratio + adjustment)
        )
        # anti-windup: when pinned at a bound, bleed the integral so a
        # regime change is tracked immediately
        if self._ratio in (self.base_ratio, self.max_ratio):
            self._integral *= 0.5
        if self.recorder.enabled:
            self.recorder.emit(
                "tuner.decision",
                time=time,
                ratio=previous_ratio,
                measured=success_rate,
                predicted=None,
                reprofiled=False,
                new_ratio=self._ratio,
            )
        return self._ratio

    # -- diagnostics ----------------------------------------------------------

    @property
    def integral(self) -> float:
        return self._integral

    def reset(self) -> None:
        """Forget controller state (e.g. on a known workload change)."""
        self._integral = 0.0
        self._previous_error = 0.0
        self._primed = False
        self._ratio = self.base_ratio
