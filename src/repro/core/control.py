"""Control-plane probe delivery: the ControlChannel seam.

The probing protocol of Section 3.3 "sends" one message per spawned probe.
The original reproduction delivered every message instantly and reliably —
a perfect control plane.  Real overlays lose and delay control traffic, so
probe delivery is funnelled through exactly one seam:
:class:`ControlChannel`.  ``ProbingComposer._dispatch_probes`` asks the
channel whether each probe message arrives and what control-plane delay it
paid; no other probe-delivery path is legal (see DEVELOPMENT.md — the
repro-lint REC301-style rule of this subsystem).

Two implementations:

* :class:`PerfectControlChannel` — the default on every
  :class:`~repro.core.composer.CompositionContext`.  ``lossless`` is True,
  :meth:`send` never consumes randomness and the prober's fast path skips
  the retry machinery entirely, so the zero-fault configuration is
  decision-identical (and rng-stream-identical) to a build without this
  module.
* :class:`LossyControlChannel` — drops each message independently with
  ``loss_probability`` and charges ``delay_ms`` of control-plane latency
  per attempt, drawing from its **own** seeded stream so enabling losses
  never perturbs composition randomness.

The retry policy lives with the channel (``max_retries``); the *deadline*
does not — the prober derives each probe's retry budget from the request's
remaining QoS delay slack (:func:`delay_slack_ms`), so a probe that has
already spent most of its delay bound on slow virtual links gets fewer
re-sends than a fresh one.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.model.qos import QoSVector


def delay_slack_ms(accumulated: QoSVector, requirement: QoSVector) -> float:
    """Remaining delay budget of a probe, in milliseconds.

    The requirement's delay minus the delay accumulated up to and including
    the candidate under consideration.
    """
    return requirement.delay - accumulated.delay


class ControlChannel:
    """How probe messages travel: delivery success plus per-attempt delay.

    Subclasses override :meth:`send`; callers may branch on
    :attr:`lossless` to skip the retry machinery when delivery is
    guaranteed (the hot-path contract the overhead benchmark relies on).
    """

    #: True when :meth:`send` always delivers with zero delay; the prober
    #: uses this to keep the default path identical to a channel-free build.
    lossless: bool = True
    #: additional delivery attempts allowed per probe after the first.
    max_retries: int = 0

    def __init__(self) -> None:
        #: probe messages handed to the channel (including lost ones)
        self.messages_sent = 0
        #: probe messages the channel dropped
        self.messages_lost = 0

    def send(self) -> Tuple[bool, float]:
        """Attempt one delivery; returns ``(delivered, delay_ms)``."""
        self.messages_sent += 1
        return True, 0.0


class PerfectControlChannel(ControlChannel):
    """The reliable, zero-latency default: every message arrives."""

    lossless = True


class LossyControlChannel(ControlChannel):
    """Independent per-message loss with a fixed per-attempt delay.

    Args:
        loss_probability: chance each attempt is silently dropped.
        delay_ms: control-plane latency charged per attempt (lost or not).
        rng: dedicated random stream for loss draws.  Required — the
            channel must never share the composition rng, so that a
            zero-loss channel is decision-identical to the perfect one.
        max_retries: re-send budget per probe after the first attempt
            (each retry still costs one message and one ``delay_ms``).
    """

    lossless = False

    def __init__(
        self,
        loss_probability: float,
        delay_ms: float = 0.0,
        rng: Optional[random.Random] = None,
        max_retries: int = 2,
    ) -> None:
        super().__init__()
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {loss_probability}"
            )
        if delay_ms < 0.0:
            raise ValueError(f"delay_ms must be non-negative, got {delay_ms}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.loss_probability = loss_probability
        self.delay_ms = delay_ms
        self.max_retries = max_retries
        # explicit fixed seed when the caller doesn't supply a stream;
        # never the process-global RNG, so loss schedules replay exactly
        self.rng = rng if rng is not None else random.Random(0)

    def send(self) -> Tuple[bool, float]:
        self.messages_sent += 1
        if self.loss_probability > 0.0 and self.rng.random() < self.loss_probability:
            self.messages_lost += 1
            return False, self.delay_ms
        return True, self.delay_ms
