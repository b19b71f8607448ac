"""Population-scale workload model: users, diurnal curves, flash crowds.

The paper evaluates at ~100 req/min of flat Poisson traffic.  The
interesting production regime is different: request rate is an *emergent*
quantity — N active users, each issuing requests at some personal rate,
with N itself drifting over the day and spiking on events.  This module
layers that model over the existing request machinery:

* :class:`PopulationProfile` — N active users re-sampled from a Poisson /
  Normal / fixed population process every ``user_sampling_window_s``, a
  per-user request rate, an optional :class:`DiurnalCurve`, and scenario
  :class:`TrafficEvent` primitives (ramp, plateau, decay) for flash
  crowds and regional spikes;
* :class:`PopulationWorkload` — wraps a
  :class:`~repro.simulation.workload.WorkloadGenerator` and replaces its
  arrival process with the population's, leaving request-attribute
  randomness on the inner generator's stream.

The effective rate is compiled to a piecewise-constant function —
population windows × quota slots of ``quota_resolution_s`` (the
autoscaling-simulator exemplar's "seasonal values split into per-second
quotas") — so arrivals are sampled as an exact non-homogeneous Poisson
process by the same boundary-truncated redraw the schedule fix uses.

Determinism: the population draws from its own seed-derived streams
(user re-sampling, arrival gaps, regional rewrites), so same-seed runs
replay byte-identically and attaching a population never perturbs the
inner generator's request-attribute stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.model.request import StreamRequest
from repro.simulation.workload import WorkloadGenerator

#: arrival-time sentinel far beyond any simulation horizon, returned when
#: the population rate stays zero for an implausibly long walk
FAR_FUTURE_S = 1e12

#: give up walking rate boundaries after this much simulated time with no
#: arrival — the run horizon is long past by then
_MAX_WALK_S = 1e8


def poisson_sample(rng: random.Random, mean: float) -> int:
    """Draw Poisson(mean) from ``rng`` (stdlib has no Poisson sampler).

    Knuth's product-of-uniforms method below mean 30 (exact, O(mean)
    draws); above that, the rounded-normal approximation — population
    sizes in the thousands don't warrant an exact sampler's cost, and
    determinism only needs the draw to be a pure function of the stream.
    """
    if mean < 0.0:
        raise ValueError(f"mean must be non-negative: {mean}")
    if mean == 0.0:
        return 0
    if mean < 30.0:
        limit = math.exp(-mean)
        count = 0
        product = rng.random()
        while product > limit:
            count += 1
            product *= rng.random()
        return count
    return max(0, round(rng.gauss(mean, math.sqrt(mean))))


@dataclass(frozen=True)
class DiurnalCurve:
    """Periodic rate multiplier: control points, linearly interpolated.

    ``points`` are (time_into_period_s, multiplier) pairs; the curve wraps
    (the last point interpolates to the first, one period later).  The
    default period is one day.
    """

    points: Tuple[Tuple[float, float], ...]
    period_s: float = 86400.0

    def __post_init__(self) -> None:
        if self.period_s <= 0.0:
            raise ValueError(f"period must be positive: {self.period_s}")
        if not self.points:
            raise ValueError("curve needs at least one control point")
        times = [t for t, _m in self.points]
        for earlier, later in zip(times, times[1:]):
            if later <= earlier:
                raise ValueError(
                    f"control-point times must be strictly increasing: {times}"
                )
        if times[0] < 0.0 or times[-1] >= self.period_s:
            raise ValueError(
                f"control points must lie in [0, {self.period_s}): {times}"
            )
        for _t, multiplier in self.points:
            if multiplier < 0.0:
                raise ValueError(f"multipliers must be non-negative: {multiplier}")

    def multiplier_at(self, time_s: float) -> float:
        """Linearly interpolated multiplier at ``time_s`` (periodic)."""
        phase = time_s % self.period_s
        points = self.points
        if len(points) == 1:
            return points[0][1]
        # find the surrounding control points, wrapping across the period
        for index in range(len(points)):
            start_t, start_m = points[index]
            if index + 1 < len(points):
                end_t, end_m = points[index + 1]
            else:
                end_t, end_m = points[0][0] + self.period_s, points[0][1]
            if start_t <= phase < end_t:
                span = end_t - start_t
                fraction = (phase - start_t) / span
                return start_m + fraction * (end_m - start_m)
        # phase precedes the first control point: wrap the last one back
        last_t, last_m = points[-1]
        first_t, first_m = points[0]
        span = first_t + self.period_s - last_t
        fraction = (phase + self.period_s - last_t) / span
        return last_m + fraction * (first_m - last_m)


@dataclass(frozen=True)
class TrafficEvent:
    """One traffic surge: linear ramp, flat plateau, linear decay.

    The event multiplies the population's request rate by up to
    ``peak_multiplier`` (1.0 outside the event).  With ``region`` set to a
    client-router id range ``[lo, hi)``, the surge's *excess* traffic —
    fraction (m-1)/m at current multiplier m — originates from that
    region, modelling a regional spike rather than a uniform flash crowd.
    """

    start_s: float
    ramp_s: float
    plateau_s: float
    decay_s: float
    peak_multiplier: float
    region: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.start_s < 0.0:
            raise ValueError(f"start must be non-negative: {self.start_s}")
        for name in ("ramp_s", "plateau_s", "decay_s"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative: {getattr(self, name)}")
        if self.ramp_s + self.plateau_s + self.decay_s <= 0.0:
            raise ValueError("event must have positive duration")
        if self.peak_multiplier < 1.0:
            raise ValueError(
                f"peak multiplier must be >= 1: {self.peak_multiplier}"
            )
        if self.region is not None:
            lo, hi = self.region
            if lo < 0 or hi <= lo:
                raise ValueError(f"region must be a non-empty [lo, hi): {self.region}")

    @classmethod
    def flash_crowd(
        cls,
        start_s: float,
        peak_multiplier: float,
        ramp_s: float = 60.0,
        plateau_s: float = 300.0,
        decay_s: float = 120.0,
    ) -> "TrafficEvent":
        """A system-wide surge: fast ramp, sustained plateau, slower decay."""
        return cls(start_s, ramp_s, plateau_s, decay_s, peak_multiplier)

    @classmethod
    def regional_spike(
        cls,
        start_s: float,
        peak_multiplier: float,
        region: Tuple[int, int],
        ramp_s: float = 60.0,
        plateau_s: float = 300.0,
        decay_s: float = 120.0,
    ) -> "TrafficEvent":
        """A surge whose excess traffic targets one client-router range."""
        return cls(start_s, ramp_s, plateau_s, decay_s, peak_multiplier, region)

    @property
    def end_s(self) -> float:
        return self.start_s + self.ramp_s + self.plateau_s + self.decay_s

    def multiplier_at(self, time_s: float) -> float:
        if time_s < self.start_s or time_s >= self.end_s:
            return 1.0
        offset = time_s - self.start_s
        if offset < self.ramp_s:
            return 1.0 + (self.peak_multiplier - 1.0) * (offset / self.ramp_s)
        offset -= self.ramp_s
        if offset < self.plateau_s:
            return self.peak_multiplier
        offset -= self.plateau_s
        return self.peak_multiplier - (self.peak_multiplier - 1.0) * (
            offset / self.decay_s
        )


@dataclass(frozen=True)
class PopulationProfile:
    """The user-population process behind a workload.

    ``mean_active_users`` are re-sampled every ``user_sampling_window_s``
    from the named distribution (AsyncFlow's ``RqsGenerator`` shape); each
    active user issues ``requests_per_user_per_min`` requests as a Poisson
    stream, so the aggregate window rate is
    ``users × requests_per_user_per_min`` scaled by the diurnal curve and
    any active events.
    """

    mean_active_users: float
    requests_per_user_per_min: float
    distribution: str = "poisson"
    #: Normal distribution's sigma; defaults to sqrt(mean) when None
    std_active_users: Optional[float] = None
    user_sampling_window_s: float = 60.0
    diurnal: Optional[DiurnalCurve] = None
    events: Tuple[TrafficEvent, ...] = ()
    #: quota-slot width for the compiled piecewise-constant rate
    quota_resolution_s: float = 1.0

    def __post_init__(self) -> None:
        if self.mean_active_users < 0.0:
            raise ValueError(
                f"mean active users must be non-negative: {self.mean_active_users}"
            )
        if self.requests_per_user_per_min <= 0.0:
            raise ValueError(
                "per-user request rate must be positive: "
                f"{self.requests_per_user_per_min}"
            )
        if self.distribution not in ("poisson", "normal", "fixed"):
            raise ValueError(
                f"distribution must be poisson|normal|fixed: {self.distribution!r}"
            )
        if self.std_active_users is not None and self.std_active_users < 0.0:
            raise ValueError(
                f"std must be non-negative: {self.std_active_users}"
            )
        if self.user_sampling_window_s <= 0.0:
            raise ValueError(
                f"sampling window must be positive: {self.user_sampling_window_s}"
            )
        if self.quota_resolution_s <= 0.0:
            raise ValueError(
                f"quota resolution must be positive: {self.quota_resolution_s}"
            )

    def scaled(self, multiplier: float) -> "PopulationProfile":
        """The same profile at ``multiplier``× the mean population (load
        sweeps: 1×, 10×, 100×)."""
        if multiplier <= 0.0:
            raise ValueError(f"multiplier must be positive: {multiplier}")
        return replace(self, mean_active_users=self.mean_active_users * multiplier)


def _never_arrives(profile: PopulationProfile) -> bool:
    """Whether no (window, slot) cell can ever have a positive rate.

    A curve whose control points are all 0 interpolates to 0 everywhere,
    and event multipliers (at least 1) cannot lift it; a user process
    that can only draw 0 users gives rate 0 in every window.  Either way
    the boundary walk would only step slot by slot to its cut.
    """
    diurnal = profile.diurnal
    if diurnal is not None and all(m == 0.0 for _t, m in diurnal.points):
        return True
    mean = profile.mean_active_users
    if profile.distribution == "poisson":
        return mean == 0.0
    if profile.distribution == "normal":
        std = profile.std_active_users
        if (math.sqrt(mean) if std is None else std) > 0.0:
            return False
    # a fixed count, or a normal draw with sigma 0, is the rounded mean
    return round(mean) == 0


class PopulationWorkload:
    """A population-driven arrival process over an inner request factory.

    Satisfies the simulator's ``WorkloadSource`` duck type.  The inner
    :class:`WorkloadGenerator`'s schedule is ignored; arrivals come from
    the population model instead, while request attributes (template, QoS
    budget, duration, ...) still come from the inner generator's own
    stream — so the same ``workload_seed`` yields the same request
    *contents* whether or not a population drives the arrival times.

    Three seed-derived streams keep replay byte-identical: user-count
    re-sampling (``seed``), arrival gaps (``seed + 1``), and regional
    spike rewrites (``seed + 2``).  User counts are memoized per window
    index and always sampled in window order, so the stream is identical
    no matter how simulated time advances.
    """

    def __init__(
        self,
        inner: WorkloadGenerator,
        profile: PopulationProfile,
        seed: int = 0,
    ) -> None:
        for event in profile.events:
            if event.region is not None and event.region[1] > inner.num_client_routers:
                raise ValueError(
                    f"event region {event.region} exceeds the system's "
                    f"{inner.num_client_routers} client routers"
                )
        self.inner = inner
        self.profile = profile
        self._user_rng = random.Random(seed)
        self._arrival_rng = random.Random(seed + 1)
        self._region_rng = random.Random(seed + 2)
        self._user_counts: List[int] = []
        # slot boundaries only matter while a curve or event modulates the
        # rate; a plain steady population only changes at window edges
        self._modulated = profile.diurnal is not None or bool(profile.events)
        self._silent = _never_arrives(profile)

    # -- the population process ----------------------------------------------

    def users_in_window(self, index: int) -> int:
        """Active users during window ``index`` (memoized, sampled in order)."""
        if index < 0:
            raise ValueError(f"window index must be non-negative: {index}")
        profile = self.profile
        while len(self._user_counts) <= index:
            if profile.distribution == "poisson":
                count = poisson_sample(self._user_rng, profile.mean_active_users)
            elif profile.distribution == "normal":
                std = (
                    profile.std_active_users
                    if profile.std_active_users is not None
                    else math.sqrt(profile.mean_active_users)
                )
                count = max(
                    0, round(self._user_rng.gauss(profile.mean_active_users, std))
                )
            else:  # fixed
                count = round(profile.mean_active_users)
            self._user_counts.append(count)
        return self._user_counts[index]

    def _modulation_at(self, slot_start_s: float) -> float:
        multiplier = 1.0
        if self.profile.diurnal is not None:
            multiplier *= self.profile.diurnal.multiplier_at(slot_start_s)
        for event in self.profile.events:
            multiplier *= event.multiplier_at(slot_start_s)
        return multiplier

    def rate_per_s_at(self, time_s: float) -> float:
        """The compiled piecewise-constant aggregate rate at ``time_s``:
        constant within each (population window × quota slot) cell."""
        profile = self.profile
        window = int(time_s // profile.user_sampling_window_s)
        users = self.users_in_window(window)
        if users == 0:
            return 0.0
        rate_per_min = users * profile.requests_per_user_per_min
        if self._modulated:
            slot = math.floor(time_s / profile.quota_resolution_s)
            rate_per_min *= self._modulation_at(slot * profile.quota_resolution_s)
        return rate_per_min / 60.0

    def _next_boundary_after(self, time_s: float) -> float:
        """Next instant the compiled rate may change, strictly after
        ``time_s``: the next population-window edge, or the next quota
        slot while a curve/event modulates the rate."""
        window_s = self.profile.user_sampling_window_s
        boundary = (math.floor(time_s / window_s) + 1) * window_s
        if self._modulated:
            resolution = self.profile.quota_resolution_s
            slot_edge = (math.floor(time_s / resolution) + 1) * resolution
            boundary = min(boundary, slot_edge)
        # float guard: at huge t the "+1 slot" can round back to t itself,
        # which would stall the boundary walk
        if boundary <= time_s:
            return time_s + window_s
        return boundary

    # -- WorkloadSource ------------------------------------------------------

    def next_interarrival(self, now_s: float) -> float:
        """Exact non-homogeneous Poisson gap under the population rate
        (boundary-truncated redraw, as in ``WorkloadGenerator``).  Returns
        :data:`FAR_FUTURE_S` when the rate stays zero past any plausible
        horizon, so the simulator's ``run_until`` drains cleanly."""
        if self._silent:
            return FAR_FUTURE_S
        t = now_s
        elapsed = 0.0
        while True:
            if elapsed >= _MAX_WALK_S:
                return FAR_FUTURE_S
            rate = self.rate_per_s_at(t)
            boundary = self._next_boundary_after(t)
            if rate > 0.0:
                gap = self._arrival_rng.expovariate(rate)
                if t + gap <= boundary:
                    return elapsed + gap
            elapsed += boundary - t
            t = boundary

    def make_request(self, arrival_time: float) -> StreamRequest:
        request = self.inner.make_request(arrival_time)
        region = self._spike_region_for(arrival_time)
        if region is not None:
            lo, hi = region
            request = replace(
                request, client_router_id=lo + self._region_rng.randrange(hi - lo)
            )
        return request

    def _spike_region_for(self, time_s: float) -> Optional[Tuple[int, int]]:
        """The region this arrival belongs to, if a regional spike's excess
        traffic claims it: at multiplier m, fraction (m-1)/m of current
        arrivals are the spike's own."""
        for event in self.profile.events:
            if event.region is None:
                continue
            multiplier = event.multiplier_at(time_s)
            if multiplier <= 1.0:
                continue
            if self._region_rng.random() < (multiplier - 1.0) / multiplier:
                return event.region
        return None
