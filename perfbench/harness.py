"""Episode runner, correctness gate, decision digest and run statistics.

One episode builds a fresh system through the experiment runner's
``build_simulator`` (the path every experiment takes), times the run
phase, drains the event list, and checks that every resource came back.
The instrumentation in an untraced episode is two clock reads around
each ``SessionManager.find`` (the decision each call returns is folded
into the run's digest after the second read) and the host-speed gauge of
``calibration.py``, read around set-up and between equal slices of the
run phase in simulated time.  Every reported timing is scaled by the
gauge to the reference speed; the raw wall times are kept beside it.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.experiments.runner import build_simulator
from repro.middleware.session import SessionManager
from repro.simulation.metrics import SimulationReport
from repro.simulation.system import StreamSystem, build_system

from calibration import REFERENCE_SETUP_PASS_S, SpeedGauge, speed_factor
from workloads import Workload

#: A percentile is resolved only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Allocation left on a node or link after the drain that still counts as
#: float residue (today's drains leave at most 1e-10).
CONSERVATION_TOLERANCE = 1e-9


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q`` percentile, or None when fewer than
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond it (the value would be
    the maximum or close to it, not a percentile)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    count = len(samples)
    rank = math.ceil(q * count)
    if count - rank < MIN_SAMPLES_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def conservation_violations(
    system: StreamSystem,
    sessions: SessionManager,
    tolerance: float = CONSERVATION_TOLERANCE,
) -> List[str]:
    """Everything still held after a drain, as readable lines (empty when
    resources are conserved)."""
    problems = []
    for node in system.network.nodes:
        held = max(abs(value) for value in node.allocated.values)
        if held > tolerance:
            problems.append(f"node v{node.node_id} still allocates {node.allocated}")
    for link in system.network.links:
        if abs(link.allocated_kbps) > tolerance:
            problems.append(
                f"link e{link.link_id} still allocates {link.allocated_kbps!r} kbps"
            )
    allocator = system.allocator
    if allocator.active_session_count:
        problems.append(f"allocator holds {allocator.active_session_count} sessions")
    if allocator.transient_request_ids:
        problems.append(
            f"allocator holds transient reservations of "
            f"{len(allocator.transient_request_ids)} requests"
        )
    if sessions.active_session_count:
        problems.append(f"session table holds {sessions.active_session_count} sessions")
    return problems


@dataclass
class FindProbe:
    """Times each ``SessionManager.find`` and digests its decision."""

    samples: List[float] = field(default_factory=list)
    digest: Any = field(default_factory=hashlib.sha256)

    @contextmanager
    def installed(self) -> Iterator["FindProbe"]:
        original = SessionManager.find
        clock = time.perf_counter
        samples = self.samples
        digest = self.digest

        def find(manager, request):
            start = clock()
            result = original(manager, request)
            samples.append(clock() - start)
            digest.update(decision_line(request, *result))
            return result

        SessionManager.find = find
        try:
            yield self
        finally:
            SessionManager.find = original

    def fold(self, text: str) -> None:
        self.digest.update(text.encode())


def decision_line(request, session_id, outcome) -> bytes:
    """One arriving request's decision: id, admitted, failure reason,
    component ids, φ and probe count."""
    composition = outcome.composition
    components = (
        "-" if composition is None
        else ",".join(str(c.component_id) for c in composition.components)
    )
    return (
        f"{request.request_id}|{session_id is not None}|{outcome.failure_reason}|"
        f"{components}|{outcome.phi!r}|{outcome.probe_messages}\n"
    ).encode()


@dataclass
class Episode:
    """One episode's measurements (a fresh system, run, drained, checked).

    ``setup_s`` and ``run_s`` are raw wall times; the ``scaled_`` fields
    and ``finds`` are scaled to the reference speed."""

    seed: int
    setup_s: float
    run_s: float
    scaled_setup_s: float
    scaled_run_s: float
    report: SimulationReport
    violations: List[str]
    #: scaled find wall times of this episode's arrivals
    finds: Sequence[float] = ()


class SlicedRun:
    """Runs the simulator's horizon in equal slices of simulated time and
    reads the gauge after each.

    The simulator advances its clock with one ``run_until(horizon)``;
    :meth:`installed` replaces it on the scheduler instance with
    ``run_until`` at each slice's end in turn.  ``run_until(t)`` runs
    every event at or before ``t`` and nothing is scheduled between
    slices, so the events, and every decision, are those of the unsliced
    run.
    """

    def __init__(self, gauge: SpeedGauge, slices: int, samples: List[float]) -> None:
        self.gauge = gauge
        self.slices = slices
        self.samples = samples
        #: raw wall seconds of each slice
        self.times: List[float] = []
        #: index into ``samples`` of each slice's first find
        self.first_find: List[int] = []
        #: a reading before the first slice, then one after each slice
        self.readings: List[float] = []
        #: wall seconds spent reading the gauge inside the run phase
        self.gauge_s = 0.0

    @contextmanager
    def installed(self, scheduler) -> Iterator["SlicedRun"]:
        original = scheduler.run_until
        clock = time.perf_counter

        def run_until(end_time: float) -> None:
            for k in range(1, self.slices + 1):
                self.first_find.append(len(self.samples))
                start = clock()
                original(end_time if k == self.slices else end_time * k / self.slices)
                middle = clock()
                self.readings.append(self.gauge.read())
                self.times.append(middle - start)
                self.gauge_s += clock() - middle

        scheduler.run_until = run_until
        try:
            yield self
        finally:
            del scheduler.run_until

    def factors(self) -> List[float]:
        """Each slice's speed factor, from the readings around it."""
        readings = self.readings
        return [speed_factor(readings[i], readings[i + 1]) for i in range(len(self.times))]


def run_episode(
    workload: Workload, seed: int, probe: FindProbe, gauge: SpeedGauge, hooks=None
) -> Episode:
    """Build, run, drain and check one episode.

    ``hooks`` (the traced mode's) is told when the episode begins and
    when its run phase ends, both outside the timed regions, with the raw
    set-up and run-phase times; the drain after the run phase is not its
    concern.
    """
    spec = workload.spec(seed)
    if hooks is not None:
        hooks.begin_episode()
    before_setup = gauge.read_setup()
    start = time.perf_counter()
    simulator = build_simulator(spec, build_system(spec.system))
    setup_s = time.perf_counter() - start
    after_setup = gauge.read_setup()
    sliced = SlicedRun(gauge, workload.run_slices, probe.samples)
    sliced.readings.append(gauge.read())
    start = time.perf_counter()
    with sliced.installed(simulator.scheduler):
        report = simulator.run(spec.duration_s)
    run_s = time.perf_counter() - start - sliced.gauge_s
    if hooks is not None:
        hooks.after_run(simulator, report, setup_s, run_s)
    simulator.scheduler.run()
    violations = conservation_violations(simulator.system, simulator.sessions)
    probe.fold(f"episode {seed}\n{report!r}\n")

    factors = sliced.factors()
    in_slices = sum(sliced.times)
    scaled_in_slices = sum(t * f for t, f in zip(sliced.times, factors))
    # the run phase outside the slices (scheduling the periodic tasks,
    # building the report) is short; it takes the slices' mean factor
    scaled_run_s = scaled_in_slices + (run_s - in_slices) * scaled_in_slices / in_slices
    bounds = sliced.first_find + [len(probe.samples)]
    finds = [
        sample * factor
        for i, factor in enumerate(factors)
        for sample in probe.samples[bounds[i]:bounds[i + 1]]
    ]
    return Episode(
        seed,
        setup_s,
        run_s,
        setup_s * speed_factor(before_setup, after_setup, REFERENCE_SETUP_PASS_S),
        scaled_run_s,
        report,
        violations,
        finds,
    )


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kilobytes / 1024.0


def measure(workload: Workload, seed: int, seconds: float, hooks=None) -> Dict[str, Any]:
    """Run a whole measurement and return its metrics and evidence.

    ``hooks`` is passed to every episode (see :func:`run_episode`).
    """
    count = workload.episodes(seconds)
    probe = FindProbe()
    gauge = SpeedGauge()
    episodes: List[Episode] = []
    with probe.installed():
        for index in range(count):
            episode = run_episode(
                workload, workload.episode_seed(seed, index), probe, gauge, hooks
            )
            episodes.append(episode)
            gc.collect()
    return summarize(workload, seed, episodes, probe, peak_rss_mb())


def summarize(
    workload: Workload,
    seed: int,
    episodes: Sequence[Episode],
    probe: FindProbe,
    rss_mb: float,
) -> Dict[str, Any]:
    reports = [episode.report for episode in episodes]
    setups = [episode.scaled_setup_s for episode in episodes]
    requests = sum(report.total_requests for report in reports)
    successes = sum(report.successes for report in reports)
    opened = sum(report.sessions_opened for report in reports)
    killed = sum(report.sessions_killed for report in reports)
    run_s = sum(episode.run_s for episode in episodes)
    scaled_run_s = sum(episode.scaled_run_s for episode in episodes)
    samples = [find for episode in episodes for find in episode.finds]
    violations = [
        f"episode seed {episode.seed}: {line}"
        for episode in episodes
        for line in episode.violations
    ]
    p50 = percentile(samples, 0.50)
    p95 = percentile(samples, 0.95)
    metrics = {
        "wall_ms_per_request": (1000.0 * scaled_run_s / requests, "ms"),
        "find_p50_ms": (None if p50 is None else 1000.0 * p50, "ms"),
        "find_p95_ms": (None if p95 is None else 1000.0 * p95, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": (successes / requests, "fraction"),
        "overhead_msgs_per_min": (
            statistics.fmean(report.overhead_per_min for report in reports),
            "msgs/sim-min",
        ),
        "session_survival_rate": (
            1.0 - killed / opened if opened else 1.0,
            "fraction",
        ),
    }
    raw_p50 = percentile(probe.samples, 0.50)
    raw_p95 = percentile(probe.samples, 0.95)
    #: the timings unscaled, as the wall clock read them
    raw = {
        "wall_ms_per_request": 1000.0 * run_s / requests,
        "find_p50_ms": None if raw_p50 is None else 1000.0 * raw_p50,
        "find_p95_ms": None if raw_p95 is None else 1000.0 * raw_p95,
        "setup_s": statistics.median(episode.setup_s for episode in episodes),
    }
    counts = {
        "wall_ms_per_request": f"n={requests} requests over {len(episodes)} episodes",
        "find_p50_ms": f"n={len(samples)} finds",
        "find_p95_ms": f"n={len(samples)} finds",
        "setup_s": f"median of n={len(setups)} set-ups",
        "peak_rss_mb": "n=1 process",
        "success_rate": f"{successes} of n={requests} admitted",
        "overhead_msgs_per_min": f"mean of n={len(episodes)} episodes",
        "session_survival_rate": f"{opened - killed} of n={opened} sessions",
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "episodes": [episode.seed for episode in episodes],
        "per_episode": [
            {
                "seed": episode.seed,
                "setup_s": episode.scaled_setup_s,
                "run_s": episode.run_s,
                "speed": episode.scaled_run_s / episode.run_s,
                "requests": episode.report.total_requests,
                "ms_per_request": 1000.0 * episode.scaled_run_s / episode.report.total_requests,
                "find_p50_ms": 1000.0 * statistics.median(episode.finds),
                "success_rate": episode.report.success_rate,
            }
            for episode in episodes
        ],
        "metrics": metrics,
        "raw": raw,
        "counts": counts,
        "attempted": requests,
        "failed": requests - successes,
        "run_s": run_s,
        "speed": scaled_run_s / run_s,
        "violations": violations,
        "digest": probe.digest.hexdigest(),
        "reports": reports,
    }


def _git_commit(root: str) -> str:
    """HEAD's commit read from ``.git`` files (no subprocess, nothing read
    outside the checkout); "none" when the checkout is not a git tree."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest(root: str) -> str:
    """SHA-256 over every file of ``src/repro`` (identifies the code when
    the checkout carries no git metadata)."""
    digest = hashlib.sha256()
    base = os.path.join(root, "src", "repro")
    for directory, subdirs, files in os.walk(base):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def stamp(root: str) -> Dict[str, Any]:
    """What produced a run: code, interpreter, libraries, kernel, cores."""
    import numpy
    import scipy

    from repro.core.scoring_kernel import resolve_scoring_kernel

    return {
        "commit": _git_commit(root),
        "src_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "scoring_kernel": resolve_scoring_kernel("auto"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }
