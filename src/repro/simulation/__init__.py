"""Event-driven simulation testbed (paper Section 4.1).

System assembly, workload generation, the event engine, metrics, and the
end-to-end simulator that the experiment harness drives.
"""

from repro.simulation.failures import (
    FailureEvent,
    FailureInjector,
    FaultPlan,
    install_control_plane_faults,
)
from repro.simulation.engine import (
    EventScheduler,
    PeriodicTask,
    ScheduledEvent,
    SchedulerError,
)
from repro.simulation.metrics import (
    CONTENTION_REASONS,
    MetricsCollector,
    RequestRecord,
    SimulationReport,
    WindowSample,
    percentile,
)
from repro.simulation.population import (
    DiurnalCurve,
    PopulationProfile,
    PopulationWorkload,
    TrafficEvent,
    poisson_sample,
)
from repro.simulation.simulator import StreamProcessingSimulator
from repro.simulation.system import StreamSystem, SystemConfig, build_system
from repro.simulation.workload import (
    QOS_LEVELS,
    QoSLevel,
    RateSchedule,
    WorkloadGenerator,
    WorkloadProfile,
    WorkloadSource,
)

__all__ = [
    "CONTENTION_REASONS",
    "percentile",
    "DiurnalCurve",
    "PopulationProfile",
    "PopulationWorkload",
    "TrafficEvent",
    "poisson_sample",
    "WorkloadSource",
    "FailureInjector",
    "FailureEvent",
    "FaultPlan",
    "install_control_plane_faults",
    "EventScheduler",
    "ScheduledEvent",
    "PeriodicTask",
    "SchedulerError",
    "MetricsCollector",
    "RequestRecord",
    "SimulationReport",
    "WindowSample",
    "StreamProcessingSimulator",
    "StreamSystem",
    "SystemConfig",
    "build_system",
    "WorkloadGenerator",
    "WorkloadProfile",
    "RateSchedule",
    "QoSLevel",
    "QOS_LEVELS",
]
