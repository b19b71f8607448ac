"""Observability: structured tracing and metrics for the whole pipeline.

The paper's evaluation is a visibility exercise — success rate μ(t),
probing overhead in messages per minute, the α(t) tuner trace of Fig. 8 —
and this package is how the reproduction sees inside a run.  Attach a
:class:`TraceRecorder` (``SystemConfig(recorder=...)`` or the simulator's
``recorder`` argument) and every layer reports structured events:

==========================  ==================================================
event kind                  emitted by
==========================  ==================================================
``probe.start/level/fail``  the probing wavefront (per request / per level)
``probe.commit``            deputy final selection (φ, message accounting)
``fastscore.table_rebuild`` candidate-table cache rebuilds
``router.churn``            trees dropped by a node down-set change
``router.link_churn``       trees dropped by a link down-set change
``tuner.decision``          predicted-vs-measured rates, reprofiles, new α
``window.close``            sampling-period μ(t) samples
``session.*``               open / close / killed / admission races
``failure.crash/recover``   failure injection
``sim.start/end``           run lifecycle
==========================  ==================================================

The default everywhere is the :data:`NULL_RECORDER` singleton, whose cost
is one attribute check per instrumentation site —
``benchmarks/test_observability_overhead.py`` bounds the disabled path at
≤ 5 % of a composition.  Traces export to JSONL (one event per line plus
a final registry snapshot) and ``repro-experiments trace-summary`` folds
a file back into the evaluation's series.
"""

from repro.observability.hotpath import hot_path
from repro.observability.export import (
    REGISTRY_KIND,
    format_trace_summary,
    read_trace,
    summarize_trace,
    write_jsonl,
)
from repro.observability.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    TraceEvent,
    TraceRecorder,
)
from repro.observability.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "REGISTRY_KIND",
    "TraceEvent",
    "TraceRecorder",
    "format_trace_summary",
    "hot_path",
    "read_trace",
    "summarize_trace",
    "write_jsonl",
]
