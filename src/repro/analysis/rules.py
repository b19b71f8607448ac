"""The rule catalog: code → one-line description.

Kept as data (not docstrings) so the CLI's ``--list-rules``, the tests,
and DEVELOPMENT.md can all enumerate the same source of truth.
"""

from __future__ import annotations

from typing import Dict

ALL_RULES: Dict[str, str] = {
    "DET101": (
        "process-global RNG use: random.<draw>() module calls, imports of "
        "module-level draws, unseeded Random()/default_rng(), the random "
        "module passed as an RNG object"
    ),
    "DET102": (
        "wall-clock read (time.time/perf_counter/monotonic, datetime.now "
        "family) outside repro.observability.recorder"
    ),
    "DET103": (
        "statically set-typed (or dict.keys()) expression feeding an "
        "ordering-sensitive sink without sorted(...)"
    ),
    "DET150": (
        "seed derivation (Random(seed + k) / seed=... arithmetic) with no "
        "matching slot in repro.analysis.seeds.REGISTRY"
    ),
    "DET151": (
        "seed derivation whose declared slot collides with another slot "
        "at the same absolute stream (two subsystems, one sequence)"
    ),
    "DET152": (
        "RNG from a declared slot flowing into a module outside the "
        "slot's declared consumer (the stream escapes its subsystem)"
    ),
    "DET153": (
        "RNG draws interleaved across a config-flag-dependent branch — "
        "toggling the flag shifts every later draw from the stream"
    ),
    "LAY201": (
        "upward or same-rank import against the declared layer DAG "
        "(including imports out of observability or into analysis)"
    ),
    "LAY202": "import cycle between top-level packages (chain printed)",
    "LAY203": "top-level package missing from the declared layer DAG",
    "REC301": (
        "recorder.emit/inc/observe/set_gauge call on a hot path "
        "(repro.core, repro.topology.routing) without an `.enabled` guard"
    ),
    "SHR403": (
        "add_*_listener registration in a class with no matching "
        "remove_*_listener teardown (the PR 6 leak class)"
    ),
    "HOT501": (
        "list/tuple/sorted materialisation of an O(N)-shaped iterable "
        "inside an @hot_path function or its callees"
    ),
    "HOT502": (
        "dense square numpy allocation (np.zeros((n, n)) family) inside "
        "an @hot_path function — O(N²) resident memory"
    ),
    "HOT503": (
        "full .items()/.keys()/.values() scan of an instance map inside "
        "an @hot_path function"
    ),
    "HOT504": (
        "f-string allocation inside an @hot_path function outside a "
        "recorder guard or raise"
    ),
    "HOT505": "print/logging call inside an @hot_path function",
    "HOT506": (
        "hot-path marker problem: a budget-table function missing "
        "@hot_path, or a marker without an O(...) budget string"
    ),
    "PAR001": "file does not parse (reported so CI cannot skip broken files)",
    "PAR002": (
        "suppression comment naming a code that is no rule (misspelt or "
        "retired), which silences nothing"
    ),
}


def rule_catalog() -> str:
    """Human-readable rule listing for ``--list-rules``."""
    width = max(len(code) for code in ALL_RULES)
    return "\n".join(
        f"{code.ljust(width)}  {description}"
        for code, description in sorted(ALL_RULES.items())
    )
