"""Run one benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload faults-400 --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics in this process (single-threaded: BLAS thread pools are pinned
to one thread before numpy loads); its timings are scaled to a fixed
reference speed by the host-speed gauge of ``calibration.py`` and
printed beside their raw wall values.  ``--trace 1`` first runs the same
command with ``--trace 0`` in a fresh child process, then repeats the
run with every layer's public calls wrapped, prints the per-layer
metrics, the tracing overhead and whether each condition of the
workload's role holds, and writes the kept spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when the run is correct: resources were conserved after the
drain, every percentile was resolved, and (traced) the decision digest
equals the untraced run's.  See ``perfbench/README.md`` for the
workloads and metrics.
"""

from __future__ import annotations

import os

for _variable in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
DETAIL_PREFIX = "detail: "


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Put the program's source tree on the path; fail without it."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source at {source}\n")
        sys.exit(2)
    sys.path.insert(0, source)


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    })


def print_stamp(stamp) -> None:
    print("stamp: " + " ".join(f"{key}={value}" for key, value in stamp.items()))


def untraced(args) -> int:
    from harness import measure, stamp
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    result = measure(workload, args.seed, args.seconds)
    print_stamp(stamp(ROOT))
    print(
        f"workload {workload.name} seed {args.seed}: {len(result['episodes'])} episodes "
        f"(seeds {result['episodes']}), run phase {result['run_s']:.2f} s at "
        f"{result['speed']:.3f} x the reference speed"
    )
    for episode in result["per_episode"]:
        print(
            f"  episode seed {episode['seed']}: set-up {episode['setup_s']:.3f} s, run phase "
            f"{episode['run_s']:.2f} s raw at {episode['speed']:.3f} x, {episode['requests']} "
            f"requests, {episode['ms_per_request']:.3f} ms/request, find median "
            f"{episode['find_p50_ms']:.3f} ms, success {episode['success_rate']:.4f}"
        )
    unresolved = [name for name, (value, _) in result["metrics"].items() if value is None]
    for name, (value, unit) in result["metrics"].items():
        shown = "unresolved" if value is None else f"{value:.6g} {unit}"
        raw = ""
        if name in result["raw"]:
            raw_value = result["raw"][name]
            raw = ", raw unresolved" if raw_value is None else f", raw {raw_value:.6g} {unit}"
        print(f"  {name:24s} {shown:>20s}   ({result['counts'][name]}{raw})")
    print(f"  attempted {result['attempted']}, failed {result['failed']} (finds without a session)")
    print(f"digest {result['digest']}")
    for line in result["violations"]:
        print(f"CONSERVATION VIOLATED: {line}")
    for name in unresolved:
        print(f"UNRESOLVED: {name} has fewer than 10 samples beyond it")
    correct = not result["violations"] and not unresolved
    print(DETAIL_PREFIX + json.dumps({
        "digest": result["digest"],
        "wall_ms_per_request": result["metrics"]["wall_ms_per_request"][0],
        "raw": result["raw"],
        "speed": result["speed"],
        "correct": correct,
        "per_episode": result["per_episode"],
    }))
    metrics = {name: pair for name, pair in result["metrics"].items() if pair[0] is not None}
    print(result_line(correct, result["attempted"], result["failed"], metrics))
    return 0 if correct else 1


def run_untraced_child(args):
    """The same run untraced, in a fresh process; returns its detail."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", "0",
    ]
    # room for a program several times slower than the run length asks
    timeout_s = 4 * args.seconds + 60
    try:
        child = subprocess.run(command, capture_output=True, text=True, timeout=timeout_s, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"untraced run timed out after {timeout_s:g} s")
        return None
    details = [
        json.loads(line[len(DETAIL_PREFIX):])
        for line in child.stdout.splitlines()
        if line.startswith(DETAIL_PREFIX)
    ]
    if child.returncode != 0 or not details:
        sys.stderr.write(child.stderr)
        print(f"untraced run failed with exit code {child.returncode}")
        return None
    return details[-1]


def traced(args) -> int:
    from harness import measure
    from tracing import (
        SETUP_SPANS, LayerHooks, Tracer, installed, layer_metrics, per_layer_metrics,
    )
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    reference = run_untraced_child(args)
    tracer = Tracer()
    hooks = LayerHooks(tracer)
    with installed(tracer, hooks):
        result = measure(workload, args.seed, args.seconds, hooks=hooks)
    traced_ms = result["metrics"]["wall_ms_per_request"][0]
    overhead_ms = traced_ms - reference["wall_ms_per_request"] if reference else None
    values = layer_metrics(tracer, hooks, overhead_ms)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl.gz")
    kept = tracer.write(spans_path)

    run_s = hooks.run_s
    print(f"workload {workload.name} seed {args.seed} traced: {len(result['episodes'])} "
          f"episodes, set-up {hooks.setup_s:.2f} s, run phase {run_s:.2f} s, "
          f"{sum(tracer.calls.values())} wrapped calls")
    print(f"spans: {kept} kept (leaf calls folded into parents) -> {os.path.relpath(spans_path, ROOT)}")
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    for name, value in values.items():
        share = ""
        if name.endswith(".self_s") or name.endswith(".incl_s"):
            span = name.rsplit(".", 1)[0]
            phase, total = ("set-up", hooks.setup_s) if span in SETUP_SPANS else ("run phase", run_s)
            share = f"  {100.0 * value / total:6.2f} % of {phase}" if total else ""
        shown = "unavailable" if value is None else f"{value:14.6g}"
        print(f"  {name:64s} {shown:>14s} {units[name]}{share}")
    print_roles(workload.name, tracer, run_s)
    if reference is None:
        print("digest check: no untraced run to compare with")
        digest_ok = False
    else:
        digest_ok = reference["digest"] == result["digest"]
        print(f"digest traced {result['digest']} untraced {reference['digest']}: "
              f"{'equal' if digest_ok else 'DIFFERENT'}")
        print(f"tracing overhead: {overhead_ms:+.4f} ms per request "
              f"(traced {traced_ms:.4f}, untraced {reference['wall_ms_per_request']:.4f})")
    for line in result["violations"]:
        print(f"CONSERVATION VIOLATED: {line}")
    correct = digest_ok and not result["violations"] and bool(reference and reference["correct"])
    metrics = {name: (value, units[name]) for name, value in values.items() if value is not None}
    print(result_line(correct, result["attempted"], result["failed"], metrics))
    return 0 if correct else 1


def role_checks(name: str, tracer, run_s: float):
    """The conditions under which a workload still loads the layer it is
    there for, as (condition, holds) pairs; none for other workloads."""
    from tracing import RECOVER, SETUP_SPANS

    self_s, calls = tracer.self_s, tracer.calls
    entry = "topology.NeighborhoodIndex.entry"
    rows = sum(self_s.get(f"topology.OverlayRouter.{m}", 0.0)
               for m in ("bottleneck_bandwidth_row", "virtual_link_rows")) / run_s
    recover = tracer.incl_s.get(RECOVER, 0.0) / run_s
    top = max((span for span in self_s if span not in SETUP_SPANS), key=self_s.get, default="-")
    no_entry = (f"NeighborhoodIndex.entry has no calls ({calls.get(entry, 0)})",
                not calls.get(entry))
    no_recover = (f"recover_pending has no calls ({calls.get(RECOVER, 0)})",
                  not calls.get(RECOVER))
    return {
        "steady-400": [
            (f"router row self time is at least 20 % of the run phase ({rows:.1%})",
             rows >= 0.20),
            no_entry, no_recover,
        ],
        "scale-2000": [
            (f"NeighborhoodIndex.entry has the largest self time (largest: {top})",
             top == entry),
            (f"router row self time is under 1 % of the run phase ({rows:.2%})",
             rows < 0.01),
            no_recover,
        ],
        "faults-400": [
            (f"recover_pending is at least half of the run phase, inclusive ({recover:.1%})",
             recover >= 0.5),
            no_entry,
        ],
    }.get(name, [])


def print_roles(name: str, tracer, run_s: float) -> None:
    """Print whether each role condition holds, and the top self times."""
    from tracing import SETUP_SPANS

    if not run_s:
        return
    for condition, holds in role_checks(name, tracer, run_s):
        print(f"role {name}: {'holds' if holds else 'FAILS'}: {condition}")
    self_s = tracer.self_s
    ranked = sorted((s for s in self_s if s not in SETUP_SPANS), key=self_s.get, reverse=True)
    print("top self time: " + ", ".join(
        f"{n} {100.0 * self_s[n] / run_s:.1f} %" for n in ranked[:5]
    ))


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}\n")
        return 2
    return traced(args) if args.trace else untraced(args)


if __name__ == "__main__":
    sys.exit(main())
