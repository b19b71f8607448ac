"""Command-line interface for the reproduction experiments.

One subcommand per entry of :data:`repro.experiments.EXPERIMENTS`.  With
no flags, each regenerates the entry's committed result files::

    repro-experiments fig6 -o benchmarks/results
    repro-experiments fig8 --scale paper -o out
    repro-experiments compare --rate 60 --nodes 200
    repro-experiments fig5a --rates 50,100 --ratios 0.1,0.3,1.0

A subcommand runs at the entry's committed scale unless ``--scale`` picks
``paper`` (Section 4.1's full setup: 3200 routers, 100-minute horizons;
tens of minutes per figure) or ``fast``.  ``trace`` records one traced
run and ``trace-summary`` summarises a recorded trace.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from types import MappingProxyType
from typing import Any, Callable, Optional, Sequence

from repro.experiments import EXPERIMENTS, FAST_SCALE, PAPER_SCALE, default_spec
from repro.experiments.runner import build_simulator
from repro.observability import (
    TraceRecorder,
    format_trace_summary,
    read_trace,
    summarize_trace,
    write_jsonl,
)

# read-only by construction: a worker mutating its copy of the scale map
# would silently diverge from its siblings
SCALES = MappingProxyType({"paper": PAPER_SCALE, "fast": FAST_SCALE})


def _like(default: Any) -> Callable[[str], Any]:
    """A parser of values like ``default``: comma-separated for a tuple."""
    if not isinstance(default, tuple):
        return type(default)
    item = type(default[0])
    return lambda text: [item(part.strip()) for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    """The repro-experiments argument parser (one subcommand per entry)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scale", choices=sorted(SCALES),
        help="experiment scale (default: the committed one)",
    )
    common.add_argument(
        "--seed", type=int, help="master seed (default: the committed one)"
    )
    common.add_argument(
        "--nodes", type=int,
        help="overlay node count where the experiment fixes it (default: 400)",
    )
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the evaluation figures of 'Optimal Component "
        "Composition for Scalable Stream Processing' (ICDCS 2005).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for entry in EXPERIMENTS.values():
        command = commands.add_parser(entry.name, help=entry.help, parents=[common])
        command.add_argument(
            "-o", "--output", metavar="DIR",
            help=f"write {', '.join(entry.view.files)} into DIR, replacing them",
        )
        command.add_argument(
            "--workers", type=int, metavar="N",
            help="run the independent simulation runs on N worker processes "
            "(results are identical to a serial run; default: serial)",
        )
        for flag, default in entry.params.items():
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
            command.add_argument(
                f"--{flag}", type=_like(default), default=default,
                help=f"default: {shown}",
            )

    trace = commands.add_parser(
        "trace", parents=[common],
        help="run one traced simulation (fast scale, seed 0 unless set), export JSONL",
    )
    trace.add_argument(
        "-o", "--output", help="also write the rendered summary to this file"
    )
    trace.add_argument("--rate", type=float, default=60.0)
    trace.add_argument(
        "--adaptive", action="store_true",
        help="attach the adaptive probing-ratio tuner (ACP)",
    )
    trace.add_argument("--target", type=float, default=0.75)
    trace.add_argument(
        "--faults", action="store_true",
        help="inject the faults experiment's cocktail with session recovery "
        "(fault and recovery events land in the trace)",
    )
    trace.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds (default: the scale's duration)",
    )
    trace.add_argument(
        "--trace-out", default="trace.jsonl",
        help="JSONL trace destination (default: trace.jsonl)",
    )

    summary = commands.add_parser(
        "trace-summary", help="summarise a JSONL trace file"
    )
    summary.add_argument("trace_file", help="path to a trace JSONL file")
    summary.add_argument(
        "-o", "--output", default=None,
        help="also write the rendered summary to this file",
    )
    return parser


def _emit(text: str, output: Optional[str]) -> None:
    print(text)
    if output:
        with open(output, "w", encoding="utf-8") as sink:
            sink.write(text + "\n")


def _trace(args: argparse.Namespace) -> None:
    spec = default_spec(
        scale=SCALES[args.scale or "fast"], num_nodes=args.nodes or 400,
        rate_per_min=args.rate, seed=args.seed or 0,
    )
    if args.adaptive:
        spec = replace(spec, adaptive=True, target_success_rate=args.target)
    if args.faults:
        _kill_on_fault, recovery = EXPERIMENTS["faults"].arms()
        spec = spec.with_faults(recovery.spec.faults, recovery.spec.recovery)
    if args.duration is not None:
        spec = replace(spec, duration_s=args.duration)
    recorder = TraceRecorder()
    build_simulator(spec, recorder=recorder).run(spec.duration_s)
    records = write_jsonl(args.trace_out, recorder)
    print(f"wrote {records} records to {args.trace_out}")
    _emit(
        format_trace_summary(summarize_trace(read_trace(args.trace_out))),
        args.output,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: parse, run the requested experiment, emit its results."""
    args = build_parser().parse_args(argv)
    if args.command == "trace-summary":
        summary = summarize_trace(read_trace(args.trace_file))
        _emit(format_trace_summary(summary), args.output)
    elif args.command == "trace":
        _trace(args)
    else:
        entry = EXPERIMENTS[args.command]
        outcome = entry.run(
            scale=SCALES[args.scale] if args.scale else None,
            num_nodes=args.nodes,
            seed=args.seed,
            workers=args.workers,
            **{flag: getattr(args, flag) for flag in entry.params},
        )
        print(outcome.text)
        if args.output:
            outcome.write(args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
