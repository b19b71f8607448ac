"""Alternating perfbench pairs: a base commit against this checkout.

    python benchmarks/perf_pairs.py --base HEAD --workload faults-400 --seeds 2-11

(``make perf-pairs BASE=... WORKLOAD=... SEEDS=...`` runs the same.)  The
committed files of ``--base`` are extracted with ``git archive`` into a
temporary directory, removed on exit.  Then, seed by seed, ``python3
perfbench/run.py --workload W --seed S --seconds T --trace 0`` runs in
that tree and in this checkout, alternating which side runs first; the
run length ``T`` is ``BENCHMARK.json``'s ``run_seconds``, the same on
both sides.

The report gives each side's finds failed out of attempted, summed over
the pairs, and for every end-to-end metric ``BENCHMARK.json`` declares,
each side's median and quartiles and the change's wins (ties count for
neither side).  ``claim`` says whether a gain claim on the metric would
hold: at least 9 wins in 10 pairs, a median difference in the better
direction larger than the base's interquartile range, and no larger
share of failed finds than the base's.  ``bound`` is ``WORSE`` when the
change's median is worse than the base's by more than the metric's
declared relative bound, ``unresolved`` when it is not but the base's
own interquartile range is wider than that bound (unless every change
run beats every base run), and ``ok`` otherwise.

The exit code is non-zero when a run fails (a non-zero exit or no result
line) or the two sides of a pair print different decision digests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: share of pairs the change must win for a gain claim
CLAIM_WIN_SHARE = 0.9


@dataclass(frozen=True)
class Verdict:
    """One metric's comparison over the pairs."""

    name: str
    base: Tuple[float, float, float]  # quartile 1, median, quartile 3
    change: Tuple[float, float, float]
    wins: int
    pairs: int
    claim_holds: bool
    bound: str  # "WORSE", "unresolved" or "ok"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    name: str,
    better: str,
    bound: float,
    pairs: Sequence[Tuple[float, float]],
    finds: Tuple[Tuple[int, int], Tuple[int, int]],
) -> Verdict:
    """Compare ``(base, change)`` value pairs of one metric.

    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the largest
    relative worsening of the median that the metric allows.  ``finds``
    is each side's ``(failed, attempted)`` over the pairs: a change that
    fails a larger share of its finds claims no gain.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    base = quartiles([b for b, _ in pairs])
    change = quartiles([c for _, c in pairs])
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0.0)
    gain = sign * (base[1] - change[1])
    (base_failed, base_attempted), (change_failed, change_attempted) = finds
    claim_holds = (
        wins >= math.ceil(CLAIM_WIN_SHARE * len(pairs))
        and gain > base[2] - base[0]
        and change_failed * base_attempted <= base_failed * change_attempted
    )
    allowed = bound * abs(base[1])
    if -gain > allowed:
        status = "WORSE"
    elif base[2] - base[0] > allowed and not (
        max(sign * c for _, c in pairs) < min(sign * b for b, _ in pairs)
    ):
        status = "unresolved"
    else:
        status = "ok"
    return Verdict(name, base, change, wins, len(pairs), claim_holds, status)


def parse_seeds(text: str) -> List[int]:
    """``"2-11"``, ``"2,3,5"`` or ``"2 3 5"`` (ranges are inclusive)."""
    seeds: List[int] = []
    for part in text.replace(",", " ").split():
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(tree: str, workload: str, seed: int, seconds: float) -> Optional[dict]:
    """One untraced perfbench run; its result line (metrics, finds
    attempted and failed) plus its digest, or None when it failed."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
    ]
    child = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = child.stdout.splitlines()
    digests = [line.split()[1] for line in lines if line.startswith("digest ")]
    if child.returncode != 0 or not lines or not digests:
        sys.stderr.write(child.stdout + child.stderr)
        return None
    result = json.loads(lines[-1])
    result["digest"] = digests[-1]
    return result


def extract(base: str, into: str) -> None:
    """The committed files of ``base`` under ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", base], cwd=ROOT, capture_output=True,
        check=True,
    )
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout, check=True)


def report(verdicts: Sequence[Verdict], out=sys.stdout) -> None:
    out.write(
        f"{'metric':24s} {'base median (q1-q3)':>30s} {'change median (q1-q3)':>30s}"
        f" {'wins':>7s}  claim  bound\n"
    )
    for v in verdicts:
        base = f"{v.base[1]:.4g} ({v.base[0]:.4g}-{v.base[2]:.4g})"
        change = f"{v.change[1]:.4g} ({v.change[0]:.4g}-{v.change[2]:.4g})"
        out.write(
            f"{v.name:24s} {base:>30s} {change:>30s} {v.wins:>3d}/{v.pairs:<3d}"
            f"  {'holds' if v.claim_holds else 'no':5s}  {v.bound}\n"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git ref to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 2-11 or 2,3,5")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    values: Dict[str, List[Tuple[float, float]]] = {m["name"]: [] for m in metrics}
    finds = {"base": [0, 0], "change": [0, 0]}  # failed, attempted
    failed = False
    base_tree = tempfile.mkdtemp(prefix="perf-pairs-")
    try:
        extract(args.base, base_tree)
        for index, seed in enumerate(parse_seeds(args.seeds)):
            sides = [("base", base_tree), ("change", ROOT)]
            if index % 2:
                sides.reverse()
            results = {}
            for side, tree in sides:
                results[side] = run_once(tree, args.workload, seed, seconds)
            base, change = results["base"], results["change"]
            if base is None or change is None:
                print(f"seed {seed}: a run failed")
                failed = True
                continue
            same = base["digest"] == change["digest"]
            failed |= not same
            for side, result in results.items():
                finds[side][0] += result["failed"]
                finds[side][1] += result["attempted"]
            print(
                f"seed {seed} ({sides[0][0]} first): digest "
                f"{'equal' if same else 'DIFFERENT'}; " + ", ".join(
                    f"{name} {base['metrics'][name]['value']:.4g} -> "
                    f"{change['metrics'][name]['value']:.4g}"
                    for name in ("wall_ms_per_request", "find_p95_ms")
                    if name in base["metrics"] and name in change["metrics"]
                ),
                flush=True,
            )
            for name, pairs in values.items():
                if name in base["metrics"] and name in change["metrics"]:
                    pairs.append((
                        base["metrics"][name]["value"],
                        change["metrics"][name]["value"],
                    ))
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)

    print(f"\n{args.workload}, base {args.base}, seeds {args.seeds}, {seconds:g} s runs:")
    print(", ".join(
        f"{side} failed {failed_finds} of {attempted} finds"
        for side, (failed_finds, attempted) in finds.items()
    ))
    report([
        verdict(
            m["name"], m["better"], m["bound"], values[m["name"]],
            (tuple(finds["base"]), tuple(finds["change"])),
        )
        for m in metrics
        if values[m["name"]]
    ])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
