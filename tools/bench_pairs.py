"""Alternating parent / change pairs of the end-to-end benchmark, and the verdict.

A performance claim compares two checkouts of this repository -- the parent
commit and the change -- on one metric of one workload.  This tool runs
``benchmarks/e2e/run.py`` from each checkout in alternating pairs (the
parent first in odd pairs, the change first in even ones), keeps every run's
full contract line, refuses a run that failed an operation, and prints the
per-pair values, each side's median and quartiles, the win count and the
verdict of the rule in ``docs/performance.md``: a gain needs the change to
win at least nine tenths of the pairs (ties count for neither) and the
medians to differ, in the metric's better direction, by more than the
parent's inter-quartile range.  After the verdict it prints, from the same
runs, every end-to-end metric's per-side median and win count (what
moved beside the claim).

Usage (from anywhere; each checkout runs its own ``run.py`` and ``src/``)::

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload archive_ae --metric get_mb_s --seed 1 --seconds 20 --pairs 10

``--smoke`` passes ``--smoke --allow-unpinned`` to ``run.py`` (tiny corpora:
checks the loop, not the numbers).  ``--out FILE`` (default
``bench-pairs.json``) is rewritten after every run, so an interrupted
series keeps what it measured, with each checkout path's length.  Put both
checkouts at paths of equal length: the length of a checkout's path alone
has moved heap-sensitive metrics
(``benchmarks/e2e/e2ebench/harness.py:heap_trimmer``), so unequal lengths
print a warning.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

SIDES = ("parent", "change")


@dataclass(frozen=True)
class Verdict:
    """The rule applied to ``(parent, change)`` pairs of one metric."""

    parent: Tuple[float, float, float]  # (first quartile, median, third quartile)
    change: Tuple[float, float, float]
    wins: int
    ties: int
    pairs: int
    gain: bool

    @property
    def relative(self) -> float:
        """The change's median against the parent's, as a fraction."""
        return self.change[1] / self.parent[1] - 1.0

    @property
    def parent_iqr(self) -> float:
        return self.parent[2] - self.parent[0]

    def summary(self) -> str:
        def side(q: Tuple[float, float, float]) -> str:
            return f"{q[1]:.4g} [{q[0]:.4g} .. {q[2]:.4g}]"

        return (
            f"median [quartiles]: {side(self.parent)} -> {side(self.change)} "
            f"({self.relative:+.1%}); change wins {self.wins} / {self.pairs}"
            f" ({self.ties} ties); parent IQR {self.parent_iqr:.4g}; "
            + ("GAIN" if self.gain else "NO GAIN")
        )


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (linear interpolation
    between order statistics, as ``numpy.percentile`` does by default)."""
    if len(values) == 1:
        return (values[0],) * 3
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def verdict(pairs: Sequence[Tuple[float, float]], better: str) -> Verdict:
    """Apply the rule to ``(parent, change)`` value pairs; ``better`` is
    ``"higher"`` or ``"lower"``, as ``BENCHMARK.json`` declares it."""
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    if not pairs:
        raise ValueError("no pairs to judge")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for parent, change in pairs if sign * (change - parent) > 0)
    ties = sum(1 for parent, change in pairs if change == parent)
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    gain = wins * 10 >= 9 * len(pairs) and sign * (change[1] - parent[1]) > parent[2] - parent[0]
    return Verdict(parent, change, wins, ties, len(pairs), gain)


class RefusedRun(RuntimeError):
    """A run that failed an operation or printed no contract line."""


def contract_line(stdout: str, returncode: int) -> Dict[str, object]:
    """The JSON object ``run.py`` prints last; refuses a failed run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RefusedRun(f"run.py printed no contract line (exit {returncode})") from None
    if not isinstance(result, dict) or "metrics" not in result:
        raise RefusedRun(f"run.py printed no contract line (exit {returncode})")
    if result.get("failed", 0) or returncode != 0:
        raise RefusedRun(
            f"run.py reported {result.get('failed')} failed operations (exit {returncode})"
        )
    return result


def run_once(checkout: str, args: argparse.Namespace) -> Dict[str, object]:
    """One ``run.py`` of ``args.workload`` from ``checkout``."""
    command = [
        sys.executable, os.path.join(checkout, "benchmarks", "e2e", "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    if args.smoke:
        command += ["--smoke", "--allow-unpinned"]
    elif args.allow_unpinned:
        command.append("--allow-unpinned")
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    try:
        return contract_line(done.stdout, done.returncode)
    except RefusedRun as refused:
        raise RefusedRun(f"{checkout}: {refused}\n{done.stderr[-2000:]}") from None


def end_to_end(checkout: str) -> Dict[str, str]:
    """``better`` of every end-to-end metric, as the checkout's
    ``BENCHMARK.json`` declares them, in declared order."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return {entry["name"]: str(entry["better"]) for entry in declared.get("end_to_end", [])}


def _value(run: Dict[str, object], metric: str) -> float:
    metrics = run["metrics"]
    assert isinstance(metrics, dict)
    return float(metrics[metric]["value"])


def every_metric(runs: Sequence[Dict[str, object]], directions: Dict[str, str]) -> List[str]:
    """One line per end-to-end metric both sides reported in every pair of
    ``runs``: each side's median, the change's relative difference and its
    wins, in the metric's better direction."""
    by_pair: Dict[object, Dict[object, Dict[str, object]]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    whole = [sides for sides in by_pair.values() if len(sides) == len(SIDES)]
    lines = []
    for name, better in directions.items():
        try:
            pairs = [
                (_value(sides["parent"], name), _value(sides["change"], name)) for sides in whole
            ]
        except (KeyError, TypeError):
            continue  # not reported by this workload
        if not pairs:
            continue
        judged = verdict(pairs, better)
        lines.append(
            f"  {name} (better {better}): median {judged.parent[1]:.4g} -> "
            f"{judged.change[1]:.4g} ({judged.relative:+.1%}); change wins "
            f"{judged.wins} / {judged.pairs}"
        )
    return lines


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="one run.py workload")
    parser.add_argument("--metric", default="get_mb_s", help="the claimed end-to-end metric")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--smoke", action="store_true", help="run.py --smoke: checks, not numbers")
    parser.add_argument("--allow-unpinned", action="store_true", help="passed on to run.py")
    parser.add_argument("--out", default="bench-pairs.json", help="every run, kept (JSON)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.pairs < 1:
        raise SystemExit("bench_pairs: --pairs must be at least 1")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    directions = end_to_end(checkouts["change"])
    if args.metric not in directions:
        raise SystemExit(
            f"bench_pairs: {args.metric!r} is not an end-to-end metric of BENCHMARK.json"
        )
    better = directions[args.metric]
    lengths = {side: len(path) for side, path in checkouts.items()}
    if lengths["parent"] != lengths["change"]:
        print(
            f"bench_pairs: warning: the checkout paths differ in length (parent "
            f"{lengths['parent']}, change {lengths['change']} characters); path length "
            "alone has moved heap-sensitive metrics -- clone both to equal-length paths",
            file=sys.stderr,
        )
    runs: List[Dict[str, object]] = []
    pairs: List[Tuple[float, float]] = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        values: Dict[str, float] = {}
        for side in order:
            try:
                result = run_once(checkouts[side], args)
            except RefusedRun as refused:
                print(f"bench_pairs: pair {pair}, {side}: refused: {refused}", file=sys.stderr)
                return 1
            runs.append({"pair": pair, "side": side, "checkout": checkouts[side], **result})
            with open(args.out, "w", encoding="utf-8") as handle:
                kept = {
                    "workload": args.workload,
                    "seed": args.seed,
                    "path_lengths": lengths,
                    "runs": runs,
                }
                json.dump(kept, handle, indent=1)
            values[side] = _value(result, args.metric)
        pairs.append((values["parent"], values["change"]))
        print(
            f"pair {pair:2d} ({order[0]} first): {args.metric} "
            f"{values['parent']:.4g} -> {values['change']:.4g}",
            flush=True,
        )
    judged = verdict(pairs, better)
    print(f"{args.workload} {args.metric} (better {better}), seed {args.seed}: {judged.summary()}")
    print("every end-to-end metric, per-side median and change wins:")
    print("\n".join(every_metric(runs, directions)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
