#!/usr/bin/env python3
"""End-to-end lifecycle benchmark of the alpha-entanglement store.

Contract mode (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` all four workloads run, each in its
own process; ``--runs N`` repeats them, ``--out FILE`` keeps the full
results and ``--compare A.json B.json`` checks two such files against the
metric bounds.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1, help="seed of every generated name, payload and schedule")
    parser.add_argument("--seconds", type=float, default=20.0, help="nominal run length; sets the repetition count")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny corpora and 3 repetitions: checks, not numbers")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload (with --out)")
    parser.add_argument("--out", help="write the full results of every run to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="compare two --out files and exit")
    parser.add_argument("--allow-unpinned", action="store_true", help="run even where the CPU cannot be pinned")
    parser.add_argument("--cold-start", metavar="DIR", help=argparse.SUPPRESS)
    return parser


def _cold_start(workload_name: str, seed: int, smoke: bool, data_dir: str) -> int:
    """The child of ``setup_s``: import, open, one put + get, close."""
    import numpy as np

    from e2ebench.payloads import placement_seed
    from e2ebench.workloads import WORKLOADS, open_service

    workload = WORKLOADS[workload_name]
    if smoke:
        workload = workload.smoke()
    data = np.random.default_rng(seed).bytes(workload.doc_bytes)
    service = open_service(workload, workload.config(data_dir, placement_seed(seed)))
    try:
        service.put("cold-start", data)
        return 0 if service.get("cold-start") == data else 1
    finally:
        service.close()


def _run_one(args: argparse.Namespace, name: str) -> Dict[str, object]:
    from e2ebench.harness import run_workload
    from e2ebench.workloads import WORKLOADS

    return run_workload(
        WORKLOADS[name],
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        allow_unpinned=args.allow_unpinned,
        detail=bool(args.out),
    )


def _contract_line(result: Dict[str, object], declared: List[object]) -> str:
    metrics: Dict[str, Dict[str, float]] = result["metrics"]  # type: ignore[assignment]
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric.name: {"value": metrics[metric.name]["value"], "unit": metric.unit}
                for metric in declared
                if metric.name in metrics
            },
        }
    )


def _report(result: Dict[str, object], trace: bool) -> str:
    from e2ebench.report import END_TO_END, PER_LAYER, format_phases, format_result

    declared = PER_LAYER if trace else END_TO_END
    if result["failed"]:
        print(f"FAILED {result['failed']} of {result['attempted']} operations; first: {result['first_error']}")
    else:
        print(format_result(result, declared))
        if trace:
            print(format_phases(result))
    return _contract_line(result, declared)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: the program under test is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.compare:
        from e2ebench.compare import compare_files

        return compare_files(*args.compare)

    from e2ebench.harness import GuardRailError
    from e2ebench.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"run.py: unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.cold_start:
        return _cold_start(names[0], args.seed, args.smoke, args.cold_start)

    if len(names) == 1 and args.runs == 1:
        # One workload, one process: peak_rss_mb is this process's.
        try:
            result = _run_one(args, names[0])
        except GuardRailError as error:
            print(f"run.py: refusing to report: {error}", file=sys.stderr)
            return 3
        line = _report(result, bool(args.trace))
        if args.out:
            spans = result.pop("spans", None)
            if spans is not None:
                # The last traced repetition's raw spans, written out once.
                with open(args.out + ".spans.json", "w", encoding="utf-8") as handle:
                    json.dump(spans, handle)
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump({"runs": [{names[0]: result}]}, handle, indent=1)
        print(line)
        return 1 if result["failed"] else 0

    # Several workloads or runs: one child process per workload run.
    runs: List[Dict[str, object]] = []
    status = 0
    for index in range(args.runs):
        run: Dict[str, object] = {}
        for name in names:
            out = os.path.join(HERE, ".work", f"child-{os.getpid()}-{index}-{name}.json")
            os.makedirs(os.path.dirname(out), exist_ok=True)
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out,
            ]
            command += ["--smoke"] if args.smoke else []
            command += ["--allow-unpinned"] if args.allow_unpinned else []
            try:
                done = subprocess.run(command, check=False)
                status = status or done.returncode
                if os.path.exists(out):
                    with open(out, encoding="utf-8") as handle:
                        run[name] = json.load(handle)["runs"][0][name]
            finally:
                for leftover in (out, out + ".spans.json"):
                    if os.path.exists(leftover):
                        os.remove(leftover)
        runs.append(run)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs}, handle, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
