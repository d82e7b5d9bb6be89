"""Compare two result files written by ``run.py --out``.

Per workload and end-to-end metric: the median over each file's runs, the
relative difference and the metric's bound.  A is the parent, B the change:
the comparison fails when B is *worse* than A by more than the bound, in
the metric's declared direction; B better than A by more than the bound
reads ``improved`` and passes.  An exact metric (and ``failed_op_share``)
may not differ at all.  Two sets of runs of the same code must pass this
check in both orders -- an ``improved`` line between them is noise too.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List

from e2ebench.report import END_TO_END, Metric

__all__ = ["compare_files", "medians"]

FAILED = Metric("failed_op_share", "ratio", "lower", 0.0, exact=True)


def medians(path: str) -> Dict[str, Dict[str, float]]:
    """``{workload: {metric: median over the file's untraced runs}}``."""
    with open(path, encoding="utf-8") as handle:
        runs: List[Dict[str, Dict[str, object]]] = json.load(handle)["runs"]
    collected: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        for workload, result in run.items():
            if result["trace"]:
                continue
            values = collected.setdefault(workload, {})
            values.setdefault(FAILED.name, []).append(float(result["failed_op_share"]))  # type: ignore[arg-type]
            for name, entry in result["metrics"].items():  # type: ignore[union-attr]
                values.setdefault(name, []).append(float(entry["value"]))
    return {
        workload: {name: statistics.median(series) for name, series in values.items()}
        for workload, values in collected.items()
    }


def _verdict(metric: Metric, left: float, right: float) -> str:
    """``ok``, ``improved``, ``WORSE`` or (exact metrics) ``DIFFERS``."""
    if metric.exact:
        return "ok" if left == right else "DIFFERS"
    bound = metric.bound or 0.0
    worsening = (right - left) / left if metric.better == "lower" else (left - right) / left
    if worsening > bound:
        return "WORSE"
    return "improved" if worsening < -bound else "ok"


def compare_files(path_a: str, path_b: str) -> int:
    """Print the comparison; return 0 unless B is worse, differs or lacks something."""
    a, b = medians(path_a), medians(path_b)
    status = 0
    print(f"A = {path_a}\nB = {path_b}")
    for workload in list(a) + [name for name in b if name not in a]:
        if workload not in a or workload not in b:
            print(f"{workload}: missing from {'B' if workload in a else 'A'}")
            status = 1
            continue
        print(f"{workload}")
        for metric in END_TO_END + [FAILED]:
            if metric.name not in a[workload] or metric.name not in b[workload]:
                print(f"  {metric.name:<28} missing")
                status = 1
                continue
            left, right = a[workload][metric.name], b[workload][metric.name]
            rule = "exact" if metric.exact else f"bound {metric.bound:.0%}"
            verdict = _verdict(metric, left, right)
            difference = (right - left) / left if left else 0.0
            print(
                f"  {metric.name:<28} A {left:>12.6g}  B {right:>12.6g} {metric.unit:<6}"
                f" {difference:>+8.2%}  {rule:<10} {verdict}"
            )
            if verdict in ("WORSE", "DIFFERS"):
                status = 1
    return status
