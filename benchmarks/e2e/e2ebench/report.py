"""The metric names this benchmark defines, and how a result is printed.

``BENCHMARK.json`` at the repository root lists exactly the names declared
here (a test compares the two); later performance claims cite these names.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from e2ebench.tracing import DIRECT_KERNELS, SPAN_NAMES

__all__ = ["Metric", "END_TO_END", "PER_LAYER", "stat", "format_result", "format_phases"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: share of the parent's median the metric may worsen by.
    bound: Optional[float] = None
    #: End-to-end counts and ratios that must repeat exactly for one seed.
    exact: bool = False
    what: str = ""


END_TO_END: List[Metric] = [
    Metric("put_mb_s", "MB/s", "higher", 0.25, what="preloaded user bytes / time of the put phase"),
    Metric("get_mb_s", "MB/s", "higher", 0.25, what="live user bytes x passes / time of the healthy get-all phase"),
    Metric("degraded_get_mb_s", "MB/s", "higher", 0.25, what="same with site:0 failed; nothing is written back"),
    Metric("repair_mb_s", "MB/s", "higher", 0.20, what="repaired blocks x block size / time of repair()"),
    Metric("transition_mb_s", "MB/s", "higher", 0.25, what="user bytes x hops / summed transition_to time"),
    Metric("ops_per_s", "1/s", "higher", 0.25, what="mixed-loop operations / wall time of the mixed closed loop"),
    Metric("get_p50_ms", "ms", "lower", 0.25, what="median latency of the mixed loop's gets"),
    Metric("op_p95_ms", "ms", "lower", 0.25, what="95th percentile latency of the mixed-loop operations"),
    Metric("reopen_s", "s", "lower", 0.25, what="close() + open() on the same configuration"),
    Metric("setup_s", "s", "lower", 0.25, what="fresh-interpreter cold start: import, open, one put + get, close"),
    Metric("peak_rss_mb", "MB", "lower", 0.10, what="ru_maxrss of the workload's process at exit"),
    Metric("stored_bytes_per_user_byte", "ratio", "lower", 0.05, exact=True, what="bytes stored before the disaster / live user bytes"),
    Metric("repair_reads_per_block", "ratio", "lower", 0.05, exact=True, what="blocks read / blocks repaired by repair()"),
]

#: Counters and ratios reported beside the spans in a traced run.
COUNTERS: List[Metric] = [
    Metric("system.frontend.overloads", "count", "lower", what="requests refused by admission control per repetition"),
    Metric("system.service.blocks_per_put", "count", "lower", what="blocks stored per preloaded document, redundancy included"),
    Metric("system.transitions.reencode_mb_s", "MB/s", "higher", what="user bytes / time of the re-encode hops"),
    Metric("system.transitions.alpha_raise_mb_s", "MB/s", "higher", what="user bytes / time of the alpha-raise hop"),
    Metric("system.transitions.repuncture_mb_s", "MB/s", "higher", what="user bytes / time of the repuncture hop"),
    Metric("schemes.repair.reads_per_block", "ratio", "lower", what="blocks read / blocks repaired"),
    Metric("storage.block_store.cache_hit_ratio", "ratio", "higher", what="cache hits / lookups over the repetition (0 without a cache)"),
    Metric("storage.block_store.get_hit_ratio", "ratio", "higher", what="cache hits / lookups during the healthy get phase: the working set against the cache"),
    Metric("storage.backends.disk_bytes_per_user_byte", "ratio", "lower", what="bytes left under data_dir after close / live user bytes (0 on memory)"),
    Metric("storage.wal.commits_per_put", "ratio", "lower", what="WAL commits during the preload / documents put"),
    Metric("storage.wal.ops_per_group", "ratio", "lower", what="records per WAL commit group over the repetition"),
    Metric("storage.wal.bytes_per_commit", "B", "lower", what="bytes appended to the WAL / commit groups over the repetition"),
    Metric("trace.overhead_share", "ratio", "lower", what="(traced - untraced time of the timed phases) / untraced"),
    Metric("harness.unattributed_share", "ratio", "lower", what="share of the timed phases spent outside every span"),
]

PER_LAYER: List[Metric] = (
    [Metric(f"{name}.self_ms", "ms", "lower", what="self time per repetition") for name in SPAN_NAMES]
    + [Metric(f"{name}.calls", "count", "lower", what="calls per repetition") for name in SPAN_NAMES]
    + [Metric(name, unit, "lower" if unit == "us" else "higher", what="kernel timed directly on the workload's payload matrix") for name, unit in DIRECT_KERNELS.items()]
    + COUNTERS
)


def stat(values: Sequence[float], raw: Optional[Sequence[float]] = None) -> Dict[str, float]:
    """Median, quartiles and sample count of ``values`` (and the raw median)."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    entry = {"value": statistics.median(ordered), "q1": q1, "q3": q3, "n": len(ordered)}
    if raw is not None:
        entry["raw"] = statistics.median(raw)
    return entry


def format_result(result: Dict[str, object], metrics: Iterable[Metric]) -> str:
    """A table of every metric by name, with unit, spread and sample count."""
    values: Dict[str, Dict[str, float]] = result["metrics"]  # type: ignore[assignment]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"attempted {result['attempted']}  failed {result['failed']}"
    ]
    for metric in metrics:
        entry = values[metric.name]
        line = f"  {metric.name:<46} {entry['value']:>14.6g} {metric.unit:<6}"
        if "q1" in entry:
            line += f" [{entry['q1']:.6g} .. {entry['q3']:.6g}] n={entry['n']}"
        if "raw" in entry:
            line += f" raw={entry['raw']:.6g}"
        lines.append(line)
    return "\n".join(lines)


def format_phases(result: Dict[str, object]) -> str:
    """Per timed phase: every span's calls, self time and share of the phase."""
    phases: Dict[str, Dict[str, Dict[str, float]]] = result["phases"]  # type: ignore[assignment]
    lines = []
    for phase, rows in phases.items():
        lines.append(f"  phase {phase}")
        for name, row in sorted(rows.items(), key=lambda item: -item[1]["share"]):
            lines.append(
                f"    {name:<40} calls {row['calls']:>8g}  self {row['self_ms']:>10.4f} ms"
                f"  share {row['share']:>6.1%}"
            )
    return "\n".join(lines)
