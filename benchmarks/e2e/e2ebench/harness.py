"""Run one workload: repetitions, calibration, cold starts, guard rails.

The three rules that make the numbers repeat on a shared, drifting host:

1. *Repetitions, not one stopwatch.*  A run is a fixed number of
   self-contained repetitions (fresh service, full lifecycle, teardown);
   the first :data:`WARMUP` are discarded and a metric is the median over
   the rest.  The count follows from ``--seconds`` alone, never from a
   clock read during the run.
2. *Host-speed calibration.*  :func:`e2ebench.calibrate.sample` runs
   between every two timed units (a repetition or a cold start) and each
   unit is scaled by the mean of its two neighbours over ``CAL_REF_S``.
3. *One pinned CPU.*  The process pins itself and its children to the
   highest CPU it may use; see :func:`pin_cpu`.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from e2ebench import calibrate
from e2ebench.payloads import Corpus, placement_seed
from e2ebench.report import stat
from e2ebench.tracing import DIRECT_KERNELS, SPAN_NAMES, TRANSITION_KINDS, Tracer, direct_kernels
from e2ebench.workloads import TIMED_PHASES, Repetition, Workload, run_repetition

__all__ = ["GuardRailError", "pin_cpu", "heap_trimmer", "run_workload", "host_metadata"]

#: Repetitions discarded at the start of every run.
WARMUP = 3
#: Measured repetitions per second of ``--seconds`` and their floor: no run
#: reports a median over fewer.
REPS_PER_SECOND = 1.5
MIN_MEASURED = 30
#: Cold starts interleaved through an untraced run (``setup_s``).
COLD_STARTS = 8
#: Untraced/traced repetition pairs of a ``--trace`` run.
TRACE_PAIRS = 8
#: A timed phase shorter than this is refused: the reading would be mostly
#: clock and harness overhead.  The shortest real phases last 5-10 ms (the
#: driver's cap on total run time keeps them far below the 0.2 s the issue
#: asked for), so a phase that loses most of its work trips this.
MIN_PHASE_S = 0.001
#: Ninth over first decile of one run's calibration samples beyond this:
#: host unusable.
MAX_CAL_SPREAD = 3.0

#: Scratch root, inside the checkout (the benchmark writes nowhere else).
WORK_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".work")
RUN_PY = os.path.join(os.path.dirname(WORK_ROOT), "run.py")


class GuardRailError(RuntimeError):
    """The run cannot produce numbers worth reporting."""


def pin_cpu(allow_unpinned: bool) -> Optional[int]:
    """Pin this process (and the children it starts) to one CPU.

    Unpinned, the thread-pool front-end is bimodal on a 2-CPU host (a
    cross-core GIL convoy halves throughput in some runs), so the benchmark
    measures single-core cost per operation.
    """
    if not hasattr(os, "sched_setaffinity"):
        if allow_unpinned:
            return None
        raise GuardRailError(
            "os.sched_setaffinity is unavailable; pass --allow-unpinned to run anyway"
        )
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def heap_trimmer() -> Callable[[], object]:
    """glibc's ``malloc_trim(0)``: give every free heap page back to the kernel.

    A repetition ends by freeing its whole store (tens of MiB on
    ``archive_ae``).  How much of that glibc keeps mapped for the next
    repetition depends on thresholds it adjusts to a process's first large
    frees and on where the last live chunk happens to sit.  Measured on
    ``archive_ae`` with a 64-document corpus (calibrated medians of whole
    runs): processes that kept their heap mapped took
    1 100 page faults per repetition and read ``get_p50_ms`` 0.23,
    ``ops_per_s`` 1 080 and ``put_mb_s`` 131; processes that gave it back
    read 0.41, 920 and 112.  Which of the two a process became changed with
    the seed and even with the length of the checkout's path (an earlier
    session counted three runs in ten on the slow side).  Trimming before
    every repetition puts every process on one side: each repetition starts
    like a fresh process and pays for every page it touches (19 000 faults
    per repetition, within 3 % for every seed and checkout location tried).
    The allocator's own settings are left as the program finds them.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        raise GuardRailError("the C library has no malloc_trim; the numbers would not repeat") from None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return lambda: trim(0)


def host_metadata(cpu: Optional[int]) -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "work_root": WORK_ROOT,
        "calibration_version": calibrate.CALIBRATION_VERSION,
        "cal_ref_s": calibrate.CAL_REF_S,
    }


def _cold_start(workload: Workload, seed: int, smoke: bool, data_dir: str) -> Tuple[float, bool]:
    """Wall time of a fresh interpreter that imports the program, opens the
    workload's service, puts and reads back one document and closes."""
    command = [sys.executable, RUN_PY, "--cold-start", data_dir, "--workload", workload.name, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    start = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
    return time.perf_counter() - start, done.returncode == 0


class _Timeline:
    """Timed units with a calibration sample between every two of them."""

    def __init__(self) -> None:
        self._trim_heap = heap_trimmer()
        calibrate.sample()  # warm the kernel's own caches
        self.samples: List[float] = [calibrate.sample()]
        self._settle()

    def _settle(self) -> None:
        """Start the next unit from a settled file system and a trimmed heap.

        With writes of earlier units still queued, the durable workloads'
        metadata-heavy phases (reopen, transition) run in a second, ~30 %
        slower regime for many repetitions on end; see :func:`heap_trimmer`
        for the heap.  Costs a few milliseconds, outside every timed phase.
        """
        os.sync()
        self._trim_heap()

    def close_unit(self) -> float:
        """End the unit that started at the previous sample; returns its factor."""
        self.samples.append(calibrate.sample())
        self._settle()
        return (self.samples[-2] + self.samples[-1]) / 2.0 / calibrate.CAL_REF_S

    def check(self) -> None:
        # Deciles, not extremes: one sample caught by a 60 ms stall must not
        # void a run whose medians are sound.
        deciles = statistics.quantiles(self.samples, n=10)
        spread = deciles[-1] / deciles[0]
        if spread > MAX_CAL_SPREAD:
            raise GuardRailError(
                f"calibration samples spread {spread:.2f}x within one run "
                f"(limit {MAX_CAL_SPREAD}x): the host is unusable right now"
            )


def _phase_seconds(rep: Repetition) -> float:
    return sum(rep.phases.get(phase, 0.0) for phase in TIMED_PHASES)


def _percentile(ordered: Sequence[float], share: float) -> float:
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


class TracedRep(NamedTuple):
    """One traced repetition: what it measured and what the tracer saw."""

    rep: Repetition
    factor: float
    #: ``Tracer.summary()``: ``{phase: {span name: (calls, self seconds)}}``.
    summary: Dict[str, Dict[str, Tuple[int, float]]]
    #: ``(records, bytes appended)`` of every WAL commit group.
    wal_commits: List[Tuple[int, int]]

    def span(self, name: str, phase: Optional[str] = None) -> Tuple[int, float]:
        """``(calls, self seconds)`` of a span in one phase, or over all of them."""
        tables = self.summary.values() if phase is None else [self.summary.get(phase, {})]
        rows = [table[name] for table in tables if name in table]
        return sum(row[0] for row in rows), sum(row[1] for row in rows)


def _rate(raw: Sequence[float], factors: Sequence[float]) -> Dict[str, float]:
    """A throughput: a slow host reads low, so calibration scales it up."""
    return stat([value * factor for value, factor in zip(raw, factors)], raw)


def _duration(raw: Sequence[float], factors: Sequence[float]) -> Dict[str, float]:
    return stat([value / factor for value, factor in zip(raw, factors)], raw)


def _end_to_end(
    workload: Workload,
    corpus: Corpus,
    measured: List[Tuple[Repetition, float]],
    cold: List[Tuple[float, float]],
) -> Dict[str, Dict[str, float]]:
    reps = [rep for rep, _ in measured]
    factors = [factor for _, factor in measured]
    live_bytes = corpus.live_bytes
    hop_bytes = (corpus.preload_bytes if workload.hops_first else live_bytes) * len(workload.hops)
    work = {
        "put_mb_s": ("put", corpus.preload_bytes / 1e6),
        "get_mb_s": ("get", live_bytes * workload.get_passes / 1e6),
        "degraded_get_mb_s": ("degraded_get", live_bytes * workload.degraded_passes / 1e6),
        "transition_mb_s": ("transition", hop_bytes / 1e6),
        "ops_per_s": ("mixed", workload.clients * workload.ops_per_client),
    }
    metrics = {
        name: _rate([amount / rep.phases[phase] for rep in reps], factors)
        for name, (phase, amount) in work.items()
    }
    metrics["repair_mb_s"] = _rate(
        [rep.values["repaired_blocks"] * workload.block_size / 1e6 / rep.phases["repair"] for rep in reps],
        factors,
    )
    metrics["reopen_s"] = _duration(
        [rep.phases["reopen"] / workload.reopen_passes for rep in reps], factors
    )
    # Latency percentiles are taken per repetition, then the median over the
    # repetitions: a stall that stretches a few operations spoils one
    # repetition's tail, not the run's.  The median latency is that of the
    # gets only: a put costs ten gets, so the median of the whole mix sits on
    # the edge between two kinds and jumps from one run to the next.
    # (``rep.latencies`` lists the clients' operations in schedule order.)
    kinds = [kind for schedule in corpus.schedules for kind, _, _ in schedule]
    for name, share, wanted in (("get_p50_ms", 0.50, ("get",)), ("op_p95_ms", 0.95, ("get", "put", "delete"))):
        metrics[name] = _duration(
            [
                _percentile(sorted(l for l, kind in zip(rep.latencies, kinds) if kind in wanted), share) * 1e3
                for rep in reps
            ],
            factors,
        )
    metrics["setup_s"] = _duration([seconds for seconds, _ in cold], [factor for _, factor in cold])
    metrics["stored_bytes_per_user_byte"] = stat([rep.values["stored_bytes"] / live_bytes for rep in reps])
    metrics["repair_reads_per_block"] = stat(
        [rep.values["repair_reads"] / rep.values["repaired_blocks"] for rep in reps]
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": rss_mb, "n": 1}
    return metrics


def _phase_budget(rep: Repetition, phase: str) -> float:
    """The time a phase's spans can account for.  For the mixed loop that is
    its clients' summed loop time: with two clients two spans are open at
    once and wall time would undercount."""
    return rep.client_seconds if phase == "mixed" else rep.phases.get(phase, 0.0)


def _per_layer(
    workload: Workload,
    corpus: Corpus,
    untraced: List[Tuple[Repetition, float]],
    traced: List[TracedRep],
    kernels: List[Tuple[Dict[str, float], float]],
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, Dict[str, Dict[str, float]]]]:
    """Flat per-layer metrics plus the per-phase breakdown behind them."""
    metrics: Dict[str, Dict[str, float]] = {}
    traced_factors = [unit.factor for unit in traced]
    for name in SPAN_NAMES:
        spans = [unit.span(name) for unit in traced]
        metrics[f"{name}.calls"] = stat([calls for calls, _ in spans])
        metrics[f"{name}.self_ms"] = _duration([seconds * 1e3 for _, seconds in spans], traced_factors)
    kernel_factors = [factor for _, factor in kernels]
    for name, unit in DIRECT_KERNELS.items():
        scaled = _duration if unit == "us" else _rate
        metrics[name] = scaled([values[name] for values, _ in kernels], kernel_factors)

    breakdown: Dict[str, Dict[str, Dict[str, float]]] = {}
    for phase in TIMED_PHASES:
        budget = [_phase_budget(unit.rep, phase) for unit in traced]
        rows: Dict[str, Dict[str, float]] = {}
        for name in sorted({name for unit in traced for name in unit.summary.get(phase, {})}):
            spans = [unit.span(name, phase) for unit in traced]
            seconds = [row[1] for row in spans]
            if name == "harness.roots":
                name = "harness.unattributed"
                seconds = [total - inside for total, inside in zip(budget, seconds)]
            rows[name] = {
                "calls": statistics.median(row[0] for row in spans),
                "self_ms": _duration([value * 1e3 for value in seconds], traced_factors)["value"],
            }
        # Shares of the median self times, so that a phase's rows sum to 1.
        phase_ms = sum(row["self_ms"] for row in rows.values())
        for row in rows.values():
            row["share"] = row["self_ms"] / phase_ms if phase_ms else 0.0
        breakdown[phase] = rows
    unattributed_share = []
    for unit in traced:
        total = sum(_phase_budget(unit.rep, phase) for phase in TIMED_PHASES)
        inside = sum(unit.span("harness.roots", phase)[1] for phase in TIMED_PHASES)
        unattributed_share.append((total - inside) / total)
    metrics["harness.unattributed_share"] = stat(unattributed_share)

    plain = statistics.median(_phase_seconds(rep) / factor for rep, factor in untraced)
    wrapped = statistics.median(_phase_seconds(unit.rep) / unit.factor for unit in traced)
    metrics["trace.overhead_share"] = {"value": (wrapped - plain) / plain, "n": len(traced)}

    reps = [rep for rep, _ in untraced]
    factors = [factor for _, factor in untraced]
    live_bytes = corpus.live_bytes
    hop_mb = (corpus.preload_bytes if workload.hops_first else live_bytes) / 1e6
    for kind in TRANSITION_KINDS:
        # 0 where the workload makes no hop of this kind.
        metrics[f"system.transitions.{kind}_mb_s"] = _rate(
            [
                hop_mb * sum(hop == kind for hop, _ in rep.hops)
                / max(sum(seconds for hop, seconds in rep.hops if hop == kind), 1e-12)
                for rep in reps
            ],
            factors,
        )
    metrics["system.frontend.overloads"] = stat([rep.overloads for rep in reps])
    metrics["system.service.blocks_per_put"] = stat(
        [rep.values["blocks_after_preload"] / workload.docs for rep in reps]
    )
    metrics["schemes.repair.reads_per_block"] = stat(
        [rep.values["repair_reads"] / rep.values["repaired_blocks"] for rep in reps]
    )
    metrics["storage.block_store.cache_hit_ratio"] = stat(
        [
            rep.values["cache_hits"] / max(rep.values["cache_hits"] + rep.values["cache_misses"], 1)
            for rep in reps
        ]
    )
    metrics["storage.block_store.get_hit_ratio"] = stat(
        [
            rep.values["get_cache_hits"]
            / max(rep.values["get_cache_hits"] + rep.values["get_cache_misses"], 1)
            for rep in reps
        ]
    )
    metrics["storage.backends.disk_bytes_per_user_byte"] = stat(
        [rep.values.get("disk_bytes", 0) / live_bytes for rep in reps]
    )
    metrics["storage.wal.commits_per_put"] = stat(
        [unit.span("storage.wal.commit", "put")[0] / workload.docs for unit in traced]
    )
    for name, column in (("storage.wal.ops_per_group", 0), ("storage.wal.bytes_per_commit", 1)):
        metrics[name] = stat(
            [
                sum(commit[column] for commit in unit.wal_commits) / max(len(unit.wal_commits), 1)
                for unit in traced
            ]
        )
    return metrics, breakdown


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool = False,
    smoke: bool = False,
    allow_unpinned: bool = False,
    detail: bool = False,
) -> Dict[str, object]:
    """Run ``workload`` and return its result (metrics by name, counts, host).

    An untraced run yields the end-to-end metrics; a ``trace`` run
    alternates untraced and traced repetitions and yields the per-layer
    metrics.  Raises :class:`GuardRailError` instead of reporting numbers
    that cannot be trusted.
    """
    cpu = pin_cpu(allow_unpinned)
    if smoke:
        workload = workload.smoke()
        warmup, measured_count, cold_count, pairs = 2, 3, 2, 2
    else:
        warmup = WARMUP
        measured_count = max(MIN_MEASURED, round(REPS_PER_SECOND * seconds))
        cold_count, pairs = COLD_STARTS, TRACE_PAIRS
    corpus = workload.corpus(seed)
    program_seed = placement_seed(seed)
    os.makedirs(WORK_ROOT, exist_ok=True)
    root = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    tracer = Tracer()
    attempted = failed = 0
    first_error: Optional[str] = None
    untraced: List[Tuple[Repetition, float]] = []
    traced: List[TracedRep] = []
    cold: List[Tuple[float, float]] = []
    kernels: List[Tuple[Dict[str, float], float]] = []
    if trace:
        total = warmup + 2 * pairs
        cold_every = 0
    else:
        total = warmup + measured_count
        cold_every = max(measured_count // cold_count, 1)
    try:
        timeline = _Timeline()
        for index in range(total):
            data_dir = os.path.join(root, f"rep-{index}")
            measured_index = index - warmup
            if cold_every and measured_index >= 0 and measured_index % cold_every == 0 and len(cold) < cold_count:
                seconds_cold, ok = _cold_start(workload, seed, smoke, data_dir)
                shutil.rmtree(data_dir, ignore_errors=True)
                cold.append((seconds_cold, timeline.close_unit()))
                attempted += 1
                if not ok:
                    failed += 1
                    first_error = first_error or "cold start: child exited non-zero"
            rep = Repetition()
            if not trace:
                tracing_now = False
            elif measured_index < 0:
                tracing_now = index == warmup - 1  # warm the wrappers too
            else:
                tracing_now = measured_index % 2 == 1
            try:
                if tracing_now:
                    with tracer.installed(rep):
                        run_repetition(workload, corpus, data_dir, program_seed, rep)
                else:
                    run_repetition(workload, corpus, data_dir, program_seed, rep)
            finally:
                shutil.rmtree(data_dir, ignore_errors=True)
            factor = timeline.close_unit()
            attempted += rep.attempted
            failed += rep.failed
            first_error = first_error or rep.first_error
            if measured_index < 0:
                continue
            if tracing_now:
                traced.append(TracedRep(rep, factor, tracer.summary(), tracer.wal_commits))
            else:
                untraced.append((rep, factor))
            if trace and len(kernels) < pairs and not tracing_now:
                payload = next(iter(corpus.docs.values()))
                values = direct_kernels(payload, workload.block_size)
                kernels.append((values, timeline.close_unit()))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    result: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "failed_op_share": failed / attempted,
        "first_error": first_error,
        "repetitions": {"warmup": warmup, "measured": len(untraced), "traced": len(traced)},
        "calibration": {"median_s": statistics.median(timeline.samples), "samples": len(timeline.samples)},
        "host": host_metadata(cpu),
    }
    if failed:
        # Counts and timings of a broken run mean nothing; report the failure.
        result["metrics"] = {}
        return result
    if not smoke:
        timeline.check()
        for phase in TIMED_PHASES:
            median = statistics.median(rep.phases[phase] for rep, _ in untraced)
            if median < MIN_PHASE_S:
                raise GuardRailError(
                    f"phase {phase!r} of {workload.name} ran {median * 1e3:.3f} ms per "
                    f"repetition, below the {MIN_PHASE_S * 1e3:.1f} ms floor"
                )
    if trace:
        metrics, breakdown = _per_layer(workload, corpus, untraced, traced, kernels)
        result["phases"] = breakdown
        if detail:
            result["spans"] = tracer.spans  # of the last traced repetition
    else:
        metrics = _end_to_end(workload, corpus, untraced, cold)
    if detail:
        result["samples"] = [
            {"factor": factor, "phases": rep.phases, "hops": rep.hops} for rep, factor in untraced
        ]
        result["calibration"]["series_s"] = timeline.samples  # type: ignore[index]
    result["metrics"] = metrics
    return result
