"""Checks of the end-to-end benchmark itself (smoke-sized, seconds to run).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``.
"""

from __future__ import annotations

import ast
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
for path in (os.path.join(ROOT, "src"), E2E):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from repro.storage.placement import PlacementPolicy, SpreadDomainsPlacement  # noqa: E402
from e2ebench import calibrate, compare, harness, report, tracing, workloads  # noqa: E402
from e2ebench.payloads import placement_seed  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOAD_NAMES = list(workloads.WORKLOADS)


def _smoke(capsys, workload: str, trace: int, seed: int = 5) -> dict:
    status = run.main(["--workload", workload, "--seed", str(seed), "--trace", str(trace), "--smoke"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return {"status": status, **json.loads(last)}


_SMOKE_RUNS: dict = {}


def _cached_smoke(capsys, workload: str, trace: int) -> dict:
    """One smoke run per (workload, trace) shared by the tests that only read it."""
    key = (workload, trace)
    if key not in _SMOKE_RUNS:
        _SMOKE_RUNS[key] = _smoke(capsys, workload, trace)
    return _SMOKE_RUNS[key]


def test_benchmark_json_lists_exactly_the_declared_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in report.END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in report.PER_LAYER
    ]
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"] + declared["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    assert "setup_s" in names and len(declared["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_emits_exactly_the_declared_metrics(capsys, workload, trace):
    result = _cached_smoke(capsys, workload, trace)
    assert result["status"] == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = report.PER_LAYER if trace else report.END_TO_END
    assert list(result["metrics"]) == [metric.name for metric in declared]
    for metric in declared:
        entry = result["metrics"][metric.name]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric.unit
        assert math.isfinite(entry["value"])
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_exact_metrics_repeat_and_match_their_analytic_values(capsys, workload):
    first = _cached_smoke(capsys, workload, 0)["metrics"]
    again = _smoke(capsys, workload, 0)["metrics"]
    exact = [metric.name for metric in report.END_TO_END if metric.exact]
    assert exact and all(first[name]["value"] == again[name]["value"] for name in exact)

    spec = workloads.WORKLOADS[workload].smoke()
    corpus = spec.corpus(5)
    blocks = spec.doc_bytes // spec.block_size
    stored = first["stored_bytes_per_user_byte"]["value"]
    reads = first["repair_reads_per_block"]["value"]
    if spec.hops_first or spec.scheme.startswith("rs"):
        # Ends the healthy part on rs-10-4: whole stripes of 10 + 4, padding stored.
        assert stored == pytest.approx(math.ceil(blocks / 10) * 14 / blocks, rel=0.02)
        assert 1.0 <= reads <= 10.0
    else:
        # The AE lattice is append-only: every put ever made keeps its 1 + 3 blocks.
        assert stored == pytest.approx(4 * corpus.put_count / len(corpus.live), rel=0.02)
        # Paper Table IV: a single failure is repaired from 2 blocks; the
        # few strand starts of a tiny lattice need only 1.
        assert reads == pytest.approx(2.0, rel=0.02 if workload == "archive_ae" else 0.06)


def test_a_corrupted_payload_fails_the_run(capsys, monkeypatch):
    build = workloads.Workload.corpus

    def corrupted(self, seed):
        corpus = build(self, seed)
        name = next(iter(corpus.live))
        corpus.live[name] = bytes([corpus.live[name][0] ^ 1]) + corpus.live[name][1:]
        return corpus

    monkeypatch.setattr(workloads.Workload, "corpus", corrupted)
    result = _smoke(capsys, "archive_rs", 0)
    assert result["status"] != 0 and not result["correct"] and result["failed"] > 0


def test_calibration_kernel_is_independent_of_the_program():
    with open(calibrate.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "hashlib", "json", "time", "zlib", "numpy"}
    assert calibrate.CAL_REF_S == 0.030 and calibrate.CALIBRATION_VERSION == 1
    assert 0.001 < calibrate.sample() < 1.0


def _class_attributes():
    targets = [(cls, attr) for _, base, attr in tracing.SPANS for cls in tracing._defining_classes(base, attr)]
    return {(cls, attr): cls.__dict__.get(attr) for cls, attr in targets}


def test_only_public_methods_are_wrapped_and_overrides_are_seen():
    assert all(not attr.startswith("_") for _, _, attr in tracing.SPANS)

    class Overriding(SpreadDomainsPlacement):
        def locations_for(self, block_ids):
            return super().locations_for(block_ids)

    wrapped = tracing._defining_classes(PlacementPolicy, "locations_for")
    assert PlacementPolicy in wrapped and Overriding in wrapped
    # A method the program no longer has is skipped, not an AttributeError.
    assert tracing._defining_classes(PlacementPolicy, "no_such_method") == []


def test_tracing_is_removed_and_self_times_add_up(tmp_path):
    before = _class_attributes()
    spec = workloads.WORKLOADS["service_small_docs"].smoke()
    tracer = tracing.Tracer()
    rep = workloads.Repetition()
    with tracer.installed(rep):
        assert _class_attributes() != before
        workloads.run_repetition(spec, spec.corpus(5), str(tmp_path / "data"), placement_seed(5), rep)
    after = _class_attributes()
    assert all(after[key] is before[key] for key in before)
    assert rep.failed == 0 and tracer.spans

    summary = tracer.summary()
    for phase in workloads.TIMED_PHASES:
        table = dict(summary[phase])
        roots = table.pop("harness.roots")[1]
        # Self times partition the time spent inside the program ...
        assert sum(seconds for _, seconds in table.values()) == pytest.approx(roots, rel=0.01)
        # ... which never exceeds the phase's budget (the rest is the harness).
        budget = rep.client_seconds if phase == "mixed" else rep.phases[phase]
        assert roots <= budget * 1.001


def test_traced_shares_sum_to_one(tmp_path):
    out = tmp_path / "trace.json"
    status = run.main(["--workload", "transition_chain", "--smoke", "--trace", "1", "--out", str(out)])
    assert status == 0
    result = json.loads(out.read_text())["runs"][0]["transition_chain"]
    spans = json.loads((tmp_path / "trace.json.spans.json").read_text())
    assert spans and all(len(span) == 6 for span in spans)
    assert result["metrics"]["trace.overhead_share"]["value"] > -0.5
    for phase in workloads.TIMED_PHASES:
        rows = result["phases"][phase]
        assert "harness.unattributed" in rows
        assert sum(row["share"] for row in rows.values()) == pytest.approx(1.0, abs=0.01)


#: Spans that must be called on a workload (README, per-layer table).
#: ``system.service.*`` and ``storage.*`` also run everywhere else.
EXERCISED = {
    "archive_ae": ["schemes.ae.encode", "schemes.ae.repair", "core.encoder.entangle_batch",
                   "system.transitions.repuncture"],
    "archive_rs": ["schemes.stripe.encode", "schemes.stripe.repair", "codes.reed_solomon.encode",
                   "codes.reed_solomon.decode", "system.transitions.reencode"],
    "service_small_docs": ["system.sharding.put", "system.sharding.get", "system.sharding.delete",
                           "system.sharding.repair", "system.frontend.put", "system.frontend.get",
                           "system.frontend.delete"],
    "transition_chain": ["system.transitions.reencode", "system.transitions.alpha_raise"],
}
EVERYWHERE = [name for name in tracing.SPAN_NAMES if name.startswith(("system.service.", "storage.cluster.",
              "storage.placement.", "storage.block_store."))]
DURABLE = ["storage.backends.segment.put_many", "storage.backends.segment.get", "storage.wal.commit"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_span_is_called_where_it_should_be(capsys, workload):
    metrics = _cached_smoke(capsys, workload, 1)["metrics"]
    expected = EXERCISED[workload] + EVERYWHERE + (DURABLE if workloads.WORKLOADS[workload].durable else [])
    silent = [name for name in expected if metrics[f"{name}.calls"]["value"] < 1]
    assert not silent
    if workloads.WORKLOADS[workload].durable:
        assert metrics["storage.wal.ops_per_group"]["value"] >= 1
        assert metrics["storage.wal.bytes_per_commit"]["value"] > 0


def test_every_span_is_exercised_by_some_workload():
    assert set(sum(EXERCISED.values(), []) + EVERYWHERE + DURABLE) == set(tracing.SPAN_NAMES)


def test_working_set_exceeds_the_cache_on_transition_chain_only(tmp_path):
    """The property that tells the two cached workloads apart, on the
    full-size corpora: capacity misses on one, only first-touch misses on
    the other (its second get pass is served from the cache)."""
    hit_ratio = {}
    for name in ("service_small_docs", "transition_chain"):
        spec = workloads.WORKLOADS[name]
        rep = workloads.run_repetition(spec, spec.corpus(5), str(tmp_path / name), placement_seed(5))
        assert rep.failed == 0
        hit_ratio[name] = rep.values["get_cache_hits"] / (
            rep.values["get_cache_hits"] + rep.values["get_cache_misses"]
        )
    assert hit_ratio["transition_chain"] < 0.2
    assert hit_ratio["service_small_docs"] > 0.5


def _result_file(path, names=("archive_ae",), **overrides):
    metrics = {metric.name: {"value": 2.0} for metric in report.END_TO_END}
    metrics.update({name: {"value": value} for name, value in overrides.items()})
    result = {"trace": False, "failed_op_share": 0.0, "metrics": metrics}
    path.write_text(json.dumps({"runs": [{name: result for name in names}]}))
    return str(path)


def test_compare_applies_bounds_and_exactness(tmp_path, capsys):
    base = _result_file(tmp_path / "a.json")
    assert compare.compare_files(base, _result_file(tmp_path / "b.json", put_mb_s=1.8)) == 0
    # Worse than the bound, in the metric's own direction, fails ...
    assert compare.compare_files(base, _result_file(tmp_path / "c.json", put_mb_s=1.4)) == 1
    assert compare.compare_files(base, _result_file(tmp_path / "d.json", setup_s=2.6)) == 1
    capsys.readouterr()
    # ... a gain beyond the bound is reported and passes.
    assert compare.compare_files(base, _result_file(tmp_path / "e.json", put_mb_s=3.0, setup_s=1.0)) == 0
    assert capsys.readouterr().out.count("improved") == 2
    assert compare.compare_files(base, _result_file(tmp_path / "f.json", repair_reads_per_block=2.001)) == 1
    # A workload only one file has is reported from either side.
    both = _result_file(tmp_path / "g.json", names=("archive_ae", "archive_rs"))
    assert compare.compare_files(base, both) == 1 and compare.compare_files(both, base) == 1
    assert run.main(["--compare", base, base]) == 0
    assert "put_mb_s" in capsys.readouterr().out


def test_guard_rails(monkeypatch):
    timeline = harness._Timeline()
    timeline.samples = [0.030] * 39 + [0.200]  # one stalled sample is not a verdict
    timeline.check()
    timeline.samples = [0.030] * 30 + [0.120] * 10
    with pytest.raises(harness.GuardRailError, match="calibration"):
        timeline.check()

    monkeypatch.delattr(os, "sched_setaffinity")
    with pytest.raises(harness.GuardRailError, match="allow-unpinned"):
        harness.pin_cpu(allow_unpinned=False)
    assert harness.pin_cpu(allow_unpinned=True) is None

    monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: object())
    with pytest.raises(harness.GuardRailError, match="malloc_trim"):
        harness.heap_trimmer()


def test_a_crashed_repetition_leaves_no_work_directory(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "run_repetition", crash)
    listing = set(os.listdir(harness.WORK_ROOT)) if os.path.isdir(harness.WORK_ROOT) else set()
    with pytest.raises(RuntimeError, match="boom"):
        harness.run_workload(workloads.WORKLOADS["transition_chain"], seed=1, seconds=1, smoke=True)
    assert set(os.listdir(harness.WORK_ROOT)) == listing


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "archive_ae", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""
