"""``tools/bench_pairs.py``: the pair verdict, the refusal of a failed run,
and the alternation of a whole series over two stand-in checkouts.

The verdict is checked on the ``archive_rs`` ``repair_mb_s`` pairs that
``docs/performance.md`` publishes for stripe repair in one fetch and one
wide product per erasure pattern: a gain, with the quartiles printed there,
and -- the same pairs with the sides swapped -- no gain.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

bench_pairs = importlib.import_module("bench_pairs")

#: Batched stripe repair, ``archive_rs`` ``repair_mb_s``: ten alternating pairs
#: (parent, change).
STRIPE_REPAIR_PAIRS = [
    (46.97, 76.47), (49.77, 69.99), (49.13, 71.84), (48.33, 70.38), (46.98, 71.68),
    (49.28, 72.26), (48.04, 72.76), (49.39, 70.90), (49.54, 70.68), (47.63, 70.63),
]


def test_published_stripe_repair_pairs_are_a_gain() -> None:
    judged = bench_pairs.verdict(STRIPE_REPAIR_PAIRS, "higher")
    assert judged.gain
    assert (judged.wins, judged.ties, judged.pairs) == (10, 0, 10)
    # The published quartiles are rounded to two decimals.
    assert list(judged.parent) == pytest.approx([47.73, 48.73, 49.36], abs=0.01)
    assert list(judged.change) == pytest.approx([70.65, 71.29, 72.15], abs=0.01)
    assert round(judged.parent_iqr, 2) == 1.63
    assert round(judged.relative * 100, 1) == 46.3
    assert "GAIN" in judged.summary() and "NO GAIN" not in judged.summary()


def test_the_same_pairs_reversed_are_no_gain() -> None:
    judged = bench_pairs.verdict([(c, p) for p, c in STRIPE_REPAIR_PAIRS], "higher")
    assert not judged.gain
    assert judged.wins == 0
    assert "NO GAIN" in judged.summary()
    # A lower-is-better metric reads the reversed pairs as the gain.
    assert bench_pairs.verdict([(c, p) for p, c in STRIPE_REPAIR_PAIRS], "lower").gain


def test_nine_of_ten_wins_and_a_median_gap_past_the_iqr_are_both_needed() -> None:
    eight = [(10.0, 12.0)] * 8 + [(10.0, 9.0)] * 2
    assert not bench_pairs.verdict(eight, "higher").gain
    nine = [(10.0, 12.0)] * 9 + [(10.0, 9.0)]
    assert bench_pairs.verdict(nine, "higher").gain
    # Nine wins, but the medians sit inside the parent's own spread.
    spread = [(float(p), p + 0.5) for p in range(9)] + [(9.0, 1.0)]
    judged = bench_pairs.verdict(spread, "higher")
    assert judged.wins == 9 and not judged.gain
    # A tie counts for neither side.
    ties = [(10.0, 10.0)] + [(10.0, 12.0)] * 9
    assert bench_pairs.verdict(ties, "higher").ties == 1
    assert bench_pairs.verdict(ties, "higher").gain
    with pytest.raises(ValueError):
        bench_pairs.verdict(nine, "faster")


def test_a_run_with_failed_operations_is_refused() -> None:
    metrics = {"get_mb_s": {"value": 1.0}}
    good = json.dumps({"correct": True, "failed": 0, "attempted": 9, "metrics": metrics})
    assert bench_pairs.contract_line("table\n" + good + "\n", 0)["failed"] == 0
    bad = json.dumps({"correct": False, "failed": 2, "attempted": 9, "metrics": {}})
    with pytest.raises(bench_pairs.RefusedRun, match="2 failed"):
        bench_pairs.contract_line(bad, 1)
    with pytest.raises(bench_pairs.RefusedRun, match="no contract line"):
        bench_pairs.contract_line("run.py: refusing to report\n", 3)


FAKE_RUN = """
import json, os, sys
here = os.path.dirname(os.path.abspath(__file__))
side = os.path.basename(os.path.dirname(os.path.dirname(here)))
with open(os.path.join(here, "calls.log"), "a") as log:
    log.write(side + "\\n")
value = {"parent": 100.0, "change": 150.0}[side]
failed = int(os.path.exists(os.path.join(here, "FAIL")))
print(json.dumps({"correct": not failed, "attempted": 3, "failed": failed,
                  "metrics": {"get_mb_s": {"value": value, "unit": "MB/s"}}}))
sys.exit(failed)
"""


def _checkout(root: Path, side: str) -> Path:
    checkout = root / side
    (checkout / "benchmarks" / "e2e").mkdir(parents=True)
    (checkout / "benchmarks" / "e2e" / "run.py").write_text(FAKE_RUN)
    metric = {"name": "get_mb_s", "unit": "MB/s", "better": "higher", "bound": 0.25}
    declared = {"end_to_end": [metric]}
    (checkout / "BENCHMARK.json").write_text(json.dumps(declared))
    return checkout


def test_a_series_alternates_keeps_every_run_and_judges(tmp_path: Path, capsys) -> None:
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    out = tmp_path / "runs.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w", "--pairs", "4"]
    assert bench_pairs.main(argv + ["--out", str(out)]) == 0
    order = (parent / "benchmarks/e2e/calls.log").read_text().split() + (
        change / "benchmarks/e2e/calls.log"
    ).read_text().split()
    assert sorted(order) == ["change"] * 4 + ["parent"] * 4
    kept = json.loads(out.read_text())["runs"]
    assert [(run["pair"], run["side"]) for run in kept] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        (3, "parent"), (3, "change"), (4, "change"), (4, "parent"),
    ]
    printed = capsys.readouterr().out
    assert "pair  2 (change first)" in printed
    assert "wins 4 / 4" in printed and "GAIN" in printed
    (change / "benchmarks/e2e/FAIL").write_text("")
    assert bench_pairs.main(argv + ["--out", str(out)]) == 1
    assert [run["side"] for run in json.loads(out.read_text())["runs"]] == ["parent"]


def test_checkout_paths_of_unequal_length_are_warned_about(tmp_path: Path, capsys) -> None:
    # Same-length sides (``parent`` / ``change`` under one root) stay quiet.
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    out = tmp_path / "runs.json"
    argv = ["--workload", "w", "--pairs", "1", "--out", str(out)]
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), *argv]) == 0
    assert "warning" not in capsys.readouterr().err
    length = len(str(parent))
    assert json.loads(out.read_text())["path_lengths"] == {"parent": length, "change": length}
    # One side a directory deeper: warned, and both lengths kept.
    longer = _checkout(tmp_path / "deeper", "change")
    assert bench_pairs.main(["--parent", str(parent), "--change", str(longer), *argv]) == 0
    err = capsys.readouterr().err
    assert "warning" in err and f"parent {length}, change {length + 7}" in err
    kept = json.loads(out.read_text())
    assert kept["path_lengths"] == {"parent": length, "change": length + 7}


FAKE_RUN_METRICS = """
import json, os
here = os.path.dirname(os.path.abspath(__file__))
side = os.path.basename(os.path.dirname(os.path.dirname(here)))
values = {"parent": {"get_mb_s": 100.0, "put_mb_s": 10.0, "op_p95_ms": 2.0},
          "change": {"get_mb_s": 150.0, "put_mb_s": 9.0, "op_p95_ms": 1.5}}[side]
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {name: {"value": value} for name, value in values.items()}}))
"""


def test_after_the_verdict_every_metric_reports_medians_and_wins(tmp_path: Path, capsys) -> None:
    declared = {
        "end_to_end": [
            {"name": "put_mb_s", "better": "higher"},
            {"name": "get_mb_s", "better": "higher"},
            {"name": "repair_mb_s", "better": "higher"},
            {"name": "op_p95_ms", "better": "lower"},
        ]
    }
    checkouts = []
    for side in ("parent", "change"):
        checkout = _checkout(tmp_path, side)
        (checkout / "benchmarks" / "e2e" / "run.py").write_text(FAKE_RUN_METRICS)
        (checkout / "BENCHMARK.json").write_text(json.dumps(declared))
        checkouts.append(str(checkout))
    argv = ["--parent", checkouts[0], "--change", checkouts[1], "--workload", "w", "--pairs", "3"]
    assert bench_pairs.main(argv + ["--out", str(tmp_path / "runs.json")]) == 0
    printed = capsys.readouterr().out.splitlines()
    verdict_at = next(i for i, line in enumerate(printed) if "GAIN" in line)
    assert printed[verdict_at + 2 :] == [
        "  put_mb_s (better higher): median 10 -> 9 (-10.0%); change wins 0 / 3",
        "  get_mb_s (better higher): median 100 -> 150 (+50.0%); change wins 3 / 3",
        "  op_p95_ms (better lower): median 2 -> 1.5 (-25.0%); change wins 3 / 3",
    ]
