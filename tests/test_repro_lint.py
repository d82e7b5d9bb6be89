"""Tests for the repro-lint static-analysis suite (tools/repro_lint).

Every rule is exercised against a pair of fixtures under
``tests/fixtures/repro_lint``: a ``bad_*.py`` snippet the rule must flag
and a ``good_*.py`` near-miss it must pass.  On top of the per-rule
fixtures we check ``# noqa`` suppression semantics, the project-wide
registry/surface cross-check, the CLI exit codes and JSON report shape,
and -- most importantly -- that the live tree lints clean with a small,
audited suppression budget.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
FIXTURES = ROOT / "tests" / "fixtures" / "repro_lint"

if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from repro_lint.framework import (  # noqa: E402  (path setup above)
    DEFAULT_EXCLUDES,
    all_rules,
    extract_noqa,
    lint_paths,
    rule_for_code,
)
from repro_lint.reporters import JSON_FORMAT_VERSION, render_json, render_text  # noqa: E402

#: Exclusions used when linting the fixture tree itself (lifts the
#: ``fixtures/repro_lint`` entry from DEFAULT_EXCLUDES).
FIXTURE_EXCLUDES = ("__pycache__",)


def lint_fixture(*relative, select=None):
    paths = [FIXTURES.joinpath(part) for part in relative]
    rules = [rule_for_code(code) for code in select] if select else None
    return lint_paths(paths, rules=rules, excludes=FIXTURE_EXCLUDES)


def codes_of(result):
    return [finding.code for finding in result.findings]


# ----------------------------------------------------------------------
# framework basics
# ----------------------------------------------------------------------


def test_rule_catalogue_is_complete_and_stable():
    codes = [rule.code for rule in all_rules()]
    assert codes == ["RPR001", "RPR002", "RPR003", "RPR004", "RPR005"]
    for rule in all_rules():
        assert rule.name
        assert rule.summary


def test_extract_noqa_parses_bare_and_coded_comments():
    source = (
        "x = 1  # noqa\n"
        "y = 2  # noqa: RPR001, RPR004\n"
        "z = 'not a real # noqa comment'\n"
    )
    noqa = extract_noqa(source)
    assert noqa[1] == {"*"}
    assert noqa[2] == {"RPR001", "RPR004"}
    assert 3 not in noqa


def test_syntax_error_reports_rpr000(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n", encoding="utf-8")
    result = lint_paths([broken], excludes=FIXTURE_EXCLUDES)
    assert codes_of(result) == ["RPR000"]
    assert "does not parse" in result.findings[0].message


# ----------------------------------------------------------------------
# RPR001 determinism
# ----------------------------------------------------------------------


def test_rpr001_flags_unseeded_rngs_and_wall_clock():
    result = lint_fixture(
        "rpr001/src/repro/simulation/bad_rng.py", select=["RPR001"]
    )
    assert codes_of(result) == ["RPR001"] * 5
    messages = " | ".join(finding.message for finding in result.findings)
    assert "default_rng" in messages
    assert "random.Random" in messages
    assert "wall clock" in messages
    assert "global unseeded RNG" in messages


def test_rpr001_passes_seeded_rngs():
    result = lint_fixture(
        "rpr001/src/repro/simulation/good_rng.py", select=["RPR001"]
    )
    assert result.ok


def test_rpr001_scoped_to_engine_paths(tmp_path):
    elsewhere = tmp_path / "tooling.py"
    elsewhere.write_text("import time\n\nSTAMP = time.time()\n", encoding="utf-8")
    result = lint_paths(
        [elsewhere], rules=[rule_for_code("RPR001")], excludes=FIXTURE_EXCLUDES
    )
    assert result.ok  # wall clock outside engine paths is allowed


# ----------------------------------------------------------------------
# RPR002 import-surface sync
# ----------------------------------------------------------------------


def test_rpr002_flags_unbound_and_duplicate_all_entries():
    result = lint_fixture("rpr002/bad_all.py", select=["RPR002"])
    messages = sorted(finding.message for finding in result.findings)
    assert len(messages) == 2
    assert "duplicate __all__ entry 'exported_fn'" in messages[1]
    assert "ghost_name" in messages[0]


def test_rpr002_passes_bound_conditional_and_sorted_all():
    result = lint_fixture("rpr002/good_all.py", select=["RPR002"])
    assert result.ok


def test_rpr002_passes_pep562_module_getattr():
    result = lint_fixture("rpr002/good_getattr.py", select=["RPR002"])
    assert result.ok


def test_rpr002_cross_check_flags_uncovered_registry_id(tmp_path):
    # Copy the project fixture out of tests/ -- inside the repo the /tests/
    # prefix would classify registries.py itself as a test file.
    shutil.copy(FIXTURES / "rpr002/proj/registries.py", tmp_path / "registries.py")
    shutil.copy(
        FIXTURES / "rpr002/proj/test_registries_surface.py",
        tmp_path / "test_registries_surface.py",
    )
    result = lint_paths(
        [tmp_path], rules=[rule_for_code("RPR002")], excludes=FIXTURE_EXCLUDES
    )
    assert len(result.findings) == 1
    assert "'orphan'" in result.findings[0].message
    assert "'covered'" not in result.findings[0].message
    assert result.findings[0].path.endswith("registries.py")


def test_rpr002_cross_check_skipped_without_surface_file(tmp_path):
    shutil.copy(FIXTURES / "rpr002/proj/registries.py", tmp_path / "registries.py")
    result = lint_paths(
        [tmp_path], rules=[rule_for_code("RPR002")], excludes=FIXTURE_EXCLUDES
    )
    assert result.ok  # linting src alone must not demand the tests tree


# ----------------------------------------------------------------------
# RPR003 bytes-payload safety
# ----------------------------------------------------------------------


def test_rpr003_flags_stringified_payloads():
    result = lint_fixture(
        "rpr003/src/repro/storage/bad_payload.py", select=["RPR003"]
    )
    assert codes_of(result) == ["RPR003"] * 5
    messages = " | ".join(finding.message for finding in result.findings)
    assert "str(payload)" in messages
    assert ".decode(" in messages
    assert "f-string" in messages
    assert "TypeError" in messages


def test_rpr003_passes_repr_hex_and_bytes_concat():
    result = lint_fixture(
        "rpr003/src/repro/storage/good_payload.py", select=["RPR003"]
    )
    assert result.ok


# ----------------------------------------------------------------------
# RPR004 hygiene
# ----------------------------------------------------------------------


def test_rpr004_flags_mutable_defaults_and_broad_excepts():
    result = lint_fixture("rpr004/plain/bad_hygiene.py", select=["RPR004"])
    messages = [finding.message for finding in result.findings]
    assert len(messages) == 4
    assert sum("mutable default" in message for message in messages) == 2
    assert sum("bare `except:`" in message for message in messages) == 1
    assert sum("broad `except Exception`" in message for message in messages) == 1


def test_rpr004_passes_none_defaults_and_narrow_handlers():
    result = lint_fixture("rpr004/plain/good_hygiene.py", select=["RPR004"])
    assert result.ok


def test_rpr004_flags_float_equality_in_analysis_paths():
    result = lint_fixture(
        "rpr004/src/repro/analysis/bad_float.py", select=["RPR004"]
    )
    assert codes_of(result) == ["RPR004"] * 2
    assert all("float equality" in f.message for f in result.findings)


def test_rpr004_passes_isclose_and_int_equality():
    result = lint_fixture(
        "rpr004/src/repro/analysis/good_float.py", select=["RPR004"]
    )
    assert result.ok


def test_rpr004_float_equality_not_policed_outside_analysis():
    # bad_hygiene.py lives outside repro/analysis/: no float-eq findings even
    # though the rule itself applies (its other checks are global).
    result = lint_fixture("rpr004/plain/bad_hygiene.py", select=["RPR004"])
    assert not any("float equality" in f.message for f in result.findings)


# ----------------------------------------------------------------------
# RPR005 local determinism-sensitive imports
# ----------------------------------------------------------------------


def test_rpr005_flags_function_local_sensitive_imports():
    result = lint_fixture(
        "rpr005/src/repro/bad_local_import.py", select=["RPR005"]
    )
    assert codes_of(result) == ["RPR005"] * 2
    messages = " | ".join(finding.message for finding in result.findings)
    assert "`import random` in pick()" in messages
    assert "`from datetime import ...` in stamp()" in messages


def test_rpr005_passes_top_level_sensitive_and_local_benign_imports():
    result = lint_fixture(
        "rpr005/src/repro/good_local_import.py", select=["RPR005"]
    )
    assert result.ok


# ----------------------------------------------------------------------
# noqa suppression
# ----------------------------------------------------------------------


def test_noqa_suppresses_matching_codes_only():
    result = lint_fixture("noqa/suppressed.py")
    # Line 4: `# noqa: RPR004` suppresses the mutable default.
    # Line 12: bare `# noqa` suppresses the broad except.
    # Line 19: `# noqa: RPR001` names the wrong code -- finding survives.
    assert len(result.suppressed) == 2
    assert {finding.code for finding in result.suppressed} == {"RPR004"}
    assert codes_of(result) == ["RPR004"]
    assert result.findings[0].line == 19


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------


def test_text_reporter_summarises_findings():
    result = lint_fixture("rpr004/plain/bad_hygiene.py", select=["RPR004"])
    text = render_text(result)
    assert "4 finding(s)" in text
    assert "RPR004" in text
    clean = lint_fixture("rpr004/plain/good_hygiene.py", select=["RPR004"])
    assert "repro-lint: clean" in render_text(clean)


def test_json_reporter_shape():
    result = lint_fixture("rpr001/src/repro/simulation/bad_rng.py")
    document = json.loads(render_json(result))
    assert document["version"] == JSON_FORMAT_VERSION
    assert document["tool"] == "repro-lint"
    assert document["ok"] is False
    assert set(document["rules"]) == {
        "RPR001", "RPR002", "RPR003", "RPR004", "RPR005"
    }
    for finding in document["findings"]:
        assert set(finding) == {"code", "path", "line", "col", "message"}


# ----------------------------------------------------------------------
# live tree + CLI
# ----------------------------------------------------------------------


def test_live_tree_is_clean_with_at_most_five_suppressions():
    # The suppression budget keeps `# noqa` scarce and auditable.  The
    # current five: the cleanup-and-reraise site in the WAL group commit (a
    # broad except that *re-raises* after waking every waiter is the
    # correct shape), and four test worker threads that collect any
    # failure for the main thread (an uncaught thread exception would
    # otherwise vanish into stderr and pass the test).
    result = lint_paths(
        [ROOT / "src", ROOT / "tests", ROOT / "benchmarks", ROOT / "tools"],
        excludes=DEFAULT_EXCLUDES,
    )
    assert result.findings == [], "\n".join(f.render() for f in result.findings)
    assert len(result.suppressed) <= 5
    assert result.files_checked > 100


def run_cli(*args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TOOLS)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable, "-m", "repro_lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_cli_clean_tree_exits_zero():
    proc = run_cli("src", "tests", "benchmarks")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "repro-lint: clean" in proc.stdout


def test_cli_findings_exit_one_with_json_artifact(tmp_path):
    # Copy the fixture out of fixtures/repro_lint: the CLI always applies
    # DEFAULT_EXCLUDES, which hides the fixture tree from normal runs.
    bad = tmp_path / "bad_hygiene.py"
    shutil.copy(FIXTURES / "rpr004" / "plain" / "bad_hygiene.py", bad)
    artifact = tmp_path / "report" / "repro-lint.json"
    proc = run_cli(
        str(bad),
        "--format",
        "json",
        "--json-output",
        str(artifact),
    )
    assert proc.returncode == 1
    document = json.loads(proc.stdout)
    assert document["ok"] is False
    assert artifact.is_file()
    assert json.loads(artifact.read_text(encoding="utf-8")) == document


def test_cli_select_restricts_rules(tmp_path):
    target = tmp_path / "repro" / "simulation" / "bad_rng.py"
    target.parent.mkdir(parents=True)
    shutil.copy(
        FIXTURES / "rpr001" / "src" / "repro" / "simulation" / "bad_rng.py", target
    )
    all_rules_proc = run_cli(str(target))
    assert all_rules_proc.returncode == 1  # RPR001 fires on the engine path
    proc = run_cli(str(target), "--select", "RPR004")
    assert proc.returncode == 0  # RPR001 violations invisible to RPR004


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for code in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005"):
        assert code in proc.stdout


@pytest.mark.parametrize(
    "args", [(), ("--select", "RPR999", "src")], ids=["no-paths", "unknown-code"]
)
def test_cli_usage_errors_exit_two(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
