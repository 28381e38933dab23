"""The ``python -m repro lint`` command-line surface.

Covers the exit-code contract (0 clean / 1 findings / 2 usage error),
all three report formats (text / JSON / SARIF), byte-stability of the
reports, the result cache and ``--changed-only`` flags, rule selection,
the dispatch from the main repro CLI, and — the PR's headline
regression test — that the *real* source tree is clean under every
rule.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint.cli import REPORT_VERSION, main as lint_main
from repro.lint.sarif import SARIF_SCHEMA, SARIF_VERSION

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def make_bad_tree(tmp_path):
    """A source root with one RL001 violation under ``repro/``."""
    root = tmp_path / "badsrc"
    (root / "repro" / "sim").mkdir(parents=True)
    (root / "repro" / "sim" / "engine.py").write_text(
        "import time\n\n\ndef now():\n    return time.time()\n"
    )
    return root


def test_real_source_tree_is_clean(capsys):
    assert lint_main([]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out
    assert "11 rules" in out


def test_repro_cli_dispatches_lint_subcommand(capsys):
    # Dispatch is what is under test; one cheap rule keeps it from
    # re-linting the whole tree (test_real_source_tree_is_clean does).
    assert repro_main(["lint", "--select", "RL005", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == REPORT_VERSION
    assert report["count"] == 0
    assert report["findings"] == []


def test_findings_mean_exit_one_text(tmp_path, capsys):
    root = make_bad_tree(tmp_path)
    assert lint_main(["--root", str(root), "--select", "RL001"]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out
    assert "repro/sim/engine.py:1" in out


def test_findings_mean_exit_one_json(tmp_path, capsys):
    root = make_bad_tree(tmp_path)
    code = lint_main(
        ["--root", str(root), "--select", "RL001", "--format", "json"]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 1
    (finding,) = report["findings"]
    assert finding["rule"] == "RL001"
    assert finding["path"] == "repro/sim/engine.py"
    assert finding["line"] == 1


def test_select_can_mask_the_violation(tmp_path):
    root = make_bad_tree(tmp_path)
    assert lint_main(["--root", str(root), "--select", "RL005"]) == 0


def test_unknown_rule_is_usage_error(capsys):
    try:
        code = lint_main(["--select", "RL999"])
    except SystemExit as exc:  # argparse type errors exit(2)
        code = exc.code
    assert code == 2


def test_missing_root_is_usage_error(tmp_path, capsys):
    assert lint_main(["--root", str(tmp_path / "nowhere")]) == 2
    assert "no such source root" in capsys.readouterr().err


def test_malformed_pyproject_is_usage_error(tmp_path, capsys):
    pytest.importorskip("tomllib")
    bad = tmp_path / "pyproject.toml"
    bad.write_text("[tool.repro-lint.RL999]\nenabled = false\n")
    code = lint_main(["--pyproject", str(bad)])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_pyproject_can_disable_a_rule(tmp_path):
    pytest.importorskip("tomllib")
    root = make_bad_tree(tmp_path)
    cfg = tmp_path / "pyproject.toml"
    cfg.write_text("[tool.repro-lint.RL001]\nenabled = false\n")
    args = ["--root", str(root), "--pyproject", str(cfg), "--select", "RL001"]
    assert lint_main(args) == 0


def test_sarif_format(tmp_path, capsys):
    root = make_bad_tree(tmp_path)
    code = lint_main(
        ["--root", str(root), "--select", "RL001",
         "--format", "sarif", "--no-cache"]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == SARIF_VERSION
    assert report["$schema"] == SARIF_SCHEMA
    (run,) = report["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"RL001", "RL008", "RL009", "RL010", "RL011"} <= rule_ids
    (result,) = run["results"]
    assert result["ruleId"] == "RL001"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "badsrc/repro/sim/engine.py"
    # SARIF columns are 1-based; findings carry 0-based ones.
    assert location["region"] == {"startLine": 1, "startColumn": 1}


def test_cache_warm_run_matches_cold_and_uncached(tmp_path, capsys):
    root = make_bad_tree(tmp_path)
    args = ["--root", str(root), "--select", "RL001"]
    assert lint_main(args) == 1
    cold = capsys.readouterr().out
    cache_dir = tmp_path / "artifacts" / ".lintcache"
    assert cache_dir.is_dir() and any(cache_dir.iterdir())
    assert lint_main(args) == 1
    assert capsys.readouterr().out == cold  # warm hit, same bytes
    assert lint_main(args + ["--no-cache"]) == 1
    assert capsys.readouterr().out == cold  # cache never changes output


def test_no_cache_writes_nothing(tmp_path):
    root = make_bad_tree(tmp_path)
    args = ["--root", str(root), "--select", "RL001", "--no-cache"]
    assert lint_main(args) == 1
    assert not (tmp_path / "artifacts" / ".lintcache").exists()


def test_text_report_shape_is_stable(tmp_path, capsys):
    root = make_bad_tree(tmp_path)
    args = ["--root", str(root), "--select", "RL001", "--no-cache"]
    assert lint_main(args) == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("repro/sim/engine.py:1:0: RL001 ")
    assert lines[-1] == f"repro lint: 1 finding (1 rules, root {root})"
    assert lint_main(args) == 1
    assert capsys.readouterr().out == out


def test_json_report_is_byte_stable(tmp_path, capsys):
    root = make_bad_tree(tmp_path)
    args = [
        "--root", str(root), "--select", "RL001",
        "--format", "json", "--no-cache",
    ]
    lint_main(args)
    first = capsys.readouterr().out
    lint_main(args)
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert list(payload) == ["count", "findings", "root", "version"]
    assert first == json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _git(repo, *argv):
    subprocess.run(
        ["git", *argv], cwd=repo, check=True, capture_output=True
    )


def test_changed_only_filters_to_changed_files(tmp_path, capsys):
    root = tmp_path / "badsrc"
    sim = root / "repro" / "sim"
    sim.mkdir(parents=True)
    (sim / "engine.py").write_text("import time\n")
    (sim / "other.py").write_text("import datetime\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "config", "user.email", "lint@test")
    _git(tmp_path, "config", "user.name", "lint")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "base")
    (sim / "engine.py").write_text("import time\nX = 1\n")
    code = lint_main(
        ["--root", str(root), "--select", "RL001", "--changed-only",
         "--base", "HEAD", "--format", "json", "--no-cache"]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    # other.py's violation predates the base ref: filtered out.
    assert {f["path"] for f in report["findings"]} == {
        "repro/sim/engine.py"
    }


def test_changed_only_outside_git_is_usage_error(tmp_path, capsys):
    root = make_bad_tree(tmp_path)
    code = lint_main(
        ["--root", str(root), "--changed-only", "--no-cache"]
    )
    assert code == 2
    assert "git diff" in capsys.readouterr().err


def test_write_fingerprint_round_trips(tmp_path, capsys):
    import shutil

    root = tmp_path / "src"
    obs = root / "repro" / "obs"
    obs.mkdir(parents=True)
    for name in ("events.py", "export.py", "replay.py"):
        shutil.copy(REPO_SRC / "repro" / "obs" / name, obs / name)
    assert lint_main(["--root", str(root), "--write-fingerprint"]) == 0
    assert "wrote event-schema fingerprint" in capsys.readouterr().out
    committed = REPO_SRC / "repro" / "obs" / "event_schema.json"
    assert (obs / "event_schema.json").read_text() == committed.read_text()
