"""Whole-program lint rules (RL008–RL011) and their engine.

Three kinds of coverage:

* **fixture packages** under ``tests/lint_fixtures/program/`` — each a
  miniature source tree with ``# expect: <RULE>`` tags on deliberately
  bad lines; the tests require findings to match the tags exactly;
* **real-tree regression** — every whole-program rule must be *clean*
  on the repository's actual source tree (violations are fixed by
  refactor, not allowlisted);
* **unit tests** for the building blocks: the import-graph builder,
  the symbol table, the dataflow summaries and the result cache.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.lint import (
    RULE_DEFAULTS,
    ImportEdge,
    IterationSemantics,
    LintCache,
    LintConfig,
    ModuleSymbols,
    Semantics,
    Summary,
    SymbolDef,
    assign_layers,
    build_program,
    collect_references,
    module_symbols,
    run_analysis,
    ruleset_fingerprint,
)
from repro.lint.cache import CACHE_VERSION
from repro.lint.dataflow import TAINTED, UNORDERED, DataflowEngine, FloatSemantics
from repro.lint.graph import module_dotted_name

REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = REPO_ROOT / "src"
FIXTURES = Path(__file__).parent / "lint_fixtures" / "program"

_EXPECT = re.compile(r"#\s*expect:\s*([A-Z0-9 ]+?)\s*$")

#: Layer contract matching the layering fixture's two-layer shape.
FIXTURE_LAYERS = {
    "RL008": {
        "layers": {
            "core": ["repro/core/*"],
            "exec": ["repro/exec/*"],
            "pkg": ["repro/__init__.py"],
        },
        "imports": {
            "core": [],
            "exec": ["core"],
            "pkg": ["core", "exec"],
        },
    }
}


def expected_triples(root):
    """``(relpath, line, rule)`` for every ``# expect:`` tag under root."""
    expected = []
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            match = _EXPECT.search(line)
            if match:
                for rule_id in match.group(1).split():
                    expected.append((relpath, lineno, rule_id))
    return sorted(expected)


def finding_triples(findings):
    return sorted((f.path, f.line, f.rule_id) for f in findings)


def run_fixture(name, rule_id, overrides=None):
    config = LintConfig(overrides)
    return run_analysis(FIXTURES / name, config, select={rule_id})


class TestLayeringFixture:
    def test_violations_match_expect_tags(self):
        findings = run_fixture("layering", "RL008", FIXTURE_LAYERS)
        want = expected_triples(FIXTURES / "layering")
        assert want, "fixture has no '# expect:' tags"
        assert finding_triples(findings) == want

    def test_type_checking_import_is_exempt(self):
        findings = run_fixture("layering", "RL008", FIXTURE_LAYERS)
        assert all("types.py" not in f.path for f in findings)

    def test_unassigned_module_is_reported(self):
        overrides = {
            "RL008": {
                "layers": {
                    "core": ["repro/core/*"],
                    "exec": ["repro/exec/*"],
                    # repro/__init__.py deliberately unassigned
                },
                "imports": {"core": [], "exec": ["core"]},
            }
        }
        findings = run_fixture("layering", "RL008", overrides)
        assert any(
            f.path == "repro/__init__.py"
            and "not covered by any declared layer" in f.message
            for f in findings
        )

    def test_cyclic_contract_is_rejected(self):
        overrides = {
            "RL008": {
                "layers": FIXTURE_LAYERS["RL008"]["layers"],
                "imports": {
                    "core": ["exec"],
                    "exec": ["core"],
                    "pkg": [],
                },
            }
        }
        findings = run_fixture("layering", "RL008", overrides)
        assert any("cyclic" in f.message for f in findings)
        assert all(f.path == "pyproject.toml" for f in findings)

    def test_unknown_layer_in_contract_is_rejected(self):
        overrides = {
            "RL008": {
                "layers": FIXTURE_LAYERS["RL008"]["layers"],
                "imports": {
                    "core": [],
                    "exec": ["core", "nonexistent"],
                    "pkg": ["core", "exec"],
                },
            }
        }
        findings = run_fixture("layering", "RL008", overrides)
        assert any("nonexistent" in f.message for f in findings)


class TestTaintFixture:
    def test_cross_module_taint_matches_expect_tags(self):
        findings = run_fixture("taint", "RL009")
        want = expected_triples(FIXTURES / "taint")
        assert want, "fixture has no '# expect:' tags"
        assert finding_triples(findings) == want

    def test_sorted_pipelines_are_clean(self):
        findings = run_fixture("taint", "RL009")
        messages = [f.message for f in findings]
        assert all("write_sorted" not in m for m in messages)


class TestFloatFlowFixture:
    OVERRIDES = {"RL010": {"include": ["repro/*"]}}

    def test_cross_module_float_flow_matches_expect_tags(self):
        findings = run_fixture("floatflow", "RL010", self.OVERRIDES)
        want = expected_triples(FIXTURES / "floatflow")
        assert want, "fixture has no '# expect:' tags"
        assert finding_triples(findings) == want


class TestDeadcodeFixture:
    def test_dead_exports_match_expect_tags(self):
        findings = run_fixture("deadcode", "RL011")
        want = expected_triples(FIXTURES / "deadcode")
        assert want, "fixture has no '# expect:' tags"
        assert finding_triples(findings) == want

    def test_drift_messages_name_the_problems(self):
        findings = run_fixture("deadcode", "RL011")
        messages = " ".join(f.message for f in findings)
        assert "'gone_helper'" in messages  # stale __all__ entry
        assert "twice" in messages  # duplicate __all__ entry
        assert "'dead_helper'" in messages  # unreferenced public def


WHOLE_PROGRAM_RULES = ("RL008", "RL009", "RL010", "RL011")


@pytest.fixture(scope="module")
def real_tree_findings():
    """One whole-program analysis of the real source tree, shared by the
    per-rule tests below (each run builds the whole program)."""
    config = LintConfig.load(REPO_ROOT / "pyproject.toml")
    return run_analysis(REPO_SRC, config, select=set(WHOLE_PROGRAM_RULES))


class TestRealTreeIsClean:
    """The contract: violations were fixed by refactor."""

    @pytest.fixture(autouse=True)
    def _findings(self, real_tree_findings):
        self.findings = real_tree_findings

    def _run(self, rule_id):
        return [f for f in self.findings if f.rule_id == rule_id]

    def test_rl008_layering_clean(self):
        assert self._run("RL008") == []

    def test_rl009_iteration_taint_clean(self):
        assert self._run("RL009") == []

    def test_rl010_float_contamination_clean(self):
        assert self._run("RL010") == []

    def test_rl011_dead_exports_clean(self):
        assert self._run("RL011") == []


class TestImportGraph:
    def test_module_dotted_name(self):
        assert module_dotted_name("repro/core/__init__.py") == (
            "repro.core",
            True,
        )
        assert module_dotted_name("repro/sim/engine.py") == (
            "repro.sim.engine",
            False,
        )

    def test_edges_resolve_relative_imports(self):
        program = build_program(FIXTURES / "layering")
        edges = [
            e
            for e in program.edges()
            if e.source == "repro/core/engine.py"
        ]
        targets = {e.target for e in edges}
        assert "repro/exec/runner.py" in targets
        assert "repro/core/api.py" in targets
        assert all(isinstance(e, ImportEdge) for e in edges)
        assert all(not e.type_checking for e in edges)

    def test_type_checking_flag_is_set(self):
        program = build_program(FIXTURES / "layering")
        edges = [
            e
            for e in program.edges()
            if e.source == "repro/core/types.py"
            and e.target == "repro/exec/runner.py"
        ]
        assert edges
        assert all(e.type_checking for e in edges)

    def test_layer_assignment_first_match_wins(self):
        layers = {
            "special": ["repro/core/engine.py"],
            "core": ["repro/core/*"],
        }
        assert assign_layers(layers, "repro/core/engine.py") == "special"
        assert assign_layers(layers, "repro/core/api.py") == "core"
        assert assign_layers(layers, "elsewhere.py") is None


class TestSymbolTable:
    def test_module_symbols_defs_and_dunder_all(self):
        program = build_program(FIXTURES / "deadcode")
        symbols = module_symbols(program.modules["repro/api.py"])
        assert isinstance(symbols, ModuleSymbols)
        assert set(symbols.defs) == {
            "used_helper",
            "dead_helper",
            "_private_helper",
        }
        assert isinstance(symbols.defs["used_helper"], SymbolDef)
        assert symbols.defs["used_helper"].public
        assert not symbols.defs["_private_helper"].public
        assert symbols.dunder_all == [
            "used_helper",
            "gone_helper",
            "used_helper",
        ]

    def test_collect_references_sees_imports_and_strings(self):
        tree = ast.parse(
            "from pkg import alpha\n"
            "beta.gamma()\n"
            "name = 'delta'\n"
        )
        refs = collect_references(tree)
        assert {"alpha", "beta", "gamma", "delta"} <= refs


class TestDataflowCore:
    def test_summary_call_flags(self):
        summary = Summary(returns=0, returns_when_args_flagged=TAINTED)
        assert summary.call_flags(any_arg_flagged=False) == 0
        assert summary.call_flags(any_arg_flagged=True) == TAINTED

    def test_iteration_semantics_is_a_semantics(self):
        assert issubclass(IterationSemantics, Semantics)
        assert issubclass(FloatSemantics, Semantics)

    def test_taint_summaries_cross_fixture_modules(self):
        program = build_program(FIXTURES / "taint")
        engine = DataflowEngine(program, IterationSemantics())
        engine.compute_summaries()
        unstable = engine.summaries[("repro/pool.py", "unstable_names")]
        stable = engine.summaries[("repro/pool.py", "stable_names")]
        assert unstable.returns & TAINTED
        assert stable.returns == 0

    def test_float_summaries_cross_fixture_modules(self):
        program = build_program(FIXTURES / "floatflow")
        engine = DataflowEngine(program, FloatSemantics())
        engine.compute_summaries()
        scale = engine.summaries[("repro/model.py", "scale_factor")]
        whole = engine.summaries[("repro/model.py", "whole_steps")]
        assert scale.returns & TAINTED
        assert whole.returns == 0

    def test_set_literal_is_unordered_not_tainted(self):
        semantics = IterationSemantics()
        shell = ast.parse("{1, 2}", mode="eval").body
        assert semantics.display_flags(shell, 0) == UNORDERED


class TestResultCache:
    def _write_tree(self, root, body):
        (root / "repro").mkdir(parents=True, exist_ok=True)
        (root / "repro" / "mod.py").write_text(body, encoding="utf-8")

    def test_warm_run_hits_and_content_change_invalidates(self, tmp_path):
        src = tmp_path / "src"
        self._write_tree(src, "import time\n")
        config = LintConfig()
        cache = LintCache(tmp_path / "cachedir", "fp-1")
        first = run_analysis(src, config, select={"RL001"}, cache=cache)
        assert [f.rule_id for f in first] == ["RL001"]
        assert cache.misses > 0

        warm = LintCache(tmp_path / "cachedir", "fp-1")
        second = run_analysis(src, config, select={"RL001"}, cache=warm)
        assert second == first
        assert warm.hits > 0
        assert warm.misses == 0

        # Changing the file's content must invalidate its entry.
        self._write_tree(src, "import os\nimport time\n")
        third_cache = LintCache(tmp_path / "cachedir", "fp-1")
        third = run_analysis(
            src, config, select={"RL001"}, cache=third_cache
        )
        assert third_cache.misses > 0
        assert [f.line for f in third] == [2]

    def test_fingerprint_change_invalidates(self, tmp_path):
        src = tmp_path / "src"
        self._write_tree(src, "import time\n")
        config = LintConfig()
        run_analysis(
            src,
            config,
            select={"RL001"},
            cache=LintCache(tmp_path / "cachedir", "fp-1"),
        )
        other = LintCache(tmp_path / "cachedir", "fp-2")
        run_analysis(src, config, select={"RL001"}, cache=other)
        assert other.hits == 0
        assert other.misses > 0

    def test_cache_entries_are_versioned_json(self, tmp_path):
        src = tmp_path / "src"
        self._write_tree(src, "x = 1\n")
        cache = LintCache(tmp_path / "cachedir", "fp-1")
        run_analysis(src, LintConfig(), select={"RL001"}, cache=cache)
        entries = list((tmp_path / "cachedir").glob("*.json"))
        assert entries
        import json

        for entry in entries:
            payload = json.loads(entry.read_text(encoding="utf-8"))
            assert payload["version"] == CACHE_VERSION
            assert payload["fingerprint"] == "fp-1"

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        src = tmp_path / "src"
        self._write_tree(src, "import time\n")
        config = LintConfig()
        cache = LintCache(tmp_path / "cachedir", "fp-1")
        run_analysis(src, config, select={"RL001"}, cache=cache)
        for entry in (tmp_path / "cachedir").glob("*.json"):
            entry.write_text("{not json", encoding="utf-8")
        again = LintCache(tmp_path / "cachedir", "fp-1")
        findings = run_analysis(
            src, config, select={"RL001"}, cache=again
        )
        assert [f.rule_id for f in findings] == ["RL001"]
        assert again.hits == 0

    def test_ruleset_fingerprint_tracks_options_and_select(self):
        base = ruleset_fingerprint(RULE_DEFAULTS, None)
        assert base == ruleset_fingerprint(RULE_DEFAULTS, None)
        tweaked = dict(RULE_DEFAULTS)
        tweaked["RL001"] = dict(RULE_DEFAULTS["RL001"], enabled=False)
        assert ruleset_fingerprint(tweaked, None) != base
        assert ruleset_fingerprint(RULE_DEFAULTS, ["RL001"]) != base
