"""repro.lint — AST-based invariant analyzer for the simulation core.

A rule-registry static-analysis pass (stdlib :mod:`ast` only, no runtime
dependencies) that machine-checks the repository's cross-cutting
contracts at commit time.  Two tiers:

**Per-module rules** look at one file at a time:

========  ===================  ==========================================
ID        name                 contract
========  ===================  ==========================================
RL001     determinism          no wall clock / unseeded entropy in
                               simulation code
RL002     tracer-guard         event emission dominated by
                               ``if tracer.enabled``
RL003     hygiene              no mutable default args, no frozen-
                               dataclass mutation
RL004     schema-drift         event dataclasses vs serializers, replay
                               handlers and the committed schema
                               fingerprint
RL005     division-free-hef    scheduler benefit comparisons by
                               cross-multiplication, never ``/``
RL006     swallowed-exception  no silent ``except`` in the core
RL007     wall-clock-seam      wall-clock reads only inside declared
                               seam functions
========  ===================  ==========================================

**Whole-program rules** parse every module, resolve the import graph
(:mod:`repro.lint.graph`) and run a conservative dataflow core with
cross-module call summaries (:mod:`repro.lint.dataflow`):

========  ===================  ==========================================
ID        name                 contract
========  ===================  ==========================================
RL008     layering             the declared architecture layer DAG:
                               every import edge must follow it
RL009     iteration-taint      set-iteration order never reaches a
                               determinism sink (results, journals,
                               digests, cache keys, trace events)
RL010     float-contamination  no float value flow into the integer-
                               exact cycle/deadline arithmetic
RL011     dead-exports         no unreferenced public symbols, no
                               ``__all__`` drift
========  ===================  ==========================================

Run it as ``python -m repro lint`` (see :mod:`repro.lint.cli`); rule
scopes and allowlists live in :mod:`repro.lint.config`, and a
``[tool.repro-lint]`` table in ``pyproject.toml`` may override them.
Results are cached content-addressed under ``artifacts/.lintcache/``
(:mod:`repro.lint.cache`).
"""

from __future__ import annotations

from .analyzer import analyze_source, iter_source_files, run_analysis
from .cache import LintCache, ruleset_fingerprint
from .config import RULE_DEFAULTS, LintConfig, LintConfigError, path_matches
from .dataflow import (
    TAINTED,
    UNORDERED,
    DataflowEngine,
    FloatSemantics,
    Hooks,
    IterationSemantics,
    Resolver,
    Semantics,
    Summary,
)
from .findings import Finding
from .graph import ImportEdge, Program, ProgramModule, build_program
from .rules import (
    RULES,
    DeterminismRule,
    DivisionFreeRule,
    HygieneRule,
    Module,
    Rule,
    SwallowedExceptionRule,
    TracerGuardRule,
    WallClockSeamRule,
    parse_module,
)
from .rules_program import (
    DeadExportRule,
    FloatContaminationRule,
    IterationTaintRule,
    LayeringRule,
    ProgramRule,
    assign_layers,
)
from .schema import (
    REPLAY_IGNORE_DECLARATION,
    EventClass,
    EventSchema,
    SchemaDriftRule,
    parse_event_schema,
    schema_fingerprint,
    write_fingerprint,
)
from .symbols import (
    ModuleSymbols,
    SymbolDef,
    collect_references,
    external_references,
    module_symbols,
)

__all__ = [
    "Finding",
    "LintConfig",
    "LintConfigError",
    "RULE_DEFAULTS",
    "path_matches",
    "RULES",
    "Module",
    "Rule",
    "parse_module",
    "analyze_source",
    "run_analysis",
    "iter_source_files",
    "LintCache",
    "ruleset_fingerprint",
    "DeterminismRule",
    "TracerGuardRule",
    "HygieneRule",
    "DivisionFreeRule",
    "SwallowedExceptionRule",
    "WallClockSeamRule",
    "EventClass",
    "EventSchema",
    "SchemaDriftRule",
    "REPLAY_IGNORE_DECLARATION",
    "parse_event_schema",
    "schema_fingerprint",
    "write_fingerprint",
    "Program",
    "ProgramModule",
    "ImportEdge",
    "build_program",
    "SymbolDef",
    "ModuleSymbols",
    "module_symbols",
    "collect_references",
    "external_references",
    "TAINTED",
    "UNORDERED",
    "Summary",
    "Semantics",
    "IterationSemantics",
    "FloatSemantics",
    "Hooks",
    "Resolver",
    "DataflowEngine",
    "ProgramRule",
    "LayeringRule",
    "IterationTaintRule",
    "FloatContaminationRule",
    "DeadExportRule",
    "assign_layers",
]
