"""The whole-program rules: RL008, RL009, RL010, RL011.

Unlike the per-module rules (:mod:`repro.lint.rules`) these operate on
a :class:`~repro.lint.graph.Program` — every module parsed, imports
resolved — so a violation in one file can be caused by a definition in
another:

* **RL008 — architecture layering.**  The rule's settings
  (:mod:`repro.lint.config`) declare named layers (ordered path-glob
  groups; first match wins) and the DAG of allowed cross-layer
  imports.  Every runtime import edge must stay inside its layer or
  follow a declared edge; ``if TYPE_CHECKING:`` imports are exempt
  (annotation-only coupling).
  The rule also rejects unassigned modules, unknown layer names and a
  cyclic declaration — a layering contract that is not a DAG enforces
  nothing.
* **RL009 — nondeterministic-iteration taint.**  Values whose order
  comes from iterating a ``set``/``frozenset`` (or ``os.listdir``,
  unsorted ``glob``) are tainted; the dataflow core propagates taint
  through assignments, comprehensions and cross-module call summaries,
  and this rule reports any tainted argument reaching a determinism
  sink — ``SimulationResult``/result dataclasses, ``canonical_json``
  (the journal/digest/cache-key chokepoint) or a trace-event
  construction.
* **RL010 — float contamination.**  Inside the integer-exact zones the
  same engine runs float semantics: float literals, ``float(...)``,
  ``/`` results and float-returning ``math.*`` calls may not flow into
  cycle counters or deadline arithmetic (assignments or keyword
  arguments whose names match the sink patterns, returns of
  ``*_cycles``-like functions).  This generalizes RL005 from "no ``/``
  token" to actual value flow.
* **RL011 — dead and drifting exports.**  A public top-level symbol
  never referenced outside its module (across ``src``, tests and
  benchmarks) is dead; an ``__all__`` entry that names nothing defined
  in the module, or appears twice, is drift.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from .config import path_matches
from .dataflow import (
    TAINTED,
    DataflowEngine,
    FloatSemantics,
    Hooks,
    IterationSemantics,
    Resolver,
)
from .findings import Finding
from .graph import Program, ProgramModule
from .rules import Rule, register_rule
from .symbols import external_references, module_symbols

__all__ = [
    "ProgramRule",
    "LayeringRule",
    "IterationTaintRule",
    "FloatContaminationRule",
    "DeadExportRule",
    "assign_layers",
]


class ProgramRule(Rule):
    """A rule that needs the parsed whole program."""

    def check(
        self, module: Any, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        return iter(())  # program-level only

    def check_program(
        self, program: Program, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        raise NotImplementedError


# -- RL008: architecture layering ----------------------------------------------


def assign_layers(
    layers: Mapping[str, List[str]], relpath: str
) -> Optional[str]:
    """The first declared layer whose globs match, None if unassigned."""
    for name, patterns in layers.items():
        if path_matches(relpath, patterns):
            return name
    return None


def _declaration_cycle(
    imports: Mapping[str, List[str]]
) -> Optional[List[str]]:
    """A cycle in the declared allowed-import graph, None if a DAG."""
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[str, int] = {name: WHITE for name in imports}
    stack: List[str] = []

    def visit(name: str) -> Optional[List[str]]:
        color[name] = GREY
        stack.append(name)
        for dep in imports.get(name, []):
            if color.get(dep, BLACK) == GREY:
                return stack[stack.index(dep):] + [dep]
            if color.get(dep, BLACK) == WHITE:
                cycle = visit(dep)
                if cycle is not None:
                    return cycle
        stack.pop()
        color[name] = BLACK
        return None

    for name in sorted(imports):
        if color[name] == WHITE:
            cycle = visit(name)
            if cycle is not None:
                return cycle
    return None


@register_rule
class LayeringRule(ProgramRule):
    """Declared layer DAG over the module import graph."""

    rule_id = "RL008"
    title = "layering"

    def check_program(
        self, program: Program, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        layers: Mapping[str, List[str]] = options.get("layers", {})
        allowed: Mapping[str, List[str]] = options.get("imports", {})
        if not layers:
            return
        unknown = sorted(
            {
                name
                for deps in allowed.values()
                for name in deps
                if name not in layers
            }
            | {name for name in allowed if name not in layers}
        )
        for name in unknown:
            yield self.finding_at(
                "pyproject.toml",
                1,
                f"RL008's imports reference layer {name!r}, which is "
                f"not declared under its layers",
            )
        cycle = _declaration_cycle(allowed)
        if cycle is not None:
            yield self.finding_at(
                "pyproject.toml",
                1,
                f"the declared layer imports are cyclic "
                f"({' -> '.join(cycle)}); a layering contract must be "
                f"a DAG",
            )
            return
        assignment: Dict[str, Optional[str]] = {}
        for relpath, pm in program.modules.items():
            assignment[relpath] = assign_layers(layers, relpath)
            if assignment[relpath] is None:
                yield self.finding_at(
                    relpath,
                    1,
                    f"module is not covered by any declared layer; "
                    f"add it to RL008's layers (repro/lint/config.py) so "
                    f"the contract stays total",
                )
        # ``from pkg import a, b, c`` makes one edge per symbol; report
        # the (statement, target-module) pair once.
        reported: Set[Tuple[str, int, int, str]] = set()
        for edge in program.edges():
            if edge.type_checking:
                continue
            source_layer = assignment.get(edge.source)
            target_layer = assignment.get(edge.target)
            if source_layer is None or target_layer is None:
                continue
            if source_layer == target_layer:
                continue
            if target_layer in allowed.get(source_layer, []):
                continue
            key = (edge.source, edge.line, edge.col, edge.target)
            if key in reported:
                continue
            reported.add(key)
            yield self.finding_at(
                edge.source,
                edge.line,
                f"layer {source_layer!r} may not import layer "
                f"{target_layer!r} (module {edge.target}); declared "
                f"imports: "
                f"{sorted(allowed.get(source_layer, []))} — refactor "
                f"the dependency or amend the contract deliberately",
                col=edge.col,
            )

    def finding_at(
        self, relpath: str, line: int, message: str, col: int = 0
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=relpath,
            line=line,
            col=col,
            message=message,
        )


# -- RL009: nondeterministic-iteration taint -----------------------------------


class _TaintSinkHooks(Hooks):
    """Collect tainted arguments at determinism sinks."""

    def __init__(
        self,
        sink_calls: List[str],
        sink_events: bool,
    ) -> None:
        self.sink_calls = sink_calls
        self.sink_events = sink_events
        self.hits: Set[Tuple[str, int, int, str]] = set()

    def _sink_label(
        self, pm: ProgramModule, node: ast.Call, resolver: Resolver
    ) -> Optional[str]:
        func = node.func
        name = ""
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name and any(
            path_matches(name, [pattern]) for pattern in self.sink_calls
        ):
            return name
        if self.sink_events and isinstance(func, ast.Name):
            resolved = resolver.resolve_call(func)
            if resolved is not None and resolved[0].endswith(
                "events.py"
            ):
                return f"trace event {name}"
        return None

    def on_call(
        self,
        pm: ProgramModule,
        node: ast.Call,
        arg_flags_list: List[Tuple[Optional[str], int]],
        resolver: Resolver,
    ) -> None:
        label = self._sink_label(pm, node, resolver)
        if label is None:
            return
        for kwarg, flags in arg_flags_list:
            if flags & TAINTED:
                where = (
                    f"keyword {kwarg!r}" if kwarg else "an argument"
                )
                self.hits.add(
                    (
                        pm.relpath,
                        node.lineno,
                        node.col_offset,
                        f"value with nondeterministic iteration order "
                        f"reaches determinism sink {label!r} via "
                        f"{where}; sort the producing iteration "
                        f"(sorted(...)) before it escapes",
                    )
                )


@register_rule
class IterationTaintRule(ProgramRule):
    """set/dict iteration taint must not reach determinism sinks."""

    rule_id = "RL009"
    title = "iteration-taint"

    def check_program(
        self, program: Program, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        semantics = IterationSemantics(
            taint_dict=bool(options.get("taint_dict", False))
        )
        engine = DataflowEngine(program, semantics)
        engine.compute_summaries()
        hooks = _TaintSinkHooks(
            sink_calls=list(options.get("sink_calls", [])),
            sink_events=bool(options.get("sink_events", True)),
        )
        include = options.get("include", [])
        allow = options.get("allow", [])
        engine.report(
            hooks,
            in_scope=lambda relpath: path_matches(relpath, include)
            and not path_matches(relpath, allow),
        )
        for relpath, line, col, message in sorted(hooks.hits):
            yield Finding(
                rule_id=self.rule_id,
                path=relpath,
                line=line,
                col=col,
                message=message,
            )


# -- RL010: float contamination ------------------------------------------------


def _target_names(targets: List[ast.expr]) -> Iterator[str]:
    for target in targets:
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, ast.Attribute):
            yield target.attr
        elif isinstance(target, (ast.Tuple, ast.List)):
            yield from _target_names(list(target.elts))


class _FloatSinkHooks(Hooks):
    """Collect float-valued flows into integer-exact state."""

    def __init__(self, sink_names: List[str]) -> None:
        self.sink_names = sink_names
        self.hits: Set[Tuple[str, int, int, str]] = set()

    def _matches(self, name: str) -> bool:
        return any(
            path_matches(name, [pattern]) for pattern in self.sink_names
        )

    def _hit(
        self, pm: ProgramModule, node: ast.AST, message: str
    ) -> None:
        self.hits.add(
            (
                pm.relpath,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                message,
            )
        )

    def on_assign(
        self,
        pm: ProgramModule,
        node: ast.stmt,
        targets: List[ast.expr],
        value_flags: int,
    ) -> None:
        if not value_flags & TAINTED:
            return
        for name in _target_names(targets):
            if self._matches(name):
                self._hit(
                    pm,
                    node,
                    f"float-valued expression assigned to integer-"
                    f"exact state {name!r}; the cycle/deadline "
                    f"arithmetic is exact-integer by contract — use "
                    f"integer math (cross-multiplication, //, "
                    f"divmod)",
                )

    def on_call(
        self,
        pm: ProgramModule,
        node: ast.Call,
        arg_flags_list: List[Tuple[Optional[str], int]],
        resolver: Resolver,
    ) -> None:
        for kwarg, flags in arg_flags_list:
            if kwarg and flags & TAINTED and self._matches(kwarg):
                self._hit(
                    pm,
                    node,
                    f"float-valued expression passed as keyword "
                    f"{kwarg!r}; integer-exact state must be built "
                    f"from integer math only",
                )

    def on_return(
        self,
        pm: ProgramModule,
        node: ast.Return,
        function: str,
        value_flags: int,
    ) -> None:
        if value_flags & TAINTED and self._matches(function):
            self._hit(
                pm,
                node,
                f"function {function!r} returns a float-valued "
                f"expression; its name marks it as integer-exact "
                f"cycle/deadline arithmetic",
            )


@register_rule
class FloatContaminationRule(ProgramRule):
    """No float value flow into the integer-exact zones' counters."""

    rule_id = "RL010"
    title = "float-contamination"

    def check_program(
        self, program: Program, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        engine = DataflowEngine(program, FloatSemantics())
        engine.compute_summaries()
        hooks = _FloatSinkHooks(
            sink_names=list(options.get("sink_names", []))
        )
        include = options.get("include", [])
        allow = options.get("allow", [])
        engine.report(
            hooks,
            in_scope=lambda relpath: path_matches(relpath, include)
            and not path_matches(relpath, allow),
        )
        for relpath, line, col, message in sorted(hooks.hits):
            yield Finding(
                rule_id=self.rule_id,
                path=relpath,
                line=line,
                col=col,
                message=message,
            )


# -- RL011: dead and drifting exports ------------------------------------------


@register_rule
class DeadExportRule(ProgramRule):
    """Unreferenced public symbols and ``__all__`` drift."""

    rule_id = "RL011"
    title = "dead-exports"

    def check_program(
        self, program: Program, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        include = options.get("include", [])
        allow = options.get("allow", [])
        allow_names = set(options.get("allow_names", []))
        roots = [
            program.src_root.parent / root
            for root in options.get("roots", [])
        ]
        outside = external_references(program, roots)
        for relpath in sorted(program.modules):
            if not path_matches(relpath, include) or path_matches(
                relpath, allow
            ):
                continue
            pm = program.modules[relpath]
            symbols = module_symbols(pm)
            referenced_elsewhere = outside[relpath]
            for name in sorted(symbols.defs):
                definition = symbols.defs[name]
                if not definition.public or name in allow_names:
                    continue
                if name not in referenced_elsewhere:
                    yield Finding(
                        rule_id=self.rule_id,
                        path=relpath,
                        line=definition.line,
                        col=0,
                        message=(
                            f"public {definition.kind} {name!r} is "
                            f"never referenced outside this module "
                            f"(whole-program scan incl. tests and "
                            f"benchmarks); delete it or rename it "
                            f"with a leading underscore"
                        ),
                    )
            yield from self._check_dunder_all(relpath, symbols)

    def _check_dunder_all(
        self, relpath: str, symbols: Any
    ) -> Iterator[Finding]:
        if symbols.dunder_all is None:
            return
        defined = (
            set(symbols.defs)
            | symbols.imported
            | {"__version__", "__all__"}
        )
        seen: Set[str] = set()
        for name in symbols.dunder_all:
            if name in seen:
                yield Finding(
                    rule_id=self.rule_id,
                    path=relpath,
                    line=symbols.dunder_all_line,
                    col=0,
                    message=(
                        f"__all__ lists {name!r} twice; drop the "
                        f"duplicate entry"
                    ),
                )
            seen.add(name)
            if name not in defined:
                yield Finding(
                    rule_id=self.rule_id,
                    path=relpath,
                    line=symbols.dunder_all_line,
                    col=0,
                    message=(
                        f"__all__ lists {name!r}, which is neither "
                        f"defined nor imported at module top level — "
                        f"stale export?"
                    ),
                )
