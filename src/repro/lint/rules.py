"""The per-module lint rules: RL001, RL002, RL003, RL005, RL006, RL007.

Each rule is a small AST pass registered under its ID.  Rules receive a
parsed :class:`Module` plus their effective options
(:mod:`repro.lint.config`) and yield :class:`~repro.lint.findings.Finding`
objects.  The cross-file schema rule RL004 lives in
:mod:`repro.lint.schema` because it reasons about three modules and a
committed fingerprint at once.

The rule set encodes this repository's hard contracts:

* **RL001 — determinism.**  Simulation code must be a pure function of
  its inputs: no wall clock (``time``/``datetime`` imports), no entropy
  (``os.urandom``, ``random.SystemRandom``, unseeded ``random``).  The
  content-addressed result cache and every golden/bit-identity test rely
  on this.
* **RL002 — tracer guards.**  Observability is zero-overhead by
  contract: every ``tracer.emit`` and every trace-event construction in
  engine/scheduler/fabric code must sit under an ``if tracer.enabled``
  guard so untraced runs construct no event objects and stay
  bit-identical.
* **RL003 — hygiene.**  Mutable default arguments, and mutation of
  frozen-dataclass state (direct ``self.x = ...`` raises at run time;
  ``object.__setattr__`` outside ``__post_init__`` silently defeats
  immutability).
* **RL005 — division-free HEF.**  The paper's hardware comparator has no
  divider (Section 5): scheduler benefit comparisons are decided by
  cross-multiplication, so ``/`` must not appear in scheduler code.
* **RL006 — no swallowed exceptions.**  Bare ``except:`` catches
  ``KeyboardInterrupt``/``SystemExit`` and hides everything; an
  ``except`` whose body is only ``pass``/``...`` silently discards the
  failure.  A robustness layer built on failure *classification*
  (timeouts vs crashes vs poison cells) cannot afford either — suppress
  narrowly and visibly with ``contextlib.suppress`` instead.
* **RL007 — wall-clock seams.**  Service and supervisor code runs under
  virtual clocks and deterministic journals, yet lives in modules where
  RL001 allowlists the ``time`` import (deadlines and backoff sleeps are
  wall-clock by nature).  This rule closes the gap: ``time.time()``,
  ``time.monotonic()`` and argless ``datetime.now()`` may only be
  *called* inside the configured seam functions (``seams`` option) —
  everything else reads the clock through a seam or
  ``MetricsRegistry.timer()``, keeping bit-identical reruns possible.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Union

from .findings import Finding

__all__ = ["Module", "Rule", "RULES", "register_rule", "parse_module"]


@dataclass
class Module:
    """One parsed source module handed to the rules."""

    relpath: str
    tree: ast.Module
    #: child -> parent links for guard/ancestor queries.
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current: Optional[ast.AST] = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_functions(self, node: ast.AST) -> List[str]:
        """Names of the functions enclosing ``node``, innermost first."""
        return [
            ancestor.name
            for ancestor in self.ancestors(node)
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
        ]


def parse_module(source: str, relpath: str) -> Module:
    """Parse ``source`` and build the parent map the rules need."""
    tree = ast.parse(source, filename=relpath)
    parents: Dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return Module(relpath=relpath, tree=tree, parents=parents)


class Rule:
    """Base of all per-module rules."""

    rule_id: str = ""
    title: str = ""

    def check(
        self, module: Module, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: Module, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=module.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: Rule registry: ID -> rule instance (RL004 registers from schema.py).
RULES: Dict[str, Rule] = {}


def register_rule(cls: type) -> type:
    """Class decorator adding a rule to :data:`RULES` (unique by ID)."""
    rule = cls()
    if not rule.rule_id or rule.rule_id in RULES:
        raise ValueError(
            f"rule {cls.__name__} has a missing or duplicate id "
            f"{rule.rule_id!r}"
        )
    RULES[rule.rule_id] = rule
    return cls


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted-name rendering of an expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return ""


# -- RL001: determinism --------------------------------------------------------


@register_rule
class DeterminismRule(Rule):
    """No wall clock and no unseeded entropy in simulation code."""

    rule_id = "RL001"
    title = "determinism"

    _BANNED_MODULES = ("time", "datetime")

    def check(
        self, module: Module, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        #: local aliases of random.Random / random.SystemRandom.
        random_aliases: Set[str] = set()
        system_aliases: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                yield from self._check_import(module, node)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(
                    module, node, random_aliases, system_aliases
                )
            elif isinstance(node, ast.Call):
                yield from self._check_call(
                    module, node, random_aliases, system_aliases
                )

    def _check_import(
        self, module: Module, node: ast.Import
    ) -> Iterator[Finding]:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in self._BANNED_MODULES:
                yield self.finding(
                    module,
                    node,
                    f"deterministic code imports the wall-clock module "
                    f"{root!r}; only the allowlisted sites "
                    f"(RL001 allow, repro/lint/config.py) may read wall time",
                )

    def _check_import_from(
        self,
        module: Module,
        node: ast.ImportFrom,
        random_aliases: Set[str],
        system_aliases: Set[str],
    ) -> Iterator[Finding]:
        if node.module is None:
            return
        root = node.module.split(".")[0]
        if root in self._BANNED_MODULES and node.level == 0:
            yield self.finding(
                module,
                node,
                f"deterministic code imports from the wall-clock module "
                f"{node.module!r}",
            )
            return
        if node.module == "random" and node.level == 0:
            for alias in node.names:
                target = alias.asname or alias.name
                if alias.name == "Random":
                    random_aliases.add(target)
                elif alias.name == "SystemRandom":
                    system_aliases.add(target)
                    yield self.finding(
                        module,
                        node,
                        "random.SystemRandom draws OS entropy; "
                        "simulations must use seeded random.Random",
                    )
                else:
                    yield self.finding(
                        module,
                        node,
                        f"'from random import {alias.name}' pulls in the "
                        f"shared unseeded generator; construct a seeded "
                        f"random.Random instead",
                    )
        if node.module == "os" and node.level == 0:
            for alias in node.names:
                if alias.name == "urandom":
                    yield self.finding(
                        module,
                        node,
                        "os.urandom is OS entropy; deterministic code "
                        "must derive randomness from an explicit seed",
                    )

    def _check_call(
        self,
        module: Module,
        node: ast.Call,
        random_aliases: Set[str],
        system_aliases: Set[str],
    ) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = _dotted(func.value)
            if base == "os" and func.attr == "urandom":
                yield self.finding(
                    module,
                    node,
                    "os.urandom() is OS entropy; use a seeded "
                    "random.Random",
                )
            elif base == "random":
                if func.attr == "Random":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            module,
                            node,
                            "random.Random() without a seed is "
                            "nondeterministic; pass an explicit seed",
                        )
                elif func.attr == "SystemRandom":
                    yield self.finding(
                        module,
                        node,
                        "random.SystemRandom draws OS entropy; use a "
                        "seeded random.Random",
                    )
                else:
                    yield self.finding(
                        module,
                        node,
                        f"random.{func.attr}() uses the shared unseeded "
                        f"generator; use a seeded random.Random instance",
                    )
        elif isinstance(func, ast.Name):
            if (
                func.id in random_aliases
                and not node.args
                and not node.keywords
            ):
                yield self.finding(
                    module,
                    node,
                    f"{func.id}() (random.Random) without a seed is "
                    f"nondeterministic; pass an explicit seed",
                )
            elif func.id in system_aliases:
                yield self.finding(
                    module,
                    node,
                    f"{func.id}() (random.SystemRandom) draws OS entropy",
                )


# -- RL002: tracer guards ------------------------------------------------------


def _test_mentions_enabled(test: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "enabled"
        for sub in ast.walk(test)
    )


def _is_negated_enabled(test: ast.AST) -> bool:
    return isinstance(test, ast.UnaryOp) and isinstance(
        test.op, ast.Not
    ) and _test_mentions_enabled(test.operand)


@register_rule
class TracerGuardRule(Rule):
    """Emit calls and event constructions need an ``enabled`` guard."""

    rule_id = "RL002"
    title = "tracer-guard"

    def check(
        self, module: Module, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        factories = set(options.get("factories", []))
        event_names = self._event_names(module)
        event_modules = self._event_module_aliases(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            label = self._instrumentation_label(
                node, event_names, event_modules
            )
            if label is None:
                continue
            if set(module.enclosing_functions(node)) & factories:
                continue  # event factory: guarded at its call sites
            if self._is_returned(module, node):
                continue  # pull-based construction, caller guards
            if not self._guarded(module, node):
                yield self.finding(
                    module,
                    node,
                    f"{label} outside an 'if tracer.enabled' guard; "
                    f"untraced runs must construct no event objects",
                )

    @staticmethod
    def _event_names(module: Module) -> Set[str]:
        """Names imported from an ``…events`` module (trace events)."""
        names: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[-1] == "events":
                    for alias in node.names:
                        names.add(alias.asname or alias.name)
        return names

    @staticmethod
    def _event_module_aliases(module: Module) -> Set[str]:
        """Local aliases under which an ``…events`` module is bound."""
        aliases: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[-1] == "events":
                        aliases.add(
                            alias.asname or alias.name.split(".")[0]
                        )
        return aliases

    @staticmethod
    def _instrumentation_label(
        node: ast.Call, event_names: Set[str], event_modules: Set[str]
    ) -> Optional[str]:
        """A description when the call is emit/event work, else None."""
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "emit":
            receiver = _dotted(func.value)
            if "tracer" in receiver.lower():
                return f"'{receiver}.emit(...)'"
        if isinstance(func, ast.Name) and func.id in event_names:
            return f"trace-event construction '{func.id}(...)'"
        if isinstance(func, ast.Attribute):
            base = _dotted(func.value)
            if base in event_modules:
                return f"trace-event construction '{base}.{func.attr}(...)'"
        return None

    def _is_returned(self, module: Module, node: ast.AST) -> bool:
        return any(
            isinstance(ancestor, ast.Return)
            for ancestor in module.ancestors(node)
        )

    def _guarded(self, module: Module, node: ast.AST) -> bool:
        """Whether some enclosing ``if`` tests ``.enabled`` positively."""
        child: ast.AST = node
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.If) and _test_mentions_enabled(
                ancestor.test
            ):
                if _is_negated_enabled(ancestor.test):
                    if child in ancestor.orelse:
                        return True
                elif child in ancestor.body:
                    return True
            child = ancestor
        return False


# -- RL003: hygiene ------------------------------------------------------------


@register_rule
class HygieneRule(Rule):
    """Mutable default arguments and frozen-dataclass mutation."""

    rule_id = "RL003"
    title = "hygiene"

    def check(
        self, module: Module, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        frozen_classes = self._frozen_dataclasses(module)
        for node in ast.walk(module.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                yield from self._check_defaults(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_setattr(module, node)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                yield from self._check_frozen_assign(
                    module, node, frozen_classes
                )

    @staticmethod
    def _frozen_dataclasses(module: Module) -> Set[ast.ClassDef]:
        found: Set[ast.ClassDef] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                if not isinstance(decorator, ast.Call):
                    continue
                name = _dotted(decorator.func)
                if name.split(".")[-1] != "dataclass":
                    continue
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "frozen"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        found.add(node)
        return found

    def _check_defaults(
        self,
        module: Module,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda],
    ) -> Iterator[Finding]:
        args = node.args
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                literal = {
                    ast.List: "[]", ast.Dict: "{}", ast.Set: "{...}",
                }[type(default)]
                yield self.finding(
                    module,
                    default,
                    f"mutable default argument {literal}; defaults are "
                    f"shared across calls — use None plus an in-body "
                    f"fallback",
                )
            elif (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
                and not default.args
                and not default.keywords
            ):
                yield self.finding(
                    module,
                    default,
                    f"mutable default argument {default.func.id}(); "
                    f"defaults are shared across calls — use None plus "
                    f"an in-body fallback",
                )

    def _check_setattr(
        self, module: Module, node: ast.Call
    ) -> Iterator[Finding]:
        if _dotted(node.func) != "object.__setattr__":
            return
        functions = module.enclosing_functions(node)
        if functions and functions[0] == "__post_init__":
            return  # the canonical frozen-dataclass initialisation hook
        yield self.finding(
            module,
            node,
            "object.__setattr__ outside __post_init__ defeats frozen-"
            "dataclass immutability",
        )

    def _check_frozen_assign(
        self,
        module: Module,
        node: Union[ast.Assign, ast.AugAssign, ast.AnnAssign],
        frozen_classes: Set[ast.ClassDef],
    ) -> Iterator[Finding]:
        enclosing_class = next(
            (
                ancestor
                for ancestor in module.ancestors(node)
                if isinstance(ancestor, ast.ClassDef)
            ),
            None,
        )
        if enclosing_class not in frozen_classes:
            return
        functions = module.enclosing_functions(node)
        if not functions:
            return  # class-body field declarations
        targets: List[ast.expr] = (
            list(node.targets)
            if isinstance(node, ast.Assign)
            else [node.target]
        )
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield self.finding(
                    module,
                    node,
                    f"assignment to self.{target.attr} inside a frozen "
                    f"dataclass raises FrozenInstanceError at run time",
                )


# -- RL005: division-free HEF comparisons --------------------------------------


@register_rule
class DivisionFreeRule(Rule):
    """Scheduler benefit logic must not divide (paper Section 5)."""

    rule_id = "RL005"
    title = "division-free-hef"

    _MESSAGE = (
        "float division in scheduler benefit logic; the hardware "
        "comparator has no divider — compare benefits by "
        "cross-multiplication ((a*b)*f > (d*e)*c, Fig. 6 / Section 5)"
    )

    def check(
        self, module: Module, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, ast.Div
            ):
                yield self.finding(module, node, self._MESSAGE)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.Div
            ):
                yield self.finding(module, node, self._MESSAGE)


# -- RL006: no swallowed exceptions --------------------------------------------


@register_rule
class SwallowedExceptionRule(Rule):
    """Bare ``except:`` and silently swallowed exceptions are banned."""

    rule_id = "RL006"
    title = "no-swallowed-exceptions"

    def check(
        self, module: Module, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare 'except:' catches KeyboardInterrupt and "
                    "SystemExit too; name the exception types "
                    "(use 'except BaseException:' explicitly if the "
                    "catch-all is genuinely intended)",
                )
                continue
            if self._body_is_silent(node.body):
                caught = _dotted_exception(node.type)
                yield self.finding(
                    module,
                    node,
                    f"'except {caught}: pass' silently swallows the "
                    f"failure; handle it, re-raise, or make the "
                    f"suppression explicit with contextlib.suppress",
                )

    @staticmethod
    def _body_is_silent(body: List[ast.stmt]) -> bool:
        """Whether the handler does nothing observable at all."""
        for statement in body:
            if isinstance(statement, ast.Pass):
                continue
            if isinstance(statement, ast.Expr) and isinstance(
                statement.value, ast.Constant
            ):
                # A lone docstring/`...` is as silent as `pass`.
                continue
            return False
        return True


# -- RL007: wall-clock seams ---------------------------------------------------


@register_rule
class WallClockSeamRule(Rule):
    """Wall-clock *calls* only inside the sanctioned seam functions.

    Options: ``seams`` — function names whose bodies are the sanctioned
    wall-clock readers; every other call site must go through them (or
    through ``MetricsRegistry.timer()``, which never matches the banned
    names in the first place).
    """

    rule_id = "RL007"
    title = "wall-clock-seam"

    #: Names importable from :mod:`time` that read the wall clock.
    _TIME_FUNCS = ("time", "monotonic")

    def check(
        self, module: Module, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        seams = set(options.get("seams", []))
        time_aliases: Set[str] = set()
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and node.level == 0
            ):
                for alias in node.names:
                    if alias.name in self._TIME_FUNCS:
                        time_aliases.add(alias.asname or alias.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            label = self._wall_clock_label(node, time_aliases)
            if label is None:
                continue
            if set(module.enclosing_functions(node)) & seams:
                continue  # inside a sanctioned seam function
            yield self.finding(
                module,
                node,
                f"wall-clock call {label} outside the sanctioned seams "
                f"({sorted(seams) if seams else 'none configured'}); "
                f"route it through a seam function or "
                f"MetricsRegistry.timer() so reruns stay deterministic",
            )

    @staticmethod
    def _wall_clock_label(
        node: ast.Call, time_aliases: Set[str]
    ) -> Optional[str]:
        """A description when the call reads the wall clock, else None."""
        func = node.func
        dotted = _dotted(func)
        if dotted in ("time.time", "time.monotonic"):
            return f"{dotted}()"
        if isinstance(func, ast.Name) and func.id in time_aliases:
            return f"{func.id}() (imported from time)"
        if (
            dotted in ("datetime.now", "datetime.datetime.now")
            and not node.args
            and not node.keywords
        ):
            return f"argless {dotted}()"
        return None


def _dotted_exception(node: ast.expr) -> str:
    """Render the caught exception expression for the RL006 message."""
    if isinstance(node, ast.Tuple):
        return (
            "(" + ", ".join(_dotted_exception(e) for e in node.elts) + ")"
        )
    rendered = _dotted(node)
    return rendered if rendered else "..."
