"""Lint configuration: built-in defaults overridden by ``pyproject.toml``.

Every rule reads its options from ``[tool.repro-lint.<RULE-ID>]``.  The
common keys are

``enabled``
    ``false`` switches the rule off entirely.
``include``
    Path globs (POSIX, relative to the source root, e.g.
    ``repro/core/*``) selecting the modules the rule applies to.  A
    ``*`` crosses directory separators, so ``repro/core/*`` covers the
    whole subtree.
``allow``
    Path globs exempt from the rule — the *allowlist*.  An allowlisted
    module is skipped even when ``include`` matches it.  This is the
    sanctioned way to grant exceptions (e.g. the wall-clock sites
    ``repro/exec/runner.py`` and ``repro/obs/metrics.py`` under RL001);
    the entry is reviewable in the diff, unlike an inline pragma.

Rule-specific keys are documented on the rules themselves
(:mod:`repro.lint.rules`, :mod:`repro.lint.schema`).

Parsing uses :mod:`tomllib` (stdlib since Python 3.11).  On older
interpreters the built-in defaults apply unchanged — the defaults and
the committed ``pyproject.toml`` section are kept in sync, so the gate
behaves identically either way.
"""

from __future__ import annotations

from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.9/3.10 fallback
    tomllib = None  # type: ignore[assignment]

from ..errors import RisppError

__all__ = ["LintConfigError", "LintConfig", "path_matches"]


class LintConfigError(RisppError):
    """The ``[tool.repro-lint]`` configuration is malformed."""


#: Built-in per-rule defaults; ``pyproject.toml`` overrides key-by-key.
RULE_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "RL001": {
        "enabled": True,
        "include": ["repro/*"],
        # The only sanctioned wall-clock sites: the sweep runner's
        # per-cell timings, the supervision layer (deadlines and backoff
        # are wall-clock by nature), the chaos harness (hang injection),
        # and the (explicitly non-deterministic) metrics registry.
        "allow": [
            "repro/exec/runner.py",
            "repro/exec/supervise.py",
            "repro/exec/chaos.py",
            "repro/obs/metrics.py",
        ],
    },
    "RL002": {
        "enabled": True,
        "include": ["repro/sim/*", "repro/fabric/*", "repro/core/*"],
        "allow": [],
        # Event-factory methods: they *return* events and are only ever
        # invoked under an ``if tracer.enabled`` guard at the call site.
        "factories": ["_decision_event"],
    },
    "RL003": {
        "enabled": True,
        "include": ["repro/*"],
        "allow": [],
    },
    "RL004": {
        "enabled": True,
        "include": [],
        "allow": [],
        "events": "repro/obs/events.py",
        "export": "repro/obs/export.py",
        "replay": "repro/obs/replay.py",
        "fingerprint": "repro/obs/event_schema.json",
    },
    "RL005": {
        "enabled": True,
        # The trace replay's benefit comparisons must stay as
        # division-free as the schedulers they mirror (the hardware
        # comparator has no divider).
        "include": ["repro/core/schedulers/*", "repro/sim/vector*"],
        "allow": [],
    },
    "RL006": {
        "enabled": True,
        "include": ["repro/*"],
        "allow": [],
    },
    "RL007": {
        "enabled": True,
        # Service and supervisor code runs under virtual clocks and
        # deterministic journals: any stray wall-clock *call* breaks
        # bit-identical reruns.  (RL001 already bans the imports in most
        # of the tree; this rule covers the allowlisted harness modules
        # where ``time`` is importable but must stay behind the seams.)
        "include": ["repro/service/*", "repro/exec/supervise.py"],
        "allow": [],
        # Functions whose bodies *are* the sanctioned wall-clock seams:
        # everything else must call these (or MetricsRegistry.timer())
        # instead of the clock directly.
        "seams": ["_wall_clock"],
    },
    "RL008": {
        "enabled": True,
        # The architecture layering contract.  ``layers`` names ordered
        # path-glob groups (first match wins — keep specific entries
        # like trace/obs_protocol/schedulers above their parent
        # packages); ``imports`` declares which *other* layers each
        # layer may import (same-layer imports are always allowed,
        # ``if TYPE_CHECKING:`` imports are exempt).  The declaration
        # must be a DAG; RL008 verifies that too.
        "layers": {
            # Shared leaves: error taxonomy, paper constants, version.
            "base": [
                "repro/errors.py",
                "repro/calibration.py",
                "repro/_version.py",
                "repro/_atomic.py",
            ],
            # Workload trace *types* sit below both producers (h264)
            # and generators (workload) — that is what keeps the
            # encoder <-> workload relationship acyclic.
            "trace": ["repro/workload/trace.py", "repro/workload/io.py"],
            # The tracer protocol + event dataclasses: the only part of
            # obs the deterministic core may touch.
            "obs_protocol": ["repro/obs/tracer.py", "repro/obs/events.py"],
            "obs": ["repro/obs/*"],
            "schedulers": ["repro/core/schedulers/*"],
            # The core package root re-exports the schedulers, so it
            # sits one layer above the plain core modules.
            "core_api": ["repro/core/__init__.py"],
            # Runtime manager + vectorized scoring consume the
            # scheduler implementations, so they sit above them.
            "core_runtime": [
                "repro/core/runtime.py",
                "repro/core/scoring.py",
            ],
            "core": ["repro/core/*"],
            "fabric": ["repro/fabric/*"],
            "isa": ["repro/isa/*"],
            "h264": ["repro/h264/*"],
            "workload": ["repro/workload/*"],
            "hw": ["repro/hw/*"],
            "sim": ["repro/sim/*"],
            "exec": ["repro/exec/*"],
            "service": ["repro/service/*"],
            "analysis": ["repro/analysis/*"],
            "lint": ["repro/lint/*"],
            "pkg": ["repro/__init__.py"],
            "cli": ["repro/cli.py", "repro/__main__.py"],
        },
        "imports": {
            "base": [],
            "trace": ["base"],
            "obs_protocol": ["base"],
            "obs": ["base", "obs_protocol"],
            "core": ["base"],
            "schedulers": ["base", "core"],
            "core_runtime": ["base", "core", "schedulers"],
            "core_api": ["base", "core", "schedulers", "core_runtime"],
            "fabric": ["base", "core", "obs_protocol"],
            "isa": ["base", "core"],
            "h264": ["base", "core", "fabric", "trace"],
            "workload": ["base", "trace", "h264"],
            "hw": ["base", "core", "schedulers"],
            "sim": [
                "base", "core", "core_runtime", "schedulers", "fabric",
                "isa", "obs_protocol", "trace",
            ],
            "exec": [
                "base", "core", "schedulers", "fabric", "h264",
                "sim", "obs", "obs_protocol", "trace", "workload",
            ],
            "service": [
                "base", "core", "core_runtime", "schedulers", "fabric",
                "h264", "obs", "obs_protocol", "exec", "trace",
                "workload",
            ],
            "analysis": [
                "base", "core", "schedulers", "fabric", "h264", "hw",
                "sim", "exec", "trace", "workload",
            ],
            "lint": ["base"],
            "pkg": [
                "base", "core_api", "fabric", "isa", "h264", "hw",
                "workload", "trace", "sim", "obs", "exec",
            ],
            "cli": [
                "base", "trace", "obs_protocol", "obs", "core",
                "schedulers", "core_api", "core_runtime", "fabric",
                "isa", "h264", "workload", "hw", "sim", "exec",
                "service", "analysis", "lint", "pkg",
            ],
        },
    },
    "RL009": {
        "enabled": True,
        # Modules where taint *reaching a sink* is reported; the taint
        # itself is tracked across the whole program regardless.
        "include": ["repro/*"],
        "allow": [],
        # Call-name patterns that are determinism sinks: result
        # dataclasses, the canonical-JSON chokepoint every journal
        # line / digest / cache key goes through, and raw hashes.
        "sink_calls": [
            "SimulationResult", "Segment", "LatencyEvent",
            "canonical_json", "cell_key", "sha256", "sha1", "md5",
            "blake2b",
        ],
        # Trace-event constructions (classes resolved to an events
        # module) are sinks too: event payloads land in golden logs.
        "sink_events": True,
        # dict iteration is insertion-ordered on every supported
        # interpreter and key order is sanitized by sort_keys at the
        # canonical-JSON chokepoint, so it is not a default source.
        "taint_dict": False,
    },
    "RL010": {
        "enabled": True,
        # The integer-exact zones: scheduler benefit logic, the trace
        # replay (engine and executor), and every service module (the
        # virtual clock and the arbiter state it drives).
        "include": [
            "repro/core/schedulers/*",
            "repro/sim/engine.py",
            "repro/sim/vector.py",
            "repro/service/*",
        ],
        "allow": [],
        # Name patterns of integer-exact state: cycle counters,
        # deadline arithmetic, virtual-clock ticks.
        "sink_names": ["*cycle*", "*deadline*", "virtual_now", "*tick*"],
    },
    "RL011": {
        "enabled": True,
        "include": ["repro/*"],
        "allow": [],
        # Symbols that are deliberate public API even when nothing in
        # the repository references them yet.
        "allow_names": [],
        # Reference roots beyond src/ (relative to the repository
        # root): anything mentioned here keeps a symbol alive.
        "roots": ["tests", "benchmarks", "examples", "tools"],
    },
}


def path_matches(relpath: str, patterns: Iterable[str]) -> bool:
    """Whether a POSIX relpath matches any glob (``*`` crosses ``/``)."""
    return any(fnmatch(relpath, pattern) for pattern in patterns)


class LintConfig:
    """Effective options of every rule after applying overrides."""

    def __init__(
        self, overrides: Optional[Mapping[str, Any]] = None
    ) -> None:
        self._rules: Dict[str, Dict[str, Any]] = {
            rule_id: dict(options)
            for rule_id, options in RULE_DEFAULTS.items()
        }
        if overrides:
            self._apply(overrides)

    def _apply(self, overrides: Mapping[str, Any]) -> None:
        for rule_id, options in overrides.items():
            if rule_id not in self._rules:
                raise LintConfigError(
                    f"[tool.repro-lint] configures unknown rule "
                    f"{rule_id!r}; known: {sorted(self._rules)}"
                )
            if not isinstance(options, Mapping):
                raise LintConfigError(
                    f"[tool.repro-lint.{rule_id}] must be a table, got "
                    f"{type(options).__name__}"
                )
            known = self._rules[rule_id]
            for key, value in options.items():
                if key not in known:
                    raise LintConfigError(
                        f"[tool.repro-lint.{rule_id}] has unknown key "
                        f"{key!r}; known: {sorted(known)}"
                    )
                known[key] = value

    @classmethod
    def load(cls, pyproject: Optional[Path] = None) -> "LintConfig":
        """Config from a ``pyproject.toml`` (defaults when unreadable).

        A missing file or a missing ``[tool.repro-lint]`` table yields
        the defaults; a *malformed* table raises
        :class:`LintConfigError` (a broken gate must not silently pass).
        """
        if pyproject is None or tomllib is None:
            return cls()
        try:
            data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        except OSError:
            return cls()
        except tomllib.TOMLDecodeError as exc:
            raise LintConfigError(
                f"cannot parse {str(pyproject)!r}: {exc}"
            ) from exc
        section = data.get("tool", {}).get("repro-lint", {})
        if not isinstance(section, Mapping):
            raise LintConfigError("[tool.repro-lint] must be a table")
        return cls(section)

    def rule(self, rule_id: str) -> Dict[str, Any]:
        """The effective options of ``rule_id``."""
        return self._rules[rule_id]

    def enabled(self, rule_id: str) -> bool:
        return bool(self._rules[rule_id].get("enabled", True))

    def in_scope(self, rule_id: str, relpath: str) -> bool:
        """Whether a module is covered: included and not allowlisted."""
        options = self._rules[rule_id]
        return path_matches(
            relpath, options.get("include", [])
        ) and not path_matches(relpath, options.get("allow", []))
