"""Per-layer self time, measured from outside the program.

Each layer is a named group of public ``repro`` functions.  For the
layer-timed run, :class:`LayerClock` replaces every module or class
attribute that *is* one of those functions with a timing wrapper, so
``from x import f`` bindings elsewhere in the package are covered too.
A layer's self time is the time spent inside its functions minus the
time spent inside wrapped functions they called.  Nothing in ``src/``
is edited; :meth:`LayerClock.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: ``(layer, targets)`` in report order.  A target is
#: ``"module:attribute"`` or ``"module:Class.method"``.  README.md names
#: the end-to-end metric and workload each layer should move.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("workload.build", ("repro.exec.spec:WorkloadSpec.build",)),
    (
        "library.build",
        (
            "repro.h264.silibrary:build_si_library",
            "repro.h264.silibrary:build_atom_registry",
        ),
    ),
    ("plan", ("repro.core.runtime:RuntimeManager.plan_hot_spot",)),
    (
        "plan.select",
        (
            "repro.core.selection:select_molecules",
            "repro.core.scoring:select_molecules_fast",
        ),
    ),
    ("dispatch", ("repro.core.runtime:RuntimeManager.dispatch",)),
    ("port.advance", ("repro.fabric.reconfig:ReconfigPort.advance_to",)),
    (
        "port.queue",
        (
            "repro.fabric.reconfig:ReconfigPort.replace_queue",
            "repro.fabric.reconfig:ReconfigPort.enqueue_speculative",
            "repro.fabric.reconfig:ReconfigPort.cancel_speculative",
        ),
    ),
    (
        "sim.run",
        (
            "repro.sim:SystemSimulator.run",
            "repro.sim.software:simulate_software",
        ),
    ),
    ("obs.emit", ("repro.obs.tracer:RecordingTracer.emit",)),
    ("obs.export", ("repro.obs.export:export_events",)),
    ("sweep.run", ("repro.exec.runner:run_sweep",)),
    ("cell.execute", ("repro.exec.runner:execute_cell",)),
    ("result.serialize", ("repro.sim.results:SimulationResult.to_json_dict",)),
    ("cache.key", ("repro.exec.cache:cell_key",)),
    ("json.encode", ("repro.exec.cache:canonical_json",)),
    ("service.run", ("repro.service.arbiter:run_service",)),
    ("service.requests", ("repro.service.request:generate_requests",)),
    (
        "service.admit",
        ("repro.service.admission:AdmissionController.admit",),
    ),
    (
        "service.estimate",
        ("repro.core.runtime:RuntimeManager.plan_with_lease",),
    ),
    ("service.snapshot", ("repro.service.snapshot:write_snapshot",)),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS)


def _in_repro(module_name: str) -> bool:
    return module_name == "repro" or module_name.startswith("repro.")


def _resolve(target: str) -> Any:
    module_name, _, attr_path = target.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in attr_path.split("."):
        obj = getattr(obj, part)
    return obj


class LayerClock:
    """Self time and call count per layer, while installed."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
        self.calls: Dict[str, int] = {name: 0 for name in LAYER_NAMES}
        #: Targets that did not resolve (renamed or removed functions).
        self.missing: List[str] = []
        #: ``(owner, attribute, original)`` for every patched binding.
        self._patched: List[Tuple[Any, str, Any]] = []
        #: One open frame per active wrapped call: time spent in
        #: wrapped children so far.
        self._stack: List[List[float]] = []

    def _wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed

        return timed

    def install(self) -> int:
        """Patch every binding of every target; returns how many."""
        # Keyed by id: the targets stay referenced here, so ids are stable.
        originals: Dict[int, Tuple[str, Any]] = {}
        for layer, targets in LAYERS:
            for target in targets:
                try:
                    fn = _resolve(target)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    print(
                        f"warning: layer {layer}: {target} not found, "
                        "skipped",
                        file=sys.stderr,
                    )
                    continue
                originals[id(fn)] = (layer, fn)
        wrappers = {
            key: self._wrap(layer, fn)
            for key, (layer, fn) in originals.items()
        }
        # Every repro module, and every repro class bound in one, may
        # hold a binding of a target.
        owners: Dict[int, Any] = {}
        for name, module in list(sys.modules.items()):
            if not _in_repro(name):
                continue
            owners[id(module)] = module
            for value in list(vars(module).values()):
                if isinstance(value, type) and _in_repro(value.__module__):
                    owners[id(value)] = value
        for owner in owners.values():
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((owner, attr, value))
                    setattr(owner, attr, wrapper)
        return len(self._patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def report(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"self_s": self.self_s[name], "calls": self.calls[name]}
            for name in LAYER_NAMES
        }
