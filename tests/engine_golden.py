"""The pinned engine results: field-level digests of ``SimulationResult``s.

``tests/data/golden_engine_results.json`` holds, per scenario, one short
SHA-256 digest per field of :meth:`SimulationResult.to_json_dict`, plus
whole-output digests of a small Figure 7 artifact and a ``repro sweep``
run under ``"artifacts"``.  The file was written by the reference
per-span trace-replay loop while it still existed, so a match proves
the one remaining engine reproduces that loop's accounting field for
field: the evidence the old two-engine differential tests gave, kept as
committed bytes.

The scenarios live here, so the tests and the writer run the very same
simulations.  ``python -m tests.engine_golden`` rewrites the file from
the current engine; do that only for a deliberate semantic change (and
bump the cache salt with it), never to make a failing check pass.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import re
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core.schedulers import available_schedulers, get_scheduler
from repro.core.schedulers.prefetch import PrefetchScheduler
from repro.exec.runner import execute_cell
from repro.exec.spec import SweepSpec, WorkloadSpec
from repro.fabric.faults import BernoulliLoadFaults, RetryPolicy
from repro.h264.silibrary import h264_platform
from repro.sim.molen import MolenSimulator
from repro.sim.results import SimulationResult
from repro.sim.rispp import RisppSimulator
from repro.workload import generate_adversarial_workload
from repro.workload.model import generate_workload
from repro.workload.trace import HotSpotTrace, Workload

GOLDEN = Path(__file__).parent / "data" / "golden_engine_results.json"

#: Frames of the differential grid's workload (seed 2008).
FRAMES = 3

#: (fault_rate, fault_seed, max_retries): a clean fabric and a noisy one
#: whose retries/abandons exercise the degraded-accounting paths.
FAULT_CONFIGS = {"clean": (0.0, 2008, 3), "faulty": (0.12, 7, 2)}

AC_COUNTS = (4, 10)


def digest(data: Any) -> str:
    """Short SHA-256 of a value's canonical JSON."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def field_digests(result: SimulationResult) -> Dict[str, str]:
    return {
        name: digest(value) for name, value in result.to_json_dict().items()
    }


@functools.lru_cache(maxsize=None)
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def assert_matches_golden(case: str, result: SimulationResult) -> None:
    """Field-by-field equality with the pinned reference result."""
    pinned = golden()["results"][case]
    actual = field_digests(result)
    moved = sorted(
        name for name in pinned.keys() | actual.keys()
        if pinned.get(name) != actual.get(name)
    )
    assert not moved, (
        f"{case}: field(s) {moved} differ from the pinned reference "
        f"result in {GOLDEN.name}"
    )


def assert_artifact_matches_golden(name: str, data: Any) -> None:
    assert digest(data) == golden()["artifacts"][name], (
        f"{name}: differs from the pinned reference bytes in {GOLDEN.name}"
    )


# -- the differential grid -----------------------------------------------


@functools.lru_cache(maxsize=None)
def grid_workload() -> Workload:
    return generate_workload(num_frames=FRAMES, seed=2008)


def _faults(config: str):
    rate, seed, max_retries = FAULT_CONFIGS[config]
    fault_model = BernoulliLoadFaults(rate, seed=seed) if rate else None
    return fault_model, RetryPolicy(max_retries=max_retries)


def rispp_case(
    scheduler: str, acs: int, config: str, segments: bool
) -> Tuple[str, SimulationResult]:
    registry, library = h264_platform()
    fault_model, retry_policy = _faults(config)
    result = RisppSimulator(
        library,
        registry,
        get_scheduler(scheduler),
        acs,
        record_segments=segments,
        fault_model=fault_model,
        retry_policy=retry_policy,
    ).run(grid_workload())
    shape = "seg" if segments else "noseg"
    return f"RISPP/{scheduler}@{acs}/{config}/{shape}", result


def molen_case(acs: int, config: str) -> Tuple[str, SimulationResult]:
    registry, library = h264_platform()
    fault_model, retry_policy = _faults(config)
    result = MolenSimulator(
        library,
        registry,
        acs,
        record_segments=True,
        fault_model=fault_model,
        retry_policy=retry_policy,
    ).run(grid_workload())
    return f"Molen@{acs}/{config}", result


def sweep_cells():
    """A cell grid with every system, run through ``execute_cell``."""
    return SweepSpec(
        schedulers=("HEF", "SJF"),
        ac_counts=AC_COUNTS,
        workload=WorkloadSpec(frames=FRAMES, seed=2008),
        include_molen=True,
        include_software=True,
    ).cells()


def cell_case(cell) -> Tuple[str, SimulationResult]:
    return f"cell/{cell.label}", execute_cell(cell)


# -- the PREFETCH family -------------------------------------------------

#: Scheduler configurations of the PREFETCH family.
PREFETCH_KNOBS = {
    "PREFETCH": {"confidence": 0.3, "budget": 4},
    "conf0": {"confidence": 0.0},
    "budget0": {"confidence": 0.6, "budget": 0},
}

#: Workloads of the PREFETCH family: the periodic h264 model and the
#: adversarial misprediction family.
PREFETCH_WORKLOADS = {
    "h264-3f": lambda: generate_workload(num_frames=3, seed=11),
    "h264-4f": lambda: generate_workload(num_frames=4, seed=11),
    "adv-flip0.25": lambda: generate_adversarial_workload(
        num_phases=18, seed=2008, flip_rate=0.25
    ),
    "adv-flip0.5": lambda: generate_adversarial_workload(
        num_phases=18, seed=2008, flip_rate=0.5
    ),
    "adv-seed5": lambda: generate_adversarial_workload(
        num_phases=12, seed=5, flip_rate=0.25
    ),
}


def prefetch_case(
    scheduler: str, workload: str, num_acs: int, fault_rate: float = 0.0
) -> Tuple[str, SimulationResult]:
    """HEF (``scheduler="HEF"``) or a :data:`PREFETCH_KNOBS` entry."""
    registry, library = h264_platform()
    kwargs: Dict[str, Any] = {}
    if fault_rate:
        kwargs["fault_model"] = BernoulliLoadFaults(fault_rate, seed=77)
        kwargs["retry_policy"] = RetryPolicy(
            max_retries=2, backoff_cycles=200
        )
    strategy = (
        get_scheduler("HEF")
        if scheduler == "HEF"
        else PrefetchScheduler(**PREFETCH_KNOBS[scheduler])
    )
    result = RisppSimulator(
        library, registry, strategy, num_acs, **kwargs
    ).run(PREFETCH_WORKLOADS[workload]())
    case = f"prefetch/{scheduler}/{workload}@{num_acs}"
    if fault_rate:
        case += f"/fault{fault_rate:g}"
    return case, result


def _prefetch_grid() -> Iterator[Tuple[str, str, int, float]]:
    for acs in AC_COUNTS:
        for rate in (0.0, 0.05):
            for scheduler in ("HEF", "conf0", "budget0"):
                yield scheduler, "h264-3f", acs, rate
    for acs in (4, 6, 10, 16):
        for scheduler in ("HEF", "PREFETCH"):
            yield scheduler, "h264-3f", acs, 0.0
    for scheduler in ("HEF", "PREFETCH"):
        yield scheduler, "adv-flip0.25", 16, 0.0
        yield scheduler, "adv-flip0.5", 16, 0.0
        yield scheduler, "adv-seed5", 16, 0.05
    yield "PREFETCH", "h264-4f", 16, 0.0


# -- span-straddle scenarios ---------------------------------------------


def straddle_workload(name: str) -> Workload:
    """``"straddle"``: one huge iteration every load completion lands
    inside.  ``"evict"``: alternating hot spots on a tight fabric that
    force evictions in the middle of spans."""
    library = h264_platform()[1]
    workload = Workload(name=name)
    if name == "straddle":
        si_names = tuple(library.si_names[:3])
        workload.append(
            HotSpotTrace(
                hot_spot="ME",
                si_names=si_names,
                counts=np.full((1, len(si_names)), 400, dtype=np.int64),
                overhead_per_iteration=10,
                frame_index=0,
            )
        )
        return workload
    me = tuple(library.si_names[:2])
    ee = ("DCT", "HT4x4", "MC")
    for rep in range(3):
        for hot_spot, si_names in (("ME", me), ("EE", ee)):
            workload.append(
                HotSpotTrace(
                    hot_spot=hot_spot,
                    si_names=si_names,
                    counts=np.full((4, len(si_names)), 40, dtype=np.int64),
                    overhead_per_iteration=5,
                    frame_index=rep,
                )
            )
    return workload


#: ``(AC count, faulty)`` of each straddle scenario.
STRADDLE_SETUPS = {"straddle": (6, False), "evict": (4, True)}


def straddle_sim(name: str, tracer=None) -> RisppSimulator:
    registry, library = h264_platform()
    acs, faulty = STRADDLE_SETUPS[name]
    return RisppSimulator(
        library,
        registry,
        get_scheduler("HEF"),
        acs,
        record_segments=True,
        fault_model=BernoulliLoadFaults(0.15, seed=11) if faulty else None,
        retry_policy=RetryPolicy(max_retries=3) if faulty else None,
        tracer=tracer,
    )


# -- whole outputs -------------------------------------------------------

_WALL_RE = re.compile(r"\s+\d+\.\d+m?s\b")


def fig7_artifact() -> str:
    """A reduced-scale Figure 7 artifact, as the CLI serialises it."""
    from repro.analysis.experiments import (
        ExperimentScale,
        render_fig7_artifact,
        run_figure7,
    )

    scale = ExperimentScale(frames=4, ac_counts=(5, 8, 12))
    return render_fig7_artifact(run_figure7(scale, jobs=1))


def cli_sweep_stdout(extra: Optional[list] = None) -> str:
    """``repro sweep`` output with the wall-clock column masked."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "sweep", "--scheduler", "HEF", "--frames", "2",
            "--ac-list", "6,10", "--jobs", "1", "--no-cache",
            *(extra or []),
        ])
    assert code == 0
    return _WALL_RE.sub(" <wall>", out.getvalue())


# -- writer --------------------------------------------------------------


def _cases() -> Iterator[Tuple[str, SimulationResult]]:
    for scheduler in available_schedulers():
        for acs in AC_COUNTS:
            for config in FAULT_CONFIGS:
                yield rispp_case(scheduler, acs, config, True)
    for config in FAULT_CONFIGS:
        yield rispp_case("HEF", 10, config, False)
    for acs in AC_COUNTS:
        for config in FAULT_CONFIGS:
            yield molen_case(acs, config)
    for cell in sweep_cells():
        yield cell_case(cell)
    for setup in _prefetch_grid():
        yield prefetch_case(*setup)
    for name in STRADDLE_SETUPS:
        yield f"straddle/{name}", straddle_sim(name).run(
            straddle_workload(name)
        )


def write() -> None:  # pragma: no cover - regeneration entry point
    payload = {
        "comment": (
            "Field-level SHA-256[:16] digests of SimulationResult."
            "to_json_dict(), written by the reference per-span "
            "trace-replay loop; see tests/engine_golden.py."
        ),
        "results": {case: field_digests(r) for case, r in _cases()},
        "artifacts": {
            "fig7/4f/5,8,12": digest(fig7_artifact()),
            "cli-sweep/HEF/2f/6,10": digest(cli_sweep_stdout()),
        },
    }
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":  # pragma: no cover
    write()
