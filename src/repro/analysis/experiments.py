"""Drivers that regenerate every experiment of the paper's Section 5.

Each ``run_*`` function describes its simulations as
:class:`~repro.exec.spec.SweepCell` grids and executes them through the
sweep engine (:mod:`repro.exec`) — so every figure/table benefits from
parallel worker processes (``jobs``) and the content-addressed result
cache (``cache``): a repeated or resumed reproduction skips completed
cells entirely.  The full paper scale (140 CIF frames, AC counts 5-24,
four schedulers plus the Molen baseline) takes a few minutes cold; pass
an :class:`ExperimentScale` with fewer frames for quick runs — the
speedup *shapes* stabilise after a handful of frames.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..calibration import AC_COUNT_SWEEP, NUM_FRAMES
from ..core.molecule import Molecule
from ..core.schedulers import PAPER_SCHEDULERS, get_scheduler
from ..core.si import MoleculeImpl, SILibrary, SpecialInstruction
from ..exec.cache import ResultCache
from ..exec.runner import SweepReport, cache_from_env, default_jobs, run_sweep
from ..exec.spec import SweepCell, SweepSpec, WorkloadSpec
from ..exec.supervise import SupervisorPolicy, policy_from_env
from ..fabric.atom import AtomRegistry
from ..sim.results import SimulationResult
from ..sim.timeline import bin_executions, latency_steps
from ..workload.model import H264WorkloadModel
from ..workload.trace import Workload

__all__ = [
    "ExperimentScale",
    "Fig2Result",
    "Fig4Result",
    "Fig7Result",
    "Fig8Result",
    "PrefetchComparisonResult",
    "run_figure2",
    "run_figure4",
    "run_figure7",
    "run_figure8",
    "run_prefetch_comparison",
    "fig7_spec",
    "fig7_payload",
    "render_fig7_artifact",
    "speedup_table",
    "default_scale",
]


@dataclass(frozen=True)
class ExperimentScale:
    """How big an experiment run should be.

    ``frames`` scales the workload; ``ac_counts`` the Figure 7 sweep.
    The paper scale is ``ExperimentScale(frames=140)``.
    """

    frames: int = NUM_FRAMES
    seed: int = 2008
    ac_counts: Tuple[int, ...] = AC_COUNT_SWEEP

    def workload(self) -> Workload:
        return H264WorkloadModel(
            num_frames=self.frames, seed=self.seed
        ).generate()


def default_scale() -> ExperimentScale:
    """Scale taken from the ``REPRO_FRAMES`` environment variable.

    Defaults to a 40-frame run (speedup shapes are stable there); set
    ``REPRO_FRAMES=140`` for the full paper scale.
    """
    frames = int(os.environ.get("REPRO_FRAMES", "40"))
    return ExperimentScale(frames=frames)


def _engine_args(
    jobs: Optional[int], cache: Optional[ResultCache]
) -> Tuple[int, Optional[ResultCache], Optional[SupervisorPolicy]]:
    """Resolve runner arguments, falling back to the environment
    (``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` / ``REPRO_TIMEOUT`` /
    ``REPRO_MAX_ATTEMPTS``).  A policy from the environment routes the
    figure sweeps through the fault-tolerant supervisor, so a single
    hung cell cannot stall a whole reproduction run."""
    return (
        default_jobs() if jobs is None else max(1, int(jobs)),
        cache if cache is not None else cache_from_env(),
        policy_from_env(),
    )


# ---------------------------------------------------------------------------
# Figure 2 — gradual upgrade vs no upgrade in the ME hot spot
# ---------------------------------------------------------------------------


@dataclass
class Fig2Result:
    """SI executions per 100 K cycles, with and without gradual upgrade."""

    window: int
    bin_starts: np.ndarray
    with_upgrade: np.ndarray     #: combined SAD+SATD executions per bin
    without_upgrade: np.ndarray
    total_executions: int
    upgrade_finish_cycle: int    #: last ME atom load with upgrades
    no_upgrade_finish_cycle: int
    with_total_cycles: int
    without_total_cycles: int

    @property
    def upgrade_speedup(self) -> float:
        return self.without_total_cycles / self.with_total_cycles


def run_figure2(
    num_acs: int = 10,
    scale: Optional[ExperimentScale] = None,
    window: int = 100_000,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Fig2Result:
    """Reproduce Figure 2: the ME hot spot with vs without SI upgrades.

    The with-upgrade system is RISPP with the HEF scheduler; the
    without-upgrade system is the Molen-like baseline (software until the
    full molecule is loaded).  Both start from a cold fabric and process
    the same motion-estimation workload (the first two ME invocations).
    """
    scale = scale or ExperimentScale(frames=2)
    me_only = WorkloadSpec(
        frames=scale.frames, seed=scale.seed,
        hot_spots=("ME",), max_traces=2,
    )
    cells = [
        SweepCell(
            system="RISPP", scheduler="HEF", num_acs=num_acs,
            workload=me_only, record_segments=True,
        ),
        SweepCell(
            system="Molen", num_acs=num_acs,
            workload=me_only, record_segments=True,
        ),
    ]
    jobs, cache, policy = _engine_args(jobs, cache)
    report = run_sweep(cells, jobs=jobs, cache=cache, policy=policy)
    with_result, without_result = report.results

    end = max(with_result.total_cycles, without_result.total_cycles)
    _, with_m, names_w = bin_executions(
        with_result.segments, window=window, end_cycle=end
    )
    starts, without_m, names_wo = bin_executions(
        without_result.segments, window=window, end_cycle=end
    )
    with_series = with_m.sum(axis=0)
    without_series = without_m.sum(axis=0)
    return Fig2Result(
        window=window,
        bin_starts=starts,
        with_upgrade=with_series,
        without_upgrade=without_series,
        total_executions=sum(with_result.si_executions.values()),
        upgrade_finish_cycle=_last_upgrade_cycle(with_result),
        no_upgrade_finish_cycle=_last_upgrade_cycle(without_result),
        with_total_cycles=with_result.total_cycles,
        without_total_cycles=without_result.total_cycles,
    )


def _last_upgrade_cycle(result: SimulationResult) -> int:
    if not result.latency_events:
        return 0
    return max(e.cycle for e in result.latency_events)


# ---------------------------------------------------------------------------
# Figure 4 — schedules and molecule availability on the toy example
# ---------------------------------------------------------------------------


@dataclass
class Fig4Result:
    """Fastest available molecule after each atom load, per schedule."""

    atom_names: Tuple[str, ...]
    schedules: Dict[str, Tuple[str, ...]]          #: name -> atom sequence
    availability: Dict[str, List[str]]             #: name -> fastest per load
    latencies: Dict[str, List[int]]                #: name -> latency per load


def build_fig4_library() -> Tuple[AtomRegistry, SILibrary, MoleculeImpl]:
    """The two-atom-type toy SI of Section 4 / Figure 4.

    One SI over atoms ``A1``/``A2`` with molecules ``m1 = (0, 2)``,
    ``m2 = (2, 2)`` and the selected ``m3 = (3, 3)``, plus the discussed
    ``m4 = (1, 3)`` that is *slower* than ``m2`` despite being
    incomparable in the lattice — the candidate the cleaning step of
    equation (4) has to evaluate against the current availability.
    """
    registry = AtomRegistry.uniform(["A1", "A2"])
    space = registry.space
    molecules = [
        MoleculeImpl("SI", "m1", space.molecule({"A2": 2}), 90),
        MoleculeImpl("SI", "m2", space.molecule({"A1": 2, "A2": 2}), 55),
        MoleculeImpl("SI", "m4", space.molecule({"A1": 1, "A2": 3}), 60),
        MoleculeImpl("SI", "m3", space.molecule({"A1": 3, "A2": 3}), 30),
    ]
    si = SpecialInstruction("SI", space, software_latency=500,
                            molecules=molecules)
    library = SILibrary(space, [si])
    return registry, library, si.molecule("m3")


def run_figure4() -> Fig4Result:
    """Reproduce Figure 4: a good (HEF) vs a naive atom schedule."""
    registry, library, selected = build_fig4_library()
    space = registry.space
    si = library.get("SI")
    selection = {"SI": selected}
    expected = {"SI": 1000.0}

    hef = get_scheduler("HEF").schedule(
        selection, {"SI": si}, space.zero(), expected
    )
    # The naive schedule of Figure 4 (dashed line): all A1 first.
    naive_sequence = ["A1", "A1", "A1", "A2", "A2", "A2"]

    schedules = {
        "HEF": hef.atom_sequence(),
        "naive": tuple(naive_sequence),
    }
    availability: Dict[str, List[str]] = {}
    latencies: Dict[str, List[int]] = {}
    for name, sequence in schedules.items():
        avail = space.zero()
        fastest: List[str] = []
        lats: List[int] = []
        for atom in sequence:
            counts = list(avail.counts)
            counts[space.index(atom)] += 1
            avail = Molecule(space, counts)
            impl = si.fastest_available(avail)
            fastest.append(impl.name)
            lats.append(impl.latency)
        availability[name] = fastest
        latencies[name] = lats
    return Fig4Result(
        atom_names=space.names,
        schedules=schedules,
        availability=availability,
        latencies=latencies,
    )


# ---------------------------------------------------------------------------
# Figure 7 / Table 2 — the scheduler sweep and speedups
# ---------------------------------------------------------------------------


@dataclass
class Fig7Result:
    """Execution times (Mcycles) per scheduler over the AC sweep."""

    ac_counts: Tuple[int, ...]
    mcycles: Dict[str, List[float]]   #: scheduler name -> series
    software_mcycles: float
    frames: int
    #: Execution accounting of the underlying sweep (per-cell wall
    #: times and cache hits), when the run came through the engine.
    report: Optional[SweepReport] = None

    def series(self, name: str) -> List[float]:
        return self.mcycles[name]


def fig7_spec(
    scale: Optional[ExperimentScale] = None,
    schedulers: Sequence[str] = PAPER_SCHEDULERS,
    include_molen: bool = True,
) -> SweepSpec:
    """The declarative grid behind Figure 7 / Table 2."""
    scale = scale or default_scale()
    return SweepSpec(
        schedulers=tuple(schedulers),
        ac_counts=tuple(scale.ac_counts),
        workload=WorkloadSpec(frames=scale.frames, seed=scale.seed),
        include_molen=include_molen,
        include_software=True,
    )


def run_figure7(
    scale: Optional[ExperimentScale] = None,
    schedulers: Sequence[str] = PAPER_SCHEDULERS,
    include_molen: bool = True,
    progress: bool = False,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Fig7Result:
    """Reproduce Figure 7 (and the data underlying Table 2).

    Runs every scheduler (plus the Molen baseline) at every AC count of
    the sweep on the same workload, fanned out over ``jobs`` worker
    processes and served from ``cache`` where possible (both default to
    the ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` environment).
    """
    scale = scale or default_scale()
    spec = fig7_spec(scale, schedulers, include_molen)
    callback = None
    if progress:  # pragma: no cover - cosmetic
        def callback(outcome):
            origin = "cache" if outcome.cache_hit else (
                f"{outcome.wall_time:.2f}s"
            )
            print(f"  {outcome.label}: "
                  f"{outcome.result.total_mcycles:,.1f} Mcycles ({origin})")
    jobs, cache, policy = _engine_args(jobs, cache)
    report = run_sweep(
        spec, jobs=jobs, cache=cache, progress=callback, policy=policy
    )
    mcycles: Dict[str, List[float]] = {name: [] for name in schedulers}
    if include_molen:
        mcycles["Molen"] = []
    software_mcycles = 0.0
    for outcome in report:
        cell, result = outcome.cell, outcome.result
        if cell.system == "Software":
            software_mcycles = result.total_mcycles
        elif cell.system == "Molen":
            mcycles["Molen"].append(result.total_mcycles)
        else:
            mcycles[cell.scheduler].append(result.total_mcycles)
    return Fig7Result(
        ac_counts=tuple(scale.ac_counts),
        mcycles=mcycles,
        software_mcycles=software_mcycles,
        frames=scale.frames,
        report=report,
    )


def speedup_table(result: Fig7Result) -> Dict[str, List[float]]:
    """Table 2 from a Figure 7 sweep: the three speedup rows."""
    hef = result.mcycles["HEF"]
    asf = result.mcycles["ASF"]
    molen = result.mcycles["Molen"]
    return {
        "HEF vs ASF": [a / h for a, h in zip(asf, hef)],
        "ASF vs Molen": [m / a for m, a in zip(molen, asf)],
        "HEF vs Molen": [m / h for m, h in zip(molen, hef)],
    }


def fig7_payload(result: Fig7Result) -> Dict[str, object]:
    """``artifacts/full_sweep_results.json`` as a plain dict.

    Key order and value types are pinned: serialising this dict with
    :func:`render_fig7_artifact` regenerates the committed artifact
    byte-for-byte; the golden tests rely on it.
    """
    return {
        "ac_counts": list(result.ac_counts),
        "mcycles": {n: list(s) for n, s in result.mcycles.items()},
        "software": result.software_mcycles,
        "speedups": speedup_table(result),
    }


def render_fig7_artifact(result: Fig7Result) -> str:
    """The exact serialisation of ``artifacts/full_sweep_results.json``."""
    return json.dumps(fig7_payload(result), indent=1)


# ---------------------------------------------------------------------------
# Prefetch — overhead hidden by cross-hot-spot speculation vs plain HEF
# ---------------------------------------------------------------------------


@dataclass
class PrefetchComparisonResult:
    """PREFETCH vs HEF over an AC sweep (the Figure 7 axis).

    Per AC count the comparison reports the cycles the speculation hid
    (``hef_total - prefetch_total``) and, as the headline fraction, how
    much of HEF's *reconfiguration overhead* (its committed bus
    occupancy) that hiding amounts to.  The per-run never-worse
    invariant — PREFETCH is at most ``prefetch_wasted_bus_cycles``
    slower than HEF — is checked for every cell pair and surfaced as
    ``never_worse``.
    """

    ac_counts: Tuple[int, ...]
    workload_generator: str
    flip_rate: float
    confidence: float
    budget: int
    frames: int
    hef_mcycles: List[float]
    prefetch_mcycles: List[float]
    #: Per AC count: ``hef_total_cycles - prefetch_total_cycles``
    #: (negative means PREFETCH lost cycles — bounded by the wasted-bus
    #: account, never more).
    hidden_cycles: List[int]
    #: ``hidden_cycles`` over HEF's committed bus occupancy — the share
    #: of the reconfiguration overhead the speculation hid.
    hidden_fraction: List[float]
    issued: List[int]
    hits: List[int]
    wasted: List[int]
    wasted_bus_cycles: List[int]
    never_worse: bool
    report: Optional[SweepReport] = None

    def summary(self) -> str:
        """Per-AC-count one-liners plus the invariant verdict."""
        lines = [
            f"PREFETCH vs HEF ({self.workload_generator} workload, "
            f"{self.frames} frames, confidence {self.confidence:g}, "
            f"budget {self.budget})",
            f"{'ACs':>4s} {'HEF Mcyc':>10s} {'PF Mcyc':>10s} "
            f"{'hidden':>10s} {'of bus':>7s} {'issued':>7s} {'hits':>5s} "
            f"{'wasted':>7s}",
        ]
        for i, num_acs in enumerate(self.ac_counts):
            lines.append(
                f"{num_acs:>4d} {self.hef_mcycles[i]:>10.2f} "
                f"{self.prefetch_mcycles[i]:>10.2f} "
                f"{self.hidden_cycles[i]:>10d} "
                f"{self.hidden_fraction[i]:>7.1%} "
                f"{self.issued[i]:>7d} {self.hits[i]:>5d} "
                f"{self.wasted[i]:>7d}"
            )
        lines.append(
            "never-worse invariant: "
            + ("holds for every AC count" if self.never_worse else
               "VIOLATED")
        )
        return "\n".join(lines)


def run_prefetch_comparison(
    ac_counts: Sequence[int] = (4, 6, 10, 16),
    scale: Optional[ExperimentScale] = None,
    confidence: float = 0.6,
    budget: int = 4,
    workload_generator: str = "h264",
    flip_rate: float = 0.25,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> PrefetchComparisonResult:
    """PREFETCH vs HEF: how much reconfiguration overhead speculation hides.

    Runs both schedulers at every AC count on the same workload (the
    calibrated H.264 model, or the adversarial misprediction generator
    with ``workload_generator="adversarial"``) and reports the hidden
    cycles per AC count, as an absolute count and as a fraction of HEF's
    committed reconfiguration-bus occupancy.  Where the selection
    saturates the fabric, speculative loads find no evictable victim and
    settle as zero-cost drops — the hidden fraction is then exactly 0
    and PREFETCH is field-identical to HEF.
    """
    scale = scale or default_scale()
    workload = WorkloadSpec(
        frames=scale.frames,
        seed=scale.seed,
        generator=workload_generator,
        flip_rate=flip_rate,
    )
    cells: List[SweepCell] = []
    for num_acs in ac_counts:
        for scheduler in ("HEF", "PREFETCH"):
            cells.append(
                SweepCell(
                    system="RISPP",
                    scheduler=scheduler,
                    num_acs=num_acs,
                    workload=workload,
                    prefetch_confidence=confidence,
                    prefetch_budget=budget,
                )
            )
    jobs, cache, policy = _engine_args(jobs, cache)
    report = run_sweep(cells, jobs=jobs, cache=cache, policy=policy)
    hef_mcycles: List[float] = []
    prefetch_mcycles: List[float] = []
    hidden_cycles: List[int] = []
    hidden_fraction: List[float] = []
    issued: List[int] = []
    hits: List[int] = []
    wasted: List[int] = []
    wasted_bus: List[int] = []
    never_worse = True
    for i in range(0, len(report.outcomes), 2):
        hef = report.outcomes[i].result
        prefetch = report.outcomes[i + 1].result
        hidden = hef.total_cycles - prefetch.total_cycles
        hef_mcycles.append(hef.total_mcycles)
        prefetch_mcycles.append(prefetch.total_mcycles)
        hidden_cycles.append(hidden)
        hidden_fraction.append(
            hidden / hef.bus_busy_cycles if hef.bus_busy_cycles else 0.0
        )
        issued.append(prefetch.prefetch_issued)
        hits.append(prefetch.prefetch_hits)
        wasted.append(prefetch.prefetch_wasted)
        wasted_bus.append(prefetch.prefetch_wasted_bus_cycles)
        if (
            prefetch.total_cycles
            > hef.total_cycles + prefetch.prefetch_wasted_bus_cycles
        ):
            never_worse = False
    return PrefetchComparisonResult(
        ac_counts=tuple(ac_counts),
        workload_generator=workload_generator,
        flip_rate=flip_rate,
        confidence=confidence,
        budget=budget,
        frames=scale.frames,
        hef_mcycles=hef_mcycles,
        prefetch_mcycles=prefetch_mcycles,
        hidden_cycles=hidden_cycles,
        hidden_fraction=hidden_fraction,
        issued=issued,
        hits=hits,
        wasted=wasted,
        wasted_bus_cycles=wasted_bus,
        never_worse=never_worse,
        report=report,
    )


# ---------------------------------------------------------------------------
# Figure 8 — detailed HEF behaviour over the first two hot spots
# ---------------------------------------------------------------------------


@dataclass
class Fig8Result:
    """Latency steps and execution bins for SAD/SATD/MC/DCT at 10 ACs."""

    window: int
    bin_starts: np.ndarray
    executions: Dict[str, np.ndarray]
    latency_series: Dict[str, Tuple[np.ndarray, np.ndarray]]
    span: Tuple[int, int]    #: cycle range covering ME + EE of the frame


def run_figure8(
    num_acs: int = 10,
    frame_index: int = 1,
    scale: Optional[ExperimentScale] = None,
    window: int = 100_000,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Fig8Result:
    """Reproduce Figure 8: HEF detail for ME and EE of one frame."""
    scale = scale or ExperimentScale(frames=max(2, frame_index + 1))
    cell = SweepCell(
        system="RISPP", scheduler="HEF", num_acs=num_acs,
        workload=WorkloadSpec(frames=scale.frames, seed=scale.seed),
        record_segments=True,
    )
    jobs, cache, policy = _engine_args(jobs, cache)
    report = run_sweep([cell], jobs=jobs, cache=cache, policy=policy)
    result = report.results[0]
    spans = [
        s
        for s in result.segments
        if s.frame_index == frame_index and s.hot_spot in ("ME", "EE")
    ]
    t0 = min(s.t0 for s in spans)
    t1 = max(s.t1 for s in spans)
    si_names = ("SAD", "SATD", "MC", "DCT")
    starts, matrix, names = bin_executions(
        spans, window=window, si_names=si_names, end_cycle=t1
    )
    first_bin = int(t0 // window)
    executions = {
        name: matrix[names.index(name)][first_bin:] for name in si_names
    }
    latency_series = {}
    for name in si_names:
        cycles, lats = latency_steps(
            result.latency_events, name, end_cycle=t1
        )
        mask = (cycles >= t0 - window) & (cycles <= t1)
        latency_series[name] = (cycles[mask] - t0, lats[mask])
    return Fig8Result(
        window=window,
        bin_starts=starts[first_bin:] - first_bin * window,
        executions=executions,
        latency_series=latency_series,
        span=(t0, t1),
    )
