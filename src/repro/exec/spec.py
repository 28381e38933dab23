"""Declarative sweep specifications.

A design-space sweep is a grid over (system, scheduler, AC count, fault
configuration, workload).  :class:`SweepSpec` describes the grid
declaratively; :meth:`SweepSpec.cells` enumerates it into concrete,
picklable :class:`SweepCell` values — the unit of work the runner
dispatches and the cache keys on.

Cells are plain frozen dataclasses over primitives on purpose: they
cross process boundaries unchanged, and their canonical-JSON encoding
(:meth:`SweepCell.to_config`) is the input of the content-addressed
cache key, so a cell's identity is exactly its configuration and nothing
else (no object ids, no insertion order, no hash randomization).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..h264.silibrary import HOT_SPOT_ORDER
from ..workload.adversarial import AdversarialWorkloadModel
from ..workload.model import H264WorkloadModel
from ..workload.trace import HotSpotTrace, Workload

__all__ = ["WorkloadSpec", "SweepCell", "SweepSpec"]


#: Systems a cell can simulate.
_SYSTEMS = ("RISPP", "Molen", "Software")


@dataclass(frozen=True)
class WorkloadSpec:
    """A reproducible workload: the H.264 model plus optional filters.

    ``hot_spots``/``max_traces`` reproduce the trace subsets the figure
    experiments use (e.g. Figure 2 replays only the first two ME
    invocations).  The same ``(frames, seed)`` pair always yields the
    same underlying traces: the h264 model generates only the kept hot
    spots, with random draws that do not depend on the filter, and the
    other filters apply after generation.

    ``generator`` selects the trace source: ``"h264"`` (default) is the
    calibrated H.264 model; ``"adversarial"`` builds a seeded
    phase-misprediction workload
    (:class:`~repro.workload.adversarial.AdversarialWorkloadModel`,
    three phases per ``frames`` unit, flip probability ``flip_rate``).
    The extra keys only enter :meth:`to_config` for non-default
    generators, so every pre-existing cell configuration — and with it
    every cache key — stays byte-identical.
    """

    frames: int = 40
    seed: int = 2008
    hot_spots: Optional[Tuple[str, ...]] = None
    max_traces: Optional[int] = None
    generator: str = "h264"
    flip_rate: float = 0.25

    def __post_init__(self) -> None:
        if self.frames <= 0:
            raise SimulationError(
                f"workload needs at least one frame, got {self.frames}"
            )
        if self.generator not in ("h264", "adversarial"):
            raise SimulationError(
                f"unknown workload generator {self.generator!r}; "
                "known: ['adversarial', 'h264']"
            )
        if not 0.0 <= self.flip_rate <= 1.0:
            raise SimulationError(
                f"flip rate must be within [0, 1], got {self.flip_rate!r}"
            )
        if self.hot_spots is not None:
            object.__setattr__(self, "hot_spots", tuple(self.hot_spots))

    def build(self) -> Workload:
        """Generate (and filter) the workload this spec describes.

        Every call returns a fresh :class:`Workload`, but equal specs
        share their traces (:func:`_generate` keeps the last few);
        trace ``counts`` are read-only, so no run can change another's.
        """
        name, traces = _generate(self)
        return Workload(name=name, traces=list(traces))

    def to_config(self) -> Dict[str, Any]:
        config: Dict[str, Any] = {
            "frames": int(self.frames),
            "seed": int(self.seed),
            "hot_spots": (
                None if self.hot_spots is None else list(self.hot_spots)
            ),
            "max_traces": (
                None if self.max_traces is None else int(self.max_traces)
            ),
        }
        if self.generator != "h264":
            # Non-default generators extend the config; the default
            # stays byte-identical to pre-generator cells (cache keys!).
            config["generator"] = self.generator
            config["flip_rate"] = float(self.flip_rate)
        return config


def _needed_hot_spots(spec: WorkloadSpec) -> Optional[Tuple[str, ...]]:
    """The h264 hot spots whose traces ``spec`` keeps.

    Each frame holds one trace per kept hot spot, in
    :data:`~repro.h264.silibrary.HOT_SPOT_ORDER`; when ``max_traces``
    ends inside frame 0, only the first ``max_traces`` of them are
    needed.  The model's draws do not depend on the hot spots, so the
    traces are the same.
    """
    if spec.max_traces is None:
        return spec.hot_spots
    kept = tuple(
        hot_spot
        for hot_spot in HOT_SPOT_ORDER
        if spec.hot_spots is None or hot_spot in spec.hot_spots
    )
    if 0 <= spec.max_traces < len(kept):
        return kept[: spec.max_traces]
    return spec.hot_spots


@functools.lru_cache(maxsize=4)
def _generate(spec: WorkloadSpec) -> Tuple[str, Tuple[HotSpotTrace, ...]]:
    """The name and traces of ``spec``'s workload, kept for the last few
    specs: a sweep builds the same workload once per cell."""
    if spec.generator == "adversarial":
        workload = AdversarialWorkloadModel(
            num_phases=spec.frames * 3,
            seed=spec.seed,
            flip_rate=spec.flip_rate,
        ).generate()
        traces = workload.traces
        if spec.hot_spots is not None:
            traces = [t for t in traces if t.hot_spot in spec.hot_spots]
    else:
        # The model builds only the kept hot spots' traces.
        workload = H264WorkloadModel(
            num_frames=spec.frames, seed=spec.seed
        ).generate(hot_spots=_needed_hot_spots(spec))
        traces = workload.traces
    name = workload.name
    if spec.hot_spots is not None:
        name += "-" + "+".join(spec.hot_spots)
    if spec.max_traces is not None:
        traces = traces[: spec.max_traces]
    return name, tuple(traces)


@dataclass(frozen=True)
class SweepCell:
    """One point of the design space: a single simulator run.

    ``system`` selects the simulator (``RISPP``, ``Molen`` or
    ``Software``); ``scheduler`` only applies to RISPP.  Fault fields
    describe the Bernoulli load-fault configuration (``fault_rate == 0``
    means the perfect fabric).
    """

    system: str
    num_acs: int
    workload: WorkloadSpec
    scheduler: Optional[str] = None
    record_segments: bool = False
    fault_rate: float = 0.0
    fault_seed: int = 2008
    max_retries: int = 3
    #: PREFETCH scheduler knobs; only consulted (and only part of the
    #: cell's config/cache identity) when ``scheduler == "PREFETCH"``.
    prefetch_confidence: float = 0.6
    prefetch_budget: int = 4

    def __post_init__(self) -> None:
        if self.system not in _SYSTEMS:
            raise SimulationError(
                f"unknown system {self.system!r}; known: {list(_SYSTEMS)}"
            )
        if self.system == "RISPP" and not self.scheduler:
            raise SimulationError("a RISPP cell needs a scheduler name")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise SimulationError(
                f"fault rate must be within [0, 1], got {self.fault_rate!r}"
            )
        if not 0.0 <= self.prefetch_confidence <= 1.0:
            raise SimulationError(
                "prefetch confidence must be within [0, 1], got "
                f"{self.prefetch_confidence!r}"
            )
        if self.prefetch_budget < 0:
            raise SimulationError(
                f"prefetch budget must be >= 0, got {self.prefetch_budget!r}"
            )

    @property
    def label(self) -> str:
        """Compact human-readable cell name for reports and progress."""
        who = self.scheduler if self.system == "RISPP" else self.system
        text = f"{who}@{self.num_acs}AC/{self.workload.frames}f"
        if self.fault_rate > 0.0:
            text += f"/fault{self.fault_rate:g}"
        return text

    def to_config(self) -> Dict[str, Any]:
        """Canonical configuration dictionary (the cache-key input).

        Only plain JSON types, fully describing the simulation this cell
        performs.  Two cells produce the same simulation result if and
        only if their configs are equal.
        """
        config: Dict[str, Any] = {
            "system": self.system,
            "scheduler": self.scheduler,
            "num_acs": int(self.num_acs),
            "workload": self.workload.to_config(),
            "record_segments": bool(self.record_segments),
            "fault_rate": float(self.fault_rate),
            "fault_seed": int(self.fault_seed),
            "max_retries": int(self.max_retries),
        }
        if self.scheduler == "PREFETCH":
            # The knobs change what PREFETCH simulates, so they must be
            # part of its identity; for every other scheduler they are
            # inert and deliberately left out (configs — and cache keys
            # — of pre-existing cells stay byte-identical).
            config["prefetch_confidence"] = float(self.prefetch_confidence)
            config["prefetch_budget"] = int(self.prefetch_budget)
        return config


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep grid.

    The grid is (``schedulers`` x ``ac_counts``) RISPP cells, plus one
    Molen baseline per AC count (``include_molen``) and one pure-software
    run (``include_software``).  All cells share the workload and fault
    configuration; richer grids are built by concatenating the cells of
    several specs.
    """

    schedulers: Tuple[str, ...] = ("HEF",)
    ac_counts: Tuple[int, ...] = (10,)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    include_molen: bool = False
    include_software: bool = False
    record_segments: bool = False
    fault_rate: float = 0.0
    fault_seed: int = 2008
    max_retries: int = 3
    #: PREFETCH knobs, applied to every PREFETCH cell of the grid (inert
    #: for the other schedulers).
    prefetch_confidence: float = 0.6
    prefetch_budget: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedulers", tuple(self.schedulers))
        object.__setattr__(self, "ac_counts", tuple(self.ac_counts))

    def cells(self) -> List[SweepCell]:
        """Enumerate the grid, deterministically ordered.

        Order is AC count outermost (matching the Figure 7 sweep loop),
        then scheduler, then the Molen baseline; the software run comes
        last.  The order is part of the engine's contract: reports list
        cells exactly as enumerated here.
        """
        cells: List[SweepCell] = []
        for num_acs in self.ac_counts:
            for scheduler in self.schedulers:
                cells.append(
                    SweepCell(
                        system="RISPP",
                        scheduler=scheduler,
                        num_acs=num_acs,
                        workload=self.workload,
                        record_segments=self.record_segments,
                        fault_rate=self.fault_rate,
                        fault_seed=self.fault_seed,
                        max_retries=self.max_retries,
                        prefetch_confidence=self.prefetch_confidence,
                        prefetch_budget=self.prefetch_budget,
                    )
                )
            if self.include_molen:
                cells.append(
                    SweepCell(
                        system="Molen",
                        num_acs=num_acs,
                        workload=self.workload,
                        record_segments=self.record_segments,
                        fault_rate=self.fault_rate,
                        fault_seed=self.fault_seed,
                        max_retries=self.max_retries,
                    )
                )
        if self.include_software:
            cells.append(
                SweepCell(
                    system="Software",
                    num_acs=0,
                    workload=self.workload,
                )
            )
        return cells

    def __len__(self) -> int:
        return len(self.cells())
