"""Adversarial phase-misprediction workloads for the PREFETCH scheduler.

The H.264 model (:mod:`repro.workload.model`) executes the strictly
periodic hot-spot sequence ME -> EE -> LF, which a transition predictor
learns after one frame — ideal for demonstrating prefetch, useless for
stressing it.  This module generates *misprediction traces*: a dominant
ME -> EE -> LF cycle that, with a seeded per-phase ``flip_rate``
probability, jumps to a random **other** hot spot instead, so the
predictor's best guess is wrong on a controlled fraction of switches.
On top of the phase-order noise the SI mix shifts in regimes — every
``shift_period`` phases each SI's execution intensity is re-rolled — so
even a correctly predicted phase may want a different molecule selection
than the one speculated on (within-hot-spot adversity, not just
across-hot-spot).

Everything is driven by one :class:`numpy.random.RandomState` seed: the
same ``(num_phases, seed, flip_rate, ...)`` tuple always produces the
same workload bit-for-bit, which is what lets the differential and
property tests replay misprediction schedules exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TraceError
from ..h264.silibrary import HOT_SPOT_ORDER, HOT_SPOT_SIS
from .model import _BASE_COUNTS, _ITERATION_OVERHEAD, _seeded_rng
from .trace import HotSpotTrace, Workload

__all__ = ["AdversarialWorkloadModel", "generate_adversarial_workload"]


@dataclass
class AdversarialWorkloadModel:
    """Seeded generator of phase-misprediction workloads.

    Parameters
    ----------
    num_phases:
        Hot-spot invocations to generate (three per nominal frame).
    seed:
        Drives the flip schedule and the SI-mix regimes; same seed,
        same workload.
    flip_rate:
        Per-phase probability that the next hot spot is *not* the
        cyclic successor but a uniformly random other one.  ``0.0``
        reproduces the clean ME -> EE -> LF cycle (fully predictable);
        ``2/3`` makes the successor uniformly random (the predictor can
        do no better than chance).
    mbs_per_phase:
        Iterations (macroblocks) per hot-spot invocation.  The default
        is one full CIF frame (396) — long enough for the normal load
        queue to drain and the reconfiguration bus to go idle inside a
        phase, so speculative loads actually reach the bus.
    shift_period:
        Phases between SI-mix regime re-rolls (``0`` disables shifts).
    shift_amplitude:
        Relative strength of the regime scaling in ``[0, 1)``: each
        regime multiplies every SI's base count by a factor drawn from
        ``[1 - A, 1 + A]``.
    """

    num_phases: int = 60
    seed: int = 2008
    flip_rate: float = 0.25
    mbs_per_phase: int = 396
    shift_period: int = 12
    shift_amplitude: float = 0.5

    def __post_init__(self) -> None:
        if self.num_phases <= 0:
            raise TraceError(
                f"num_phases must be positive, got {self.num_phases}"
            )
        if not 0.0 <= self.flip_rate <= 1.0:
            raise TraceError(
                f"flip_rate must be in [0, 1], got {self.flip_rate}"
            )
        if self.mbs_per_phase <= 0:
            raise TraceError(
                f"mbs_per_phase must be positive, got {self.mbs_per_phase}"
            )
        if self.shift_period < 0:
            raise TraceError(
                f"shift_period must be >= 0, got {self.shift_period}"
            )
        if not 0.0 <= self.shift_amplitude < 1.0:
            raise TraceError(
                "shift_amplitude must be in [0, 1), got "
                f"{self.shift_amplitude}"
            )

    def hot_spot_sequence(self) -> list:
        """The phase order alone (exposed for test assertions)."""
        rng = _seeded_rng(self.seed)
        return self._sequence(rng)

    def _sequence(self, rng: np.random.RandomState) -> list:
        order = list(HOT_SPOT_ORDER)
        sequence = [order[0]]
        for _ in range(self.num_phases - 1):
            current = sequence[-1]
            successor = order[(order.index(current) + 1) % len(order)]
            if rng.uniform() < self.flip_rate:
                others = [h for h in order if h != successor]
                successor = others[rng.randint(len(others))]
            sequence.append(successor)
        return sequence

    def generate(self) -> Workload:
        """Build the workload (one trace per phase)."""
        rng = _seeded_rng(self.seed)
        sequence = self._sequence(rng)
        workload = Workload(
            name=(
                f"adversarial-{self.num_phases}p-seed{self.seed}"
                f"-flip{self.flip_rate:g}"
            )
        )
        n_mb = self.mbs_per_phase
        # One multiplicative regime factor per SI, re-rolled every
        # shift_period phases (SI-mix shifts across *and* within hot
        # spots: the same hot spot wants different molecules in
        # different regimes).
        si_names_all = sorted(
            {si for sis in HOT_SPOT_SIS.values() for si in sis}
        )
        factors = {si: 1.0 for si in si_names_all}
        for phase, hot_spot in enumerate(sequence):
            if self.shift_period and phase % self.shift_period == 0:
                amp = self.shift_amplitude
                for si in si_names_all:
                    factors[si] = 1.0 + amp * rng.uniform(-1.0, 1.0)
            si_names = HOT_SPOT_SIS[hot_spot]
            counts = np.zeros((n_mb, len(si_names)), dtype=np.int64)
            for col, si_name in enumerate(si_names):
                value = _BASE_COUNTS[si_name] * factors[si_name]
                counts[:, col] = max(0, int(round(value)))
            workload.append(
                HotSpotTrace(
                    hot_spot=hot_spot,
                    si_names=si_names,
                    counts=counts,
                    overhead_per_iteration=_ITERATION_OVERHEAD[hot_spot],
                    frame_index=phase // len(HOT_SPOT_ORDER),
                )
            )
        return workload


def generate_adversarial_workload(
    num_phases: int = 60,
    seed: int = 2008,
    flip_rate: float = 0.25,
    **kwargs,
) -> Workload:
    """Convenience wrapper: build a misprediction workload in one call."""
    model = AdversarialWorkloadModel(
        num_phases=num_phases, seed=seed, flip_rate=flip_rate, **kwargs
    )
    return model.generate()
