"""Calibrated statistical model of the paper's H.264 encoding workload.

The paper encodes 140 CIF frames (352x288, 396 macroblocks per frame)
with the hot-spot sequence ME -> EE -> LF per frame (Figure 1).  We do
not have the authors' input sequence, so this module synthesises the SI
execution counts from a deterministic *activity field*: a smooth
per-macroblock motion/texture intensity that varies across the frame,
drifts over time, and jumps at a scene cut — the same statistical
behaviour that makes run-time adaptation worthwhile in the first place
(the monitor must track it, and mispredictions cost performance).

Calibration targets (all from the paper):

* combined SAD+SATD executions in one frame's ME hot spot ~ 31,977
  (Figure 2 annotation),
* pure-software execution of the full 140-frame run ~ 7,403 M cycles
  (Section 5), given the trap latencies of
  :mod:`repro.h264.silibrary` and the base-processor model defaults.

The per-macroblock base counts follow the structure of the H.264 encoder
described in [25]: a sub-sampled full-pel SAD search plus SATD-based
fractional refinement in ME; 4x4 forward+inverse transforms, Hadamard
passes on the DC coefficients, quarter-pel motion compensation and DC
intra prediction in EE; and strong-edge deblocking in LF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Optional, Tuple

import numpy as np

from ..calibration import (
    CIF_HEIGHT,
    CIF_WIDTH,
    MACROBLOCK_SIZE,
    NUM_FRAMES,
)
from ..errors import TraceError
from ..h264.silibrary import HOT_SPOT_ORDER, HOT_SPOT_SIS
from .trace import HotSpotTrace, Workload

__all__ = ["H264WorkloadModel", "generate_workload"]


#: Mean SI executions per macroblock at activity 1.0.  ME totals
#: 50 + 30.75 = 80.75 per MB -> 31,977 per 396-MB frame, matching the
#: Figure 2 annotation.
_BASE_COUNTS: Dict[str, float] = {
    "SAD": 50.0,      # sub-sampled full-pel search positions
    "SATD": 30.75,    # fractional-pel refinement candidates
    "DCT": 14.0,      # 4x4 block-pair transforms, fwd+inv folded
    "HT2x2": 1.0,     # chroma DC Hadamard
    "HT4x4": 2.0,     # luma DC Hadamard (fwd + inv)
    "MC": 7.0,        # quarter-pel compensations per inter MB
    "IPredHDC": 1.0,
    "IPredVDC": 1.0,
    "LF_BS4": 10.0,   # strong edges filtered per MB
}

#: Non-SI base-processor cycles per macroblock iteration of each hot spot.
_ITERATION_OVERHEAD: Dict[str, int] = {
    "ME": 250,
    "EE": 400,
    "LF": 120,
}

#: Which SI counts scale with the motion/texture activity of a
#: macroblock.  Control-flow-bound counts (transform block counts, DC
#: predictions) stay fixed.
_ACTIVITY_SCALED: Tuple[str, ...] = ("SAD", "SATD", "MC", "LF_BS4")


@dataclass
class H264WorkloadModel:
    """Deterministic, seeded generator for paper-scale workloads.

    Parameters
    ----------
    num_frames:
        Frames to generate (the paper uses 140).
    width / height:
        Luma resolution (defaults: CIF).
    seed:
        Seed of the activity field; same seed -> identical workload.
    scene_cut_frame:
        Frame index at which the content changes abruptly (set to a
        negative value to disable).  The cut exercises the monitor's
        adaptation: expectations trained on the old content are suddenly
        wrong.
    activity_amplitude:
        Relative strength of the activity modulation (0 disables all
        variation and yields the plain base counts).
    """

    num_frames: int = NUM_FRAMES
    width: int = CIF_WIDTH
    height: int = CIF_HEIGHT
    seed: int = 2008
    scene_cut_frame: int = 70
    activity_amplitude: float = 0.35

    def __post_init__(self) -> None:
        if self.num_frames <= 0:
            raise TraceError(f"num_frames must be positive, got {self.num_frames}")
        if self.width % MACROBLOCK_SIZE or self.height % MACROBLOCK_SIZE:
            raise TraceError(
                f"resolution {self.width}x{self.height} is not a multiple of "
                f"the macroblock size {MACROBLOCK_SIZE}"
            )
        if not 0.0 <= self.activity_amplitude < 1.0:
            raise TraceError(
                "activity amplitude must be in [0, 1), got "
                f"{self.activity_amplitude}"
            )

    @property
    def mbs_per_frame(self) -> int:
        return (self.width // MACROBLOCK_SIZE) * (
            self.height // MACROBLOCK_SIZE
        )

    # -- activity field ------------------------------------------------------

    def _activity(self, rng: np.random.RandomState) -> np.ndarray:
        """Per-(frame, macroblock) activity in [1-A, 1+A], mean ~ 1.

        Built from three deterministic components: a static spatial
        texture map (objects sit somewhere in the frame), a slow temporal
        drift (the camera pans), and white noise.  A scene cut re-rolls
        the spatial map mid-sequence.
        """
        n_mb = self.mbs_per_frame
        amp = self.activity_amplitude
        spatial_a = rng.uniform(-1.0, 1.0, size=n_mb)
        spatial_b = rng.uniform(-1.0, 1.0, size=n_mb)
        noise = rng.uniform(-1.0, 1.0, size=(self.num_frames, n_mb))
        frames = np.arange(self.num_frames)[:, None]
        drift = np.sin(2.0 * np.pi * frames / 48.0)
        spatial = np.where(
            frames < self.scene_cut_frame if self.scene_cut_frame >= 0
            else np.ones_like(frames, dtype=bool),
            spatial_a[None, :],
            spatial_b[None, :],
        )
        mix = 0.5 * spatial + 0.3 * drift + 0.2 * noise
        return 1.0 + amp * mix

    # -- generation ------------------------------------------------------------

    def generate(
        self, hot_spots: Optional[Collection[str]] = None
    ) -> Workload:
        """Build the workload: one ME, EE, LF trace per frame.

        ``hot_spots`` keeps only the traces of those hot spots.  The
        random draws do not depend on it, so every kept trace is
        byte-identical to the same trace of the full workload.
        """
        rng = np.random.RandomState(self.seed)
        activity = self._activity(rng)
        n_mb = self.mbs_per_frame
        workload = Workload(
            name=(
                f"h264-model-{self.width}x{self.height}-"
                f"{self.num_frames}f-seed{self.seed}"
            )
        )
        # Intra-coded macroblocks skip motion compensation and do more
        # intra prediction; the fraction rises with activity.
        for frame in range(self.num_frames):
            act = activity[frame]
            intra = rng.uniform(size=n_mb) < np.clip(
                0.04 + 0.08 * (act - 1.0), 0.0, 0.5
            )
            for hot_spot in HOT_SPOT_ORDER:
                if hot_spots is not None and hot_spot not in hot_spots:
                    continue
                si_names = HOT_SPOT_SIS[hot_spot]
                counts = np.zeros((n_mb, len(si_names)), dtype=np.int64)
                for col, si_name in enumerate(si_names):
                    base = _BASE_COUNTS[si_name]
                    if si_name in _ACTIVITY_SCALED:
                        values = base * act
                    else:
                        values = np.full(n_mb, base)
                    if si_name == "MC":
                        values = np.where(intra, 0.0, values)
                    elif si_name in ("IPredHDC", "IPredVDC"):
                        values = np.where(intra, values * 2.0, values)
                    counts[:, col] = np.maximum(
                        0, np.rint(values).astype(np.int64)
                    )
                workload.append(
                    HotSpotTrace(
                        hot_spot=hot_spot,
                        si_names=si_names,
                        counts=counts,
                        overhead_per_iteration=_ITERATION_OVERHEAD[hot_spot],
                        frame_index=frame,
                    )
                )
        return workload

    def offline_profile(self) -> Dict[str, Dict[str, float]]:
        """Design-time execution estimates per hot spot (monitor seed).

        Intentionally *imperfect*: the profile reports the base counts
        scaled to a whole frame, without the content-dependent activity —
        this is what a designer could know before deployment.
        """
        n_mb = self.mbs_per_frame
        return {
            hot_spot: {
                si_name: _BASE_COUNTS[si_name] * n_mb
                for si_name in HOT_SPOT_SIS[hot_spot]
            }
            for hot_spot in HOT_SPOT_ORDER
        }


def generate_workload(
    num_frames: int = NUM_FRAMES,
    seed: int = 2008,
    **kwargs,
) -> Workload:
    """Convenience wrapper: build a paper-scale workload in one call."""
    model = H264WorkloadModel(num_frames=num_frames, seed=seed, **kwargs)
    return model.generate()
