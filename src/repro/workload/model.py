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

import functools
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

#: What an intra-coded macroblock multiplies an SI's count by: it skips
#: motion compensation and does twice the DC intra prediction.
_INTRA_FACTOR: Dict[str, float] = {"MC": 0.0, "IPredHDC": 2.0, "IPredVDC": 2.0}


def _counts(
    si_names: Tuple[str, ...],
    activity: np.ndarray,
    intra: Optional[np.ndarray],
) -> np.ndarray:
    """The (frames, macroblocks, SIs) count block of one hot spot.

    Column by column: each SI's base count, scaled by the activity if
    it scales, and multiplied by its intra factor on intra-coded
    macroblocks (``intra`` is drawn whenever a kept SI has such a
    factor); then all columns are rounded at once.  The activity is
    positive and no base count or factor is negative, so no count is.
    """
    values = np.empty(activity.shape + (len(si_names),))
    for col, si_name in enumerate(si_names):
        column = values[..., col]
        base = _BASE_COUNTS[si_name]
        if si_name in _ACTIVITY_SCALED:
            np.multiply(activity, base, out=column)
        else:
            column[...] = base
        factor = _INTRA_FACTOR.get(si_name)
        if factor is not None:
            np.multiply(column, factor, out=column, where=intra)
    np.rint(values, out=values)
    return values.astype(np.int64)


@functools.lru_cache(maxsize=16)
def _drift(num_frames: int) -> np.ndarray:
    """The activity's temporal drift term, ``0.3 * sin(2π f / 48)`` per
    frame ``f``, as a read-only ``(frames, 1)`` column."""
    frames = np.arange(num_frames)[:, None]
    drift = 0.3 * np.sin(2.0 * np.pi * frames / 48.0)
    drift.flags.writeable = False
    return drift


#: The one generator every workload model of the process draws from,
#: made on first use: importing ``numpy.random`` costs a process that
#: never generates a workload about 15 ms.
_RNG: Optional[np.random.RandomState] = None


def _seeded_rng(seed: int) -> np.random.RandomState:
    """The process's workload generator, reseeded to ``seed``.

    Building a ``RandomState`` costs about 155 µs; reseeding one costs
    about 3 µs and yields the identical stream.  Sharing one instance is
    safe because every caller draws all it needs before it returns and
    calls out to nothing that draws in between, and because the package
    plans on one thread per process.
    """
    global _RNG
    if _RNG is None:
        _RNG = np.random.RandomState(seed)
    else:
        _RNG.seed(seed)
    return _RNG


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
        num_frames = self.num_frames
        # Both spatial maps, then the noise, in stream order.
        draws = rng.uniform(-1.0, 1.0, size=(num_frames + 2, n_mb))
        spatial_a, spatial_b, noise = draws[0], draws[1], draws[2:]
        cut = self.scene_cut_frame
        if cut < 0 or cut >= num_frames:
            spatial = spatial_a
        elif cut == 0:
            spatial = spatial_b
        else:
            frames = np.arange(num_frames)[:, None]
            spatial = np.where(frames < cut, spatial_a, spatial_b)
        # 1 + A * (0.5 * spatial + drift + 0.2 * noise), in place.
        mix = 0.5 * spatial + _drift(num_frames)
        noise *= 0.2
        mix += noise
        mix *= self.activity_amplitude
        mix += 1.0
        return mix

    # -- generation ------------------------------------------------------------

    def generate(
        self, hot_spots: Optional[Collection[str]] = None
    ) -> Workload:
        """Build the workload: one ME, EE, LF trace per frame.

        ``hot_spots`` keeps only the traces of those hot spots.  The
        random draws do not depend on it, so every kept trace is
        byte-identical to the same trace of the full workload.
        """
        kept = (
            HOT_SPOT_ORDER
            if hot_spots is None
            else tuple(hs for hs in HOT_SPOT_ORDER if hs in hot_spots)
        )
        rng = _seeded_rng(self.seed)
        activity = self._activity(rng)
        intra = None
        if any(si in _INTRA_FACTOR for hs in kept for si in HOT_SPOT_SIS[hs]):
            # Intra-coded macroblocks skip motion compensation and do
            # more intra prediction; the fraction rises with activity.
            # One draw of shape (frames, macroblocks) reads the same
            # stream as one draw per frame.  It is the last draw, so a
            # build that keeps no intra-dependent SI skips it.
            intra = rng.uniform(size=activity.shape) < np.clip(
                0.04 + 0.08 * (activity - 1.0), 0.0, 0.5
            )
        # One (frames, macroblocks, SIs) block per kept hot spot; each
        # count depends on its own SI only.
        blocks = [_counts(HOT_SPOT_SIS[hs], activity, intra) for hs in kept]
        workload = Workload(
            name=(
                f"h264-model-{self.width}x{self.height}-"
                f"{self.num_frames}f-seed{self.seed}"
            )
        )
        for frame in range(self.num_frames):
            for hot_spot, block in zip(kept, blocks):
                workload.append(
                    HotSpotTrace(
                        hot_spot=hot_spot,
                        si_names=HOT_SPOT_SIS[hot_spot],
                        counts=block[frame],
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
