"""The workload generators' draws, pinned to a column-by-column oracle.

``H264WorkloadModel.generate`` builds every count of a workload as one
block, and both generators draw from one process-wide, reseeded
``RandomState``.  The oracles below are the straightforward versions —
a fresh ``RandomState(seed)`` per workload and one column at a time —
and every generated trace must match them byte for byte, whatever was
generated before it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.h264.silibrary import HOT_SPOT_ORDER, HOT_SPOT_SIS
from repro.workload.adversarial import AdversarialWorkloadModel
from repro.workload.model import (
    _ACTIVITY_SCALED,
    _BASE_COUNTS,
    _ITERATION_OVERHEAD,
    H264WorkloadModel,
)

#: (hot spot, SI names, counts, overhead per iteration, frame index).
_Trace = Tuple[str, Tuple[str, ...], np.ndarray, int, int]


def h264_oracle(
    model: H264WorkloadModel, hot_spots: Optional[Sequence[str]]
) -> List[_Trace]:
    """The column-by-column generator over a fresh ``RandomState``,
    with the activity field drawn map by map."""
    rng = np.random.RandomState(model.seed)
    n_mb = model.mbs_per_frame
    spatial_a = rng.uniform(-1.0, 1.0, size=n_mb)
    spatial_b = rng.uniform(-1.0, 1.0, size=n_mb)
    noise = rng.uniform(-1.0, 1.0, size=(model.num_frames, n_mb))
    frames = np.arange(model.num_frames)[:, None]
    drift = np.sin(2.0 * np.pi * frames / 48.0)
    spatial = np.where(
        frames < model.scene_cut_frame if model.scene_cut_frame >= 0
        else np.ones_like(frames, dtype=bool),
        spatial_a[None, :],
        spatial_b[None, :],
    )
    mix = 0.5 * spatial + 0.3 * drift + 0.2 * noise
    activity = 1.0 + model.activity_amplitude * mix
    traces: List[_Trace] = []
    for frame in range(model.num_frames):
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
            traces.append(
                (hot_spot, si_names, counts, _ITERATION_OVERHEAD[hot_spot],
                 frame)
            )
    return traces


def adversarial_oracle(model: AdversarialWorkloadModel) -> List[_Trace]:
    """The adversarial generator over a fresh ``RandomState``."""
    rng = np.random.RandomState(model.seed)
    sequence = model._sequence(rng)
    si_names_all = sorted({si for sis in HOT_SPOT_SIS.values() for si in sis})
    factors = {si: 1.0 for si in si_names_all}
    traces: List[_Trace] = []
    for phase, hot_spot in enumerate(sequence):
        if model.shift_period and phase % model.shift_period == 0:
            for si in si_names_all:
                factors[si] = 1.0 + model.shift_amplitude * rng.uniform(
                    -1.0, 1.0
                )
        si_names = HOT_SPOT_SIS[hot_spot]
        counts = np.zeros((model.mbs_per_phase, len(si_names)), dtype=np.int64)
        for col, si_name in enumerate(si_names):
            value = _BASE_COUNTS[si_name] * factors[si_name]
            counts[:, col] = max(0, int(round(value)))
        traces.append(
            (hot_spot, si_names, counts, _ITERATION_OVERHEAD[hot_spot],
             phase // len(HOT_SPOT_ORDER))
        )
    return traces


def assert_matches(workload, expected: List[_Trace]) -> None:
    assert len(workload.traces) == len(expected)
    for trace, (hot_spot, si_names, counts, overhead, frame) in zip(
        workload.traces, expected
    ):
        assert (trace.hot_spot, trace.si_names) == (hot_spot, si_names)
        assert trace.overhead_per_iteration == overhead
        assert trace.frame_index == frame
        assert trace.counts.dtype == counts.dtype
        assert trace.counts.shape == counts.shape
        assert trace.counts.tobytes() == counts.tobytes()


seeds = st.integers(0, 2**32 - 1)

h264_models = st.builds(
    H264WorkloadModel,
    num_frames=st.integers(1, 4),
    seed=seeds,
    scene_cut_frame=st.sampled_from([-1, 0, 1, 2, 70]),
    activity_amplitude=st.sampled_from([0.0, 0.35, 0.9]),
)

hot_spot_sets = st.none() | st.lists(
    st.sampled_from(HOT_SPOT_ORDER), min_size=1, max_size=3, unique=True
).map(tuple)

adversarial_models = st.builds(
    AdversarialWorkloadModel,
    num_phases=st.integers(1, 8),
    seed=seeds,
    flip_rate=st.sampled_from([0.0, 0.25, 1.0]),
    mbs_per_phase=st.integers(1, 8),
    shift_period=st.sampled_from([0, 1, 3]),
)

#: One generator call: an H.264 build with its hot-spot subset, or an
#: adversarial build.
calls = st.one_of(
    st.tuples(h264_models, hot_spot_sets),
    st.tuples(adversarial_models, st.none()),
)


class TestWorkloadDraws:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(calls, min_size=1, max_size=5))
    def test_interleaved_builds_equal_fresh_generators(self, sequence):
        for model, hot_spots in sequence:
            if isinstance(model, H264WorkloadModel):
                assert_matches(
                    model.generate(hot_spots), h264_oracle(model, hot_spots)
                )
            else:
                assert_matches(model.generate(), adversarial_oracle(model))

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_negative_scene_cut_and_flat_activity(self, seed):
        for model in (
            H264WorkloadModel(num_frames=3, seed=seed, scene_cut_frame=-1),
            H264WorkloadModel(num_frames=2, seed=seed, activity_amplitude=0.0),
        ):
            assert_matches(model.generate(), h264_oracle(model, None))

    def test_sequence_reads_the_same_stream(self):
        model = AdversarialWorkloadModel(num_phases=30, seed=9, flip_rate=0.5)
        expected = [t[0] for t in adversarial_oracle(model)]
        H264WorkloadModel(num_frames=1, seed=1).generate()
        assert model.hot_spot_sequence() == expected


class TestPerHotSpotBuilds:
    """``generate(hot_spots=...)`` computes only the kept hot spots'
    columns, and skips the intra draw when no kept column needs it; the
    kept traces must not move by a byte."""

    @settings(max_examples=150, deadline=None)
    @given(
        num_frames=st.integers(1, 4),
        seed=seeds,
        scene_cut_frame=st.sampled_from([-1, 0, 1, 2, 3, 70]),
        hot_spots=st.lists(
            st.sampled_from(HOT_SPOT_ORDER), min_size=1, max_size=3,
            unique=True,
        ).map(tuple),
    )
    def test_kept_hot_spots_equal_the_oracle_and_the_full_build(
        self, num_frames, seed, scene_cut_frame, hot_spots
    ):
        model = H264WorkloadModel(
            num_frames=num_frames, seed=seed,
            scene_cut_frame=scene_cut_frame,
        )
        kept = model.generate(hot_spots)
        assert_matches(kept, h264_oracle(model, hot_spots))
        full = [t for t in model.generate().traces if t.hot_spot in hot_spots]
        assert [t.counts.tobytes() for t in kept.traces] == [
            t.counts.tobytes() for t in full
        ]

    def test_service_cells_over_many_seeds(self):
        """The service's cell shape: one frame, one hot spot."""
        for seed in range(2008, 2008 + 150):
            model = H264WorkloadModel(num_frames=1, seed=seed)
            for hot_spot in HOT_SPOT_ORDER:
                assert_matches(
                    model.generate((hot_spot,)),
                    h264_oracle(model, (hot_spot,)),
                )
