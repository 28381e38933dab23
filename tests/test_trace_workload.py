"""Tests for trace structures and the statistical workload model."""

import numpy as np
import pytest

from repro import HotSpotTrace, TraceError, Workload
from repro.workload.model import H264WorkloadModel
from repro.calibration import ME_SI_EXECUTIONS_PER_FRAME


class TestHotSpotTrace:
    def make(self, counts, names=("X", "Y")):
        return HotSpotTrace(
            hot_spot="HS",
            si_names=names,
            counts=np.asarray(counts),
            overhead_per_iteration=10,
            frame_index=0,
        )

    def test_counts_are_read_only_but_the_input_is_not(self):
        counts = np.array([[1, 2], [3, 4]], dtype=np.int64)
        trace = self.make(counts)
        with pytest.raises(ValueError):
            trace.counts[0, 0] = 9
        counts[0, 0] = 9  # the caller's array is not frozen
        assert counts[0, 0] == 9

    def test_totals(self):
        trace = self.make([[1, 2], [3, 4]])
        assert trace.totals() == {"X": 4, "Y": 6}
        assert trace.total_executions() == 10
        assert trace.iterations == 2

    def test_software_cycles(self):
        trace = self.make([[1, 2], [3, 4]])
        cycles = trace.software_cycles({"X": 100, "Y": 10}, trap_overhead=1)
        # overhead 2*10 + X: 4*101 + Y: 6*11
        assert cycles == 20 + 404 + 66

    def test_shape_validation(self):
        with pytest.raises(TraceError):
            self.make([1, 2])  # 1-D
        with pytest.raises(TraceError):
            self.make([[1, 2, 3]])  # wrong column count

    def test_negative_counts_rejected(self):
        with pytest.raises(TraceError):
            self.make([[1, -1]])

    def test_duplicate_si_names_rejected(self):
        with pytest.raises(TraceError):
            self.make([[1, 2]], names=("X", "X"))

    def test_negative_overhead_rejected(self):
        with pytest.raises(TraceError):
            HotSpotTrace("HS", ("X",), np.ones((1, 1)),
                         overhead_per_iteration=-1)


class TestWorkload:
    def test_frame_grouping(self):
        traces = [
            HotSpotTrace("ME", ("X",), np.ones((2, 1)), frame_index=0),
            HotSpotTrace("EE", ("X",), np.ones((2, 1)), frame_index=0),
            HotSpotTrace("ME", ("X",), np.ones((2, 1)), frame_index=1),
        ]
        workload = Workload("w", traces)
        frames = list(workload.frames())
        assert [len(f) for f in frames] == [2, 1]
        assert workload.num_frames == 2

    def test_subset_frames(self):
        traces = [
            HotSpotTrace("ME", ("X",), np.ones((2, 1)), frame_index=i)
            for i in range(5)
        ]
        sub = Workload("w", traces).subset_frames(2)
        assert sub.num_frames == 2

    def test_hot_spots_and_si_names_in_order(self):
        traces = [
            HotSpotTrace("ME", ("X",), np.ones((1, 1)), frame_index=0),
            HotSpotTrace("EE", ("Y", "Z"), np.ones((1, 2)), frame_index=0),
        ]
        workload = Workload("w", traces)
        assert workload.hot_spots == ("ME", "EE")
        assert workload.si_names == ("X", "Y", "Z")

    def test_empty_name_rejected(self):
        with pytest.raises(TraceError):
            Workload("")


class TestWorkloadModel:
    def test_deterministic_given_seed(self):
        a = H264WorkloadModel(num_frames=2, seed=5).generate()
        b = H264WorkloadModel(num_frames=2, seed=5).generate()
        for ta, tb in zip(a, b):
            assert (ta.counts == tb.counts).all()

    def test_different_seeds_differ(self):
        a = H264WorkloadModel(num_frames=2, seed=5).generate()
        b = H264WorkloadModel(num_frames=2, seed=6).generate()
        assert any(
            (ta.counts != tb.counts).any() for ta, tb in zip(a, b)
        )

    def test_structure_three_hot_spots_per_frame(self):
        workload = H264WorkloadModel(num_frames=3).generate()
        assert len(workload) == 9
        assert workload.hot_spots == ("ME", "EE", "LF")

    def test_me_executions_match_figure2(self):
        workload = H264WorkloadModel(num_frames=10).generate()
        me_total = 0
        for trace in workload:
            if trace.hot_spot == "ME":
                me_total += trace.total_executions()
        per_frame = me_total / 10
        assert abs(per_frame - ME_SI_EXECUTIONS_PER_FRAME) < (
            0.05 * ME_SI_EXECUTIONS_PER_FRAME
        )

    def test_intra_mbs_have_no_mc(self):
        workload = H264WorkloadModel(num_frames=2).generate()
        for trace in workload:
            if trace.hot_spot != "EE":
                continue
            mc_col = trace.si_names.index("MC")
            hdc_col = trace.si_names.index("IPredHDC")
            intra_rows = trace.counts[:, mc_col] == 0
            if intra_rows.any():
                # Intra macroblocks do double intra prediction.
                assert (trace.counts[intra_rows, hdc_col] >= 2).all()

    def test_scene_cut_changes_distribution(self):
        model = H264WorkloadModel(
            num_frames=4, seed=1, scene_cut_frame=2
        )
        workload = model.generate()
        me = [t for t in workload if t.hot_spot == "ME"]
        before = me[1].counts.sum()
        after = me[2].counts.sum()
        assert before != after

    def test_zero_amplitude_gives_flat_counts(self):
        model = H264WorkloadModel(
            num_frames=1, seed=1, activity_amplitude=0.0
        )
        workload = model.generate()
        me = next(t for t in workload if t.hot_spot == "ME")
        sad = me.counts[:, me.si_names.index("SAD")]
        assert (sad == sad[0]).all()

    def test_offline_profile_covers_all_hot_spots(self):
        model = H264WorkloadModel(num_frames=1)
        profile = model.offline_profile()
        assert set(profile) == {"ME", "EE", "LF"}
        assert profile["ME"]["SAD"] > 0

    def test_validation(self):
        with pytest.raises(TraceError):
            H264WorkloadModel(num_frames=0)
        with pytest.raises(TraceError):
            H264WorkloadModel(width=100)  # not MB aligned
        with pytest.raises(TraceError):
            H264WorkloadModel(activity_amplitude=1.5)
