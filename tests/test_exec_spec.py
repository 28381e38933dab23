"""Sweep-spec enumeration and cell-identity tests."""

import pytest

from repro.errors import SimulationError
from repro.exec import (
    SweepCell,
    SweepSpec,
    WorkloadSpec,
    canonical_json,
    cell_key,
)


def small_workload_spec(**kwargs):
    defaults = dict(frames=2, seed=2008)
    defaults.update(kwargs)
    return WorkloadSpec(**defaults)


class TestWorkloadSpec:
    def test_build_is_deterministic(self):
        a = small_workload_spec().build()
        b = small_workload_spec().build()
        assert a.name == b.name
        assert len(a) == len(b)
        assert a.totals() == b.totals()

    def test_equal_specs_share_traces_in_fresh_workloads(self):
        a = small_workload_spec().build()
        b = small_workload_spec().build()
        assert a is not b and a.traces is not b.traces
        assert all(x is y for x, y in zip(a.traces, b.traces))
        a.traces.pop()  # a workload's own list: b keeps all its traces
        assert len(b) == len(a) + 1

    def test_shared_counts_are_read_only(self):
        trace = small_workload_spec().build().traces[0]
        with pytest.raises(ValueError):
            trace.counts[0, 0] += 1

    def test_hot_spot_filter(self):
        workload = small_workload_spec(hot_spots=("ME",)).build()
        assert workload.hot_spots == ("ME",)
        assert "-ME" in workload.name

    def test_max_traces_truncates(self):
        workload = small_workload_spec(max_traces=3).build()
        assert len(workload) == 3

    def test_figure2_subset(self):
        """The ME-only two-invocation subset Figure 2 replays."""
        workload = small_workload_spec(
            hot_spots=("ME",), max_traces=2
        ).build()
        assert len(workload) == 2
        assert all(t.hot_spot == "ME" for t in workload)

    @pytest.mark.parametrize("seed", [2008, 5])
    @pytest.mark.parametrize(
        "hot_spots", [None, ("ME",), ("LF", "ME"), ("EE", "LF"), ("LF",)]
    )
    def test_max_traces_builds_only_what_it_keeps(self, seed, hot_spots):
        from repro.workload.model import H264WorkloadModel

        full = H264WorkloadModel(num_frames=3, seed=seed).generate()
        for max_traces in range(1, 5):
            spec = WorkloadSpec(
                frames=3, seed=seed, hot_spots=hot_spots, max_traces=max_traces
            )
            expected = [
                t
                for t in full.traces
                if hot_spots is None or t.hot_spot in hot_spots
            ][:max_traces]
            got = spec.build().traces
            assert [
                (t.hot_spot, t.si_names, t.frame_index, t.overhead_per_iteration)
                for t in got
            ] == [
                (t.hot_spot, t.si_names, t.frame_index, t.overhead_per_iteration)
                for t in expected
            ]
            assert [t.counts.tobytes() for t in got] == [
                t.counts.tobytes() for t in expected
            ]

    def test_rejects_zero_frames(self):
        with pytest.raises(SimulationError):
            WorkloadSpec(frames=0)


class TestSweepCell:
    def test_rispp_needs_scheduler(self):
        with pytest.raises(SimulationError):
            SweepCell(
                system="RISPP", num_acs=5, workload=small_workload_spec()
            )

    def test_unknown_system_rejected(self):
        with pytest.raises(SimulationError):
            SweepCell(
                system="FPGA", num_acs=5, workload=small_workload_spec()
            )

    def test_fault_rate_bounds(self):
        with pytest.raises(SimulationError):
            SweepCell(
                system="Molen", num_acs=5,
                workload=small_workload_spec(), fault_rate=1.5,
            )

    def test_config_round_trips_through_canonical_json(self):
        cell = SweepCell(
            system="RISPP", scheduler="HEF", num_acs=7,
            workload=small_workload_spec(hot_spots=("ME", "EE")),
            fault_rate=0.25, fault_seed=11, max_retries=2,
        )
        import json

        parsed = json.loads(canonical_json(cell.to_config()))
        assert parsed == cell.to_config()

    def test_key_distinguishes_every_config_field(self):
        base = dict(
            system="RISPP", scheduler="HEF", num_acs=7,
            workload=small_workload_spec(),
        )
        reference = cell_key(SweepCell(**base))
        variants = [
            dict(base, scheduler="SJF"),
            dict(base, num_acs=8),
            dict(base, workload=small_workload_spec(frames=3)),
            dict(base, workload=small_workload_spec(seed=1)),
            dict(base, record_segments=True),
            dict(base, fault_rate=0.1),
            dict(base, fault_seed=1),
            dict(base, max_retries=1),
        ]
        keys = {cell_key(SweepCell(**variant)) for variant in variants}
        assert reference not in keys
        assert len(keys) == len(variants)

    def test_equal_cells_share_a_key(self):
        a = SweepCell(
            system="Molen", num_acs=5, workload=small_workload_spec()
        )
        b = SweepCell(
            system="Molen", num_acs=5, workload=small_workload_spec()
        )
        assert a == b
        assert cell_key(a) == cell_key(b)


class TestSweepSpec:
    def test_grid_size(self):
        spec = SweepSpec(
            schedulers=("HEF", "SJF", "ASF"),
            ac_counts=(5, 10),
            workload=small_workload_spec(),
            include_molen=True,
            include_software=True,
        )
        # 3 schedulers x 2 AC counts + 2 Molen + 1 software.
        assert len(spec) == 3 * 2 + 2 + 1

    def test_enumeration_order_is_ac_outermost(self):
        spec = SweepSpec(
            schedulers=("HEF", "SJF"),
            ac_counts=(5, 10),
            workload=small_workload_spec(),
            include_molen=True,
        )
        labels = [c.label for c in spec.cells()]
        assert labels == [
            "HEF@5AC/2f", "SJF@5AC/2f", "Molen@5AC/2f",
            "HEF@10AC/2f", "SJF@10AC/2f", "Molen@10AC/2f",
        ]

    def test_cells_are_unique(self):
        spec = SweepSpec(
            schedulers=("HEF", "SJF"),
            ac_counts=(5, 10, 15),
            workload=small_workload_spec(),
            include_molen=True,
            include_software=True,
        )
        cells = spec.cells()
        assert len(set(cells)) == len(cells)

    def test_fault_config_propagates(self):
        spec = SweepSpec(
            schedulers=("HEF",),
            ac_counts=(5,),
            workload=small_workload_spec(),
            fault_rate=0.2, fault_seed=7, max_retries=1,
            include_molen=True,
        )
        for cell in spec.cells():
            assert cell.fault_rate == 0.2
            assert cell.fault_seed == 7
            assert cell.max_retries == 1
