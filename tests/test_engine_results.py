"""Edge-case tests for the execution engine and result objects."""

import numpy as np
import pytest

from repro import (
    BaseProcessor,
    HEFScheduler,
    HotSpotTrace,
    RisppSimulator,
    SimulationError,
    Workload,
)


@pytest.fixture
def platform(toy_library, toy_registry):
    return toy_library, toy_registry


def make_sim(platform, num_acs=4, **kwargs):
    library, registry = platform
    return RisppSimulator(
        library, registry, HEFScheduler(), num_acs, **kwargs
    )


def trace(counts, names=("SI1", "SI2"), overhead=0, frame=0):
    return HotSpotTrace(
        hot_spot="HS",
        si_names=names,
        counts=np.asarray(counts, dtype=np.int64),
        overhead_per_iteration=overhead,
        frame_index=frame,
    )


class TestEngineEdgeCases:
    def test_empty_workload(self, platform):
        result = make_sim(platform).run(Workload("empty"))
        assert result.total_cycles == 0
        assert result.per_frame_cycles == []

    def test_zero_iteration_trace(self, platform):
        workload = Workload("z", [trace(np.zeros((0, 2)))])
        result = make_sim(platform).run(workload)
        # Only the hot-spot entry overhead is charged.
        assert result.total_cycles == BaseProcessor().hot_spot_entry_overhead

    def test_zero_count_iterations_cost_overhead_only(self, platform):
        library, registry = platform
        proc = BaseProcessor(trap_overhead=0, hot_spot_entry_overhead=0)
        workload = Workload("o", [trace(np.zeros((10, 2)), overhead=7)])
        sim = RisppSimulator(
            library, registry, HEFScheduler(), 0, processor=proc
        )
        result = sim.run(workload)
        assert result.total_cycles == 70

    def test_event_boundary_semantics(self, platform):
        """An iteration straddling a completion finishes at the old
        latency; the very next iteration uses the upgrade."""
        library, registry = platform
        proc = BaseProcessor(trap_overhead=0, hot_spot_entry_overhead=0)
        counts = np.zeros((1000, 2), dtype=np.int64)
        counts[:, 0] = 1
        workload = Workload("b", [trace(counts)])
        sim = RisppSimulator(
            library, registry, HEFScheduler(), 1, processor=proc,
            record_segments=True,
        )
        result = sim.run(workload)
        load_cycles = registry.reconfig_cycles("A")
        boundary_segments = [
            s for s in result.segments if s.t0 <= load_cycles <= s.t1
        ]
        assert boundary_segments
        # The segment ending at/after the completion still used the old
        # (software) latency of SI1 = 1000.
        first = min(result.segments, key=lambda s: s.t0)
        assert first.latency_of("SI1") == 1000

    def test_mismatched_spaces_rejected(self, toy_library):
        from repro import AtomRegistry

        other_registry = AtomRegistry.uniform(["X", "Y"])
        with pytest.raises(SimulationError):
            RisppSimulator(
                toy_library, other_registry, HEFScheduler(), 4
            )

    def test_workload_with_unknown_si_fails_cleanly(self, platform):
        from repro import UnknownSpecialInstructionError

        workload = Workload(
            "u", [trace(np.ones((2, 2)), names=("SI1", "NOPE"))]
        )
        with pytest.raises(UnknownSpecialInstructionError):
            make_sim(platform).run(workload)


class TestResultObject:
    @pytest.fixture
    def result(self, platform):
        counts = np.ones((50, 2), dtype=np.int64)
        workload = Workload(
            "r",
            [trace(counts, frame=0), trace(counts, frame=1)],
        )
        return make_sim(platform, record_segments=True).run(workload)

    def test_speedup_over_self_is_one(self, result):
        assert result.speedup_over(result) == 1.0

    def test_total_mcycles(self, result):
        assert result.total_mcycles == result.total_cycles / 1e6

    def test_executions_per_window(self, result):
        series = result.executions_per_window("SI1", window=100_000)
        assert series.sum() == pytest.approx(100.0)  # 2 traces x 50

    def test_summary_mentions_scheduler(self, result):
        assert "HEF" in result.summary()
        assert "ACs" in result.summary()

    def test_hot_spot_cycles_sum(self, result):
        assert sum(result.hot_spot_cycles.values()) == result.total_cycles

    def test_segment_accessors(self, result):
        segment = result.segments[0]
        assert segment.duration == segment.t1 - segment.t0
        assert segment.executions_of("SI1") >= 0
        assert segment.latency_of("SI1") > 0


class TestResultSerialization:
    @pytest.fixture
    def result(self, platform):
        counts = np.ones((50, 2), dtype=np.int64)
        workload = Workload(
            "r",
            [trace(counts, frame=0), trace(counts, frame=1)],
        )
        return make_sim(platform, record_segments=True).run(workload)

    def test_round_trip_is_lossless(self, result):
        from repro import SimulationResult

        rebuilt = SimulationResult.from_json_dict(result.to_json_dict())
        assert rebuilt == result
        assert rebuilt.segments == result.segments
        assert rebuilt.latency_events == result.latency_events

    def test_round_trip_through_json_text(self, result):
        """Through an actual JSON encode/parse cycle, not just dicts."""
        import json

        from repro import SimulationResult

        text = json.dumps(result.to_json_dict())
        rebuilt = SimulationResult.from_json_dict(json.loads(text))
        assert rebuilt == result
        assert rebuilt.to_json_dict() == result.to_json_dict()

    def test_payload_is_plain_json_types(self, result):
        def check(value):
            if isinstance(value, dict):
                for k, v in value.items():
                    assert isinstance(k, str)
                    check(v)
            elif isinstance(value, list):
                for v in value:
                    check(v)
            else:
                assert value is None or isinstance(
                    value, (str, int, float, bool)
                )
                # No numpy scalars sneaking through.
                assert not isinstance(value, np.generic)

        check(result.to_json_dict())

    def test_round_trip_without_segments(self, platform):
        from repro import SimulationResult

        counts = np.ones((5, 2), dtype=np.int64)
        workload = Workload("s", [trace(counts)])
        result = make_sim(platform).run(workload)
        assert result.segments is None
        rebuilt = SimulationResult.from_json_dict(result.to_json_dict())
        assert rebuilt == result
        assert rebuilt.segments is None
        assert rebuilt.latency_events is None


class TestReplayMemory:
    """The executor keeps no per-trace arrays once a trace is replayed.

    A run replays each trace once, so a per-trace array cache never hits
    and only grows: it once cost a PREFETCH sweep about a quarter more
    peak memory.
    """

    @staticmethod
    def _held_arrays(executor):
        """Every array reachable through the executor's own containers."""
        from repro.sim.vector import _TraceArrays

        found = []
        stack = list(vars(executor).values())
        seen = set()
        while stack:
            value = stack.pop()
            if id(value) in seen:
                continue
            seen.add(id(value))
            if isinstance(value, (np.ndarray, _TraceArrays)):
                found.append(value)
            elif isinstance(value, dict):
                stack.extend(value.keys())
                stack.extend(value.values())
            elif isinstance(value, (list, tuple)):
                stack.extend(value)
        return found

    def test_no_trace_arrays_after_execute(
        self, h264_library, h264_registry, monkeypatch
    ):
        from repro import generate_workload
        from repro.sim import engine
        from repro.sim.vector import VectorExecutor, _TraceArrays

        executors = []

        class Recording(VectorExecutor):
            def __init__(self, sim):
                super().__init__(sim)
                executors.append(self)

        monkeypatch.setattr(engine, "VectorExecutor", Recording)

        def held_bytes(frames):
            executors.clear()
            RisppSimulator(
                h264_library, h264_registry, HEFScheduler(), 10
            ).run(generate_workload(num_frames=frames, seed=2008))
            [executor] = executors
            arrays = self._held_arrays(executor)
            assert not any(isinstance(a, _TraceArrays) for a in arrays)
            return sum(a.nbytes for a in arrays)

        # The dispatch tables are per SI set, so what the executor keeps
        # does not grow with the number of traces it replayed.
        assert held_bytes(1) == held_bytes(3)
