"""Warm simulators: a pooled simulator after ``reset()`` is a fresh one.

``execute_cell`` takes its simulator from a per-process pool keyed by
the cell's simulator fields.  The oracle here builds a fresh simulator
per cell, with the tracer passed at construction, and every pooled
result must equal it field for field, whatever ran before on the same
simulator; traced cells must also produce the same event log, byte for
byte.  A run must leave nothing of itself in the pool: no tracer, no
metrics registry, no workload.
"""

from __future__ import annotations

import gc
import json
import random
import types
from typing import Any, Iterator, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedulers import available_schedulers, get_scheduler
from repro.exec import runner
from repro.exec.runner import execute_cell
from repro.exec.spec import SweepCell, WorkloadSpec
from repro.fabric.faults import BernoulliLoadFaults, RetryPolicy
from repro.h264.silibrary import h264_platform
from repro.obs.export import events_to_json_dict
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RecordingTracer
from repro.sim.molen import MolenSimulator
from repro.sim.results import SimulationResult
from repro.sim.rispp import RisppSimulator
from repro.sim.software import simulate_software
from repro.workload.trace import HotSpotTrace, Workload


def fresh_result(
    cell: SweepCell, tracer: Optional[RecordingTracer] = None
) -> SimulationResult:
    """The cell's result on a simulator built for it alone."""
    registry, library = h264_platform()
    workload = cell.workload.build()
    if cell.system == "Software":
        return simulate_software(library, workload)
    fault_model = (
        BernoulliLoadFaults(cell.fault_rate, seed=cell.fault_seed)
        if cell.fault_rate > 0.0
        else None
    )
    retry_policy = RetryPolicy(max_retries=cell.max_retries)
    if cell.system == "Molen":
        sim: Any = MolenSimulator(
            library,
            registry,
            cell.num_acs,
            record_segments=cell.record_segments,
            fault_model=fault_model,
            retry_policy=retry_policy,
            tracer=tracer,
        )
    else:
        knobs = (
            {
                "confidence": cell.prefetch_confidence,
                "budget": cell.prefetch_budget,
            }
            if cell.scheduler == "PREFETCH"
            else {}
        )
        sim = RisppSimulator(
            library,
            registry,
            get_scheduler(cell.scheduler, **knobs),
            cell.num_acs,
            record_segments=cell.record_segments,
            fault_model=fault_model,
            retry_policy=retry_policy,
            tracer=tracer,
        )
    return sim.run(workload)


def event_log(tracer: RecordingTracer) -> bytes:
    """The JSON event log's text, as ``write_event_log`` writes it."""
    return json.dumps(
        events_to_json_dict(tracer.events), indent=1, sort_keys=True
    ).encode()


def reachable_from_pool() -> Iterator[Any]:
    """Every object the pool reaches through instance state and closures
    (classes, modules and functions' globals are not followed)."""
    seen = set()
    stack: List[Any] = [runner._SIMULATORS]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, types.FunctionType):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
            continue
        stack.extend(gc.get_referents(obj))


def assert_pool_holds_no_run() -> None:
    reached = list(reachable_from_pool())
    leaked = [
        type(obj).__name__
        for obj in reached
        if isinstance(
            obj, (RecordingTracer, MetricsRegistry, Workload, HotSpotTrace)
        )
    ]
    assert leaked == []
    # Vacuity guard: the walk does reach into the simulators' state.
    assert any(type(obj).__name__ == "AtomContainer" for obj in reached)


workloads = st.builds(
    WorkloadSpec,
    frames=st.integers(1, 2),
    seed=st.sampled_from([3, 2008]),
    hot_spots=st.sampled_from([None, ("ME",), ("EE", "LF")]),
    max_traces=st.sampled_from([None, 2]),
)

#: Few distinct simulator fields, so that cells meet warm simulators.
cells = st.builds(
    SweepCell,
    system=st.sampled_from(["RISPP", "RISPP", "RISPP", "Molen", "Software"]),
    num_acs=st.sampled_from([3, 12]),
    workload=workloads,
    scheduler=st.sampled_from(
        ["HEF", "ASF", "FSFR", "SJF", "LOOKAHEAD", "RANDOM", "PREFETCH"]
    ),
    record_segments=st.booleans(),
    fault_rate=st.sampled_from([0.0, 0.0, 0.3]),
    fault_seed=st.sampled_from([1, 2]),
    max_retries=st.sampled_from([0, 3]),
    prefetch_confidence=st.sampled_from([0.0, 0.3]),
    prefetch_budget=st.sampled_from([2, 4]),
)


class TestPooledCells:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(cells, st.booleans()), min_size=1, max_size=8))
    def test_pooled_results_equal_fresh_simulators(self, sequence):
        for cell, traced in sequence:
            if traced:
                pooled_tracer, fresh_tracer = (
                    RecordingTracer(),
                    RecordingTracer(),
                )
                pooled = execute_cell(cell, tracer=pooled_tracer)
                fresh = fresh_result(cell, tracer=fresh_tracer)
                if cell.system != "Software":
                    assert pooled_tracer.events
                assert event_log(pooled_tracer) == event_log(fresh_tracer)
            else:
                pooled = execute_cell(cell)
                fresh = fresh_result(cell)
            assert pooled == fresh
            assert pooled.to_json_dict() == fresh.to_json_dict()
        assert len(runner._SIMULATORS) <= runner._SIMULATORS.maxsize
        assert_pool_holds_no_run()

    def test_warm_simulator_is_reused_and_detached(self):
        cell = SweepCell(
            system="RISPP",
            scheduler="HEF",
            num_acs=5,
            workload=WorkloadSpec(frames=1, seed=7),
        )
        execute_cell(cell)
        sim = runner._SIMULATORS.lookup(runner._simulator_key(cell))
        assert sim is not None
        tracer, metrics = RecordingTracer(), MetricsRegistry()
        execute_cell(cell, tracer=tracer, metrics=metrics)
        assert runner._SIMULATORS.lookup(runner._simulator_key(cell)) is sim
        assert tracer.events
        assert metrics.get("run.total_cycles") is not None
        assert not sim.tracer.enabled
        assert sim.fabric.tracer is sim.tracer is sim.port.tracer
        assert sim.metrics is None
        assert_pool_holds_no_run()

    def test_failed_run_detaches_and_next_run_is_fresh(self, monkeypatch):
        cell = SweepCell(
            system="RISPP",
            scheduler="SJF",
            num_acs=4,
            workload=WorkloadSpec(frames=2, seed=11),
        )
        execute_cell(cell)
        sim = runner._SIMULATORS.lookup(runner._simulator_key(cell))

        def explode(*args: Any, **kwargs: Any) -> None:
            raise RuntimeError("injected")

        with monkeypatch.context() as patch:
            patch.setattr(sim.runtime.monitor, "update", explode)
            with pytest.raises(RuntimeError):
                execute_cell(cell, tracer=RecordingTracer())
        assert not sim.tracer.enabled
        assert execute_cell(cell) == fresh_result(cell)
        assert_pool_holds_no_run()

    def test_key_separates_every_simulator_field(self):
        base = SweepCell(
            system="RISPP",
            scheduler="PREFETCH",
            num_acs=4,
            workload=WorkloadSpec(frames=1),
        )
        variants = [
            dict(system="Molen"),
            dict(scheduler="HEF"),
            dict(num_acs=5),
            dict(record_segments=True),
            dict(fault_rate=0.1),
            dict(fault_seed=1),
            dict(max_retries=0),
            dict(prefetch_confidence=0.3),
            dict(prefetch_budget=2),
        ]
        keys = {runner._simulator_key(base)}
        for change in variants:
            fields = {**base.__dict__, **change}
            keys.add(runner._simulator_key(SweepCell(**fields)))
        assert len(keys) == len(variants) + 1
        # Knobs are inert, and left out, for every other scheduler.
        hef = SweepCell(
            system="RISPP", scheduler="HEF", num_acs=4,
            workload=WorkloadSpec(frames=1, seed=9), prefetch_budget=2,
        )
        assert runner._simulator_key(hef) == runner._simulator_key(
            SweepCell(
                system="RISPP", scheduler="HEF", num_acs=4,
                workload=WorkloadSpec(frames=3),
            )
        )


#: Every registered scheduler, plus the Molen baseline (``None``).
_SYSTEMS = [*available_schedulers(), None]


def _simulator(
    scheduler: Optional[str], fault_rate: float, num_acs: int = 6
) -> Any:
    registry, library = h264_platform()
    faults = (
        BernoulliLoadFaults(fault_rate, seed=4) if fault_rate > 0 else None
    )
    retry = RetryPolicy(max_retries=2, backoff_cycles=50, jitter=0.5, seed=3)
    if scheduler is None:
        return MolenSimulator(
            library, registry, num_acs, fault_model=faults,
            retry_policy=retry,
        )
    knobs = {"confidence": 0.3} if scheduler == "PREFETCH" else {}
    return RisppSimulator(
        library,
        registry,
        get_scheduler(scheduler, **knobs),
        num_acs,
        fault_model=faults,
        retry_policy=retry,
    )


class TestResetIsExact:
    # At 12 ACs the monitor's expectations steer every system's
    # selection, so a monitor that kept a run's state would show.
    @pytest.mark.parametrize("num_acs", [6, 12])
    @pytest.mark.parametrize("fault_rate", [0.0, 0.4])
    @pytest.mark.parametrize("scheduler", _SYSTEMS)
    def test_two_runs_on_one_simulator_equal_a_fresh_run(
        self, scheduler, fault_rate, num_acs
    ):
        workload = WorkloadSpec(frames=3, seed=5).build()
        sim = _simulator(scheduler, fault_rate, num_acs)
        first = sim.run(workload)
        second = sim.run(workload)
        fresh = _simulator(scheduler, fault_rate, num_acs).run(workload)
        assert first == second == fresh
        if fault_rate:
            assert first.loads_failed > 0

    def test_random_scheduler_is_reseeded(self):
        """A second run of RANDOM used to continue the first run's draws
        (17,036,380 then 16,939,829 cycles)."""
        workload = WorkloadSpec(frames=3, seed=5).build()
        sim = _simulator("RANDOM", 0.0)
        assert [sim.run(workload).total_cycles for _ in range(2)] == [
            17_036_380,
            17_036_380,
        ]

    def test_fault_free_run_never_seeds(self):
        sim = _simulator("HEF", 0.0)
        sim.run(WorkloadSpec(frames=1, seed=5).build())
        assert sim.retry_policy._rng is None

    def test_lazy_seeding_keeps_the_stream(self):
        model = BernoulliLoadFaults(0.5, seed=21)
        oracle = random.Random(21)
        verdicts = [model.check_load("A", 0, i) is not None for i in range(50)]
        assert verdicts == [oracle.random() < 0.5 for _ in range(50)]
        policy = RetryPolicy(backoff_cycles=100, jitter=0.5, seed=8)
        jitter = random.Random(8)
        assert [policy.delay(1) for _ in range(5)] == [
            int(100 + 100 * 0.5 * jitter.random()) for _ in range(5)
        ]
