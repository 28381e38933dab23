"""The process-wide design-time objects and the Run-Time Manager's plan memo.

The memo may only change speed: a plan served from it must equal the
plan computed cold, stateful schedulers must bypass it, differently
configured schedulers must never share an entry, the LRU bound must
hold, and a stored schedule must never change after it is stored.

The manager plans on the array-backed tables of
:mod:`repro.core.scoring`; :class:`TestPaperFormalismOracle` ties every
plan to the readable formalism it must reproduce —
:func:`~repro.core.selection.select_molecules` followed by the
scheduler's own :meth:`~repro.core.schedulers.base.AtomScheduler.schedule`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.experiments import ExperimentScale
from repro.core import runtime
from repro.core.runtime import RuntimeManager
from repro.core.schedulers import available_schedulers, get_scheduler
from repro.core.schedulers.lookahead import LookaheadScheduler
from repro.core.schedulers.prefetch import PrefetchScheduler
from repro.core.schedulers.random_sched import RandomScheduler
from repro.core.scoring import LruMemo
from repro.core.selection import select_molecules
from repro.h264.silibrary import HOT_SPOT_ORDER, HOT_SPOT_SIS, h264_platform
from repro.sim.rispp import RisppSimulator
from repro.workload.model import generate_workload

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

MEMOISED = [name for name in available_schedulers() if name != "RANDOM"]


@pytest.fixture(autouse=True)
def _cold_memo():
    runtime._PLAN_MEMO.clear()
    yield
    runtime._PLAN_MEMO.clear()


def _library():
    return h264_platform()[1]


def _available(library, loaded):
    return library.space.molecule(loaded)


def _fields(plan):
    return (
        plan.hot_spot,
        dict(plan.expected),
        dict(plan.selection.implementations),
        plan.selection.meta,
        plan.selection.num_acs,
        plan.schedule.loads,
        plan.schedule.steps,
    )


class TestPlatform:
    def test_same_objects_on_every_call(self):
        registry, library = h264_platform()
        for _ in range(3):
            again = h264_platform()
            assert again[0] is registry
            assert again[1] is library

    def test_library_is_bound_to_the_registry(self):
        registry, library = h264_platform()
        assert library.space == registry.space


class TestMemoHitEqualsColdPlan:
    @pytest.mark.parametrize("name", MEMOISED)
    @pytest.mark.parametrize("validate", [False, True])
    # A clean fabric plans against all 10 ACs; a faulty one against its
    # effective budget of 6 (four dead containers).
    @pytest.mark.parametrize("budget", [None, 6])
    def test_field_equal(self, name, validate, budget):
        library = _library()
        manager = RuntimeManager(
            library, get_scheduler(name), num_acs=10,
            validate_schedules=validate,
        )
        loaded = _available(library, {"SADTREE": 1, "TRANSFORM": 1})
        for hot_spot in HOT_SPOT_ORDER:
            si_names = HOT_SPOT_SIS[hot_spot]
            first = manager.plan_hot_spot(
                hot_spot, si_names, loaded, num_acs=budget
            )
            hit = manager.plan_hot_spot(
                hot_spot, si_names, loaded, num_acs=budget
            )
            assert hit.schedule is first.schedule  # served by the memo
            runtime._PLAN_MEMO.clear()
            cold = manager.plan_hot_spot(
                hot_spot, si_names, loaded, num_acs=budget
            )
            assert cold.schedule is not hit.schedule
            assert _fields(hit) == _fields(cold)

    def test_effective_budget_is_a_new_key(self):
        library = _library()
        manager = RuntimeManager(library, get_scheduler("HEF"), num_acs=10)
        empty = _available(library, {})
        clean = manager.plan_hot_spot("EE", HOT_SPOT_SIS["EE"], empty)
        faulty = manager.plan_hot_spot(
            "EE", HOT_SPOT_SIS["EE"], empty, num_acs=6
        )
        assert (clean.selection.num_acs, faulty.selection.num_acs) == (10, 6)
        assert len(runtime._PLAN_MEMO) == 2

    def test_learned_forecast_is_a_new_key(self):
        library = _library()
        manager = RuntimeManager(library, get_scheduler("HEF"), num_acs=8)
        empty = _available(library, {})
        before = manager.plan_hot_spot("ME", HOT_SPOT_SIS["ME"], empty)
        manager.finish_hot_spot("ME", {"SAD": 1.0, "SATD": 90_000.0})
        after = manager.plan_hot_spot("ME", HOT_SPOT_SIS["ME"], empty)
        assert after.schedule is not before.schedule
        assert len(runtime._PLAN_MEMO) == 2

    def test_validation_is_part_of_the_key(self):
        library = _library()
        empty = _available(library, {})
        for validate in (False, True):
            RuntimeManager(
                library, get_scheduler("SJF"), num_acs=8,
                validate_schedules=validate,
            ).plan_hot_spot("EE", HOT_SPOT_SIS["EE"], empty)
        assert len(runtime._PLAN_MEMO) == 2

    def test_simulation_results_do_not_see_the_memo(self):
        registry, library = h264_platform()
        workload = generate_workload(num_frames=2, seed=5)

        def run():
            return RisppSimulator(
                library, registry, get_scheduler("HEF"), 8
            ).run(workload).to_json_dict()

        cold = run()
        assert len(runtime._PLAN_MEMO) > 0
        assert run() == cold  # every plan of this run is a memo hit


class _FixedForecast:
    """A monitor stand-in that replays one recorded forecast."""

    def __init__(self, expected):
        self.expected = expected

    def predict(self, hot_spot, si_names):
        return dict(self.expected)


@pytest.fixture(scope="module")
def fig7_forecasts():
    """Every distinct planning input of a short Figure 7 HEF sweep:
    ``(hot_spot, si_names, available, forecast)``."""
    registry, library = h264_platform()
    scale = ExperimentScale(frames=3)
    workload = scale.workload()
    seen = {}
    plan_hot_spot = RuntimeManager.plan_hot_spot

    def recording(self, hot_spot, si_names, available, num_acs=None):
        plan = plan_hot_spot(self, hot_spot, si_names, available, num_acs)
        expected = tuple(plan.expected.items())
        seen[(hot_spot, tuple(si_names), available, expected)] = None
        return plan

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RuntimeManager, "plan_hot_spot", recording)
        for acs in scale.ac_counts[::2]:
            RisppSimulator(
                library, registry, get_scheduler("HEF"), acs
            ).run(workload)
    return list(seen)


class TestPaperFormalismOracle:
    @pytest.mark.parametrize("name", MEMOISED)
    @pytest.mark.parametrize("budget", [None, 6], ids=["clean", "faulty"])
    def test_plan_equals_selection_then_schedule(
        self, fig7_forecasts, name, budget
    ):
        library = _library()
        assert len(fig7_forecasts) > 20
        for hot_spot, si_names, available, expected in fig7_forecasts:
            manager = RuntimeManager(
                library, get_scheduler(name), num_acs=10,
                monitor=_FixedForecast(expected),
            )
            plan = manager.plan_hot_spot(
                hot_spot, si_names, available, num_acs=budget
            )
            forecast = dict(expected)
            sis = library.subset(si_names)
            selection = select_molecules(
                sis, forecast, budget or 10, available=available
            )
            assert plan.selection.implementations == (
                selection.implementations
            )
            assert plan.selection.meta == selection.meta
            hardware = selection.hardware_selection()
            if not hardware:
                assert len(plan.schedule) == 0
                continue
            schedule = get_scheduler(name).schedule(
                hardware, {si.name: si for si in sis}, available, forecast
            )
            assert plan.schedule.atom_sequence() == schedule.atom_sequence()
            assert plan.schedule.steps == schedule.steps


class TestStatefulAndConfiguredSchedulers:
    def test_random_is_never_memoised(self):
        assert RandomScheduler(seed=3).plan_key() is None
        library = _library()
        empty = _available(library, {})
        manager = RuntimeManager(library, RandomScheduler(seed=3), num_acs=12)
        reference = RandomScheduler(seed=3)
        sis = library.subset(HOT_SPOT_SIS["EE"])
        sis_map = {si.name: si for si in sis}
        for _ in range(5):
            plan = manager.plan_hot_spot("EE", HOT_SPOT_SIS["EE"], empty)
            selection = select_molecules(
                sis, plan.expected, 12, available=empty
            )
            expected = reference.schedule(
                selection.hardware_selection(), sis_map, empty,
                plan.expected,
            )
            assert plan.schedule.loads == expected.loads
            assert plan.schedule.steps == expected.steps
        assert len(runtime._PLAN_MEMO) == 0

    def test_beam_widths_never_share_an_entry(self):
        assert LookaheadScheduler(1).plan_key() != (
            LookaheadScheduler(8).plan_key()
        )
        self._two_entries(LookaheadScheduler(1), LookaheadScheduler(8))

    def test_prefetch_confidences_never_share_an_entry(self):
        assert PrefetchScheduler(confidence=0.3).plan_key() != (
            PrefetchScheduler(confidence=0.6).plan_key()
        )
        assert PrefetchScheduler(budget=2).plan_key() != (
            PrefetchScheduler(budget=4).plan_key()
        )
        self._two_entries(
            PrefetchScheduler(confidence=0.3), PrefetchScheduler(confidence=0.6)
        )

    def test_equal_configurations_share_an_entry(self):
        library = _library()
        empty = _available(library, {})
        plans = [
            RuntimeManager(
                library, LookaheadScheduler(4), num_acs=10
            ).plan_hot_spot("EE", HOT_SPOT_SIS["EE"], empty)
            for _ in range(2)
        ]
        assert plans[0].schedule is plans[1].schedule
        assert len(runtime._PLAN_MEMO) == 1

    @staticmethod
    def _two_entries(first, second):
        library = _library()
        empty = _available(library, {})
        plans = [
            RuntimeManager(library, scheduler, num_acs=10).plan_hot_spot(
                "EE", HOT_SPOT_SIS["EE"], empty
            )
            for scheduler in (first, second)
        ]
        assert plans[0].schedule is not plans[1].schedule
        assert len(runtime._PLAN_MEMO) == 2


class TestBound:
    def test_plan_memo_keeps_256_after_257_distinct_keys(self):
        library = _library()
        manager = RuntimeManager(library, get_scheduler("HEF"), num_acs=8)
        empty = _available(library, {})
        for i in range(257):
            # A fresh measurement moves the forecast: a new key each time.
            manager.finish_hot_spot("LF", {"LF_BS4": 1000.0 + 7.0 * i})
            manager.plan_hot_spot("LF", HOT_SPOT_SIS["LF"], empty)
        assert len(runtime._PLAN_MEMO) == 256

    def test_lru_evicts_the_least_recently_used(self):
        memo = LruMemo(2)
        memo.store("a", 1)
        memo.store("b", 2)
        assert memo.lookup("a") == 1  # "b" is now the oldest
        memo.store("c", 3)
        assert list(memo) == ["a", "c"]
        assert memo.lookup("b") is None


class TestStoredScheduleIsFrozen:
    def test_unchanged_after_1000_hits(self):
        library = _library()
        manager = RuntimeManager(library, get_scheduler("ASF"), num_acs=10)
        empty = _available(library, {})
        stored = manager.plan_hot_spot("EE", HOT_SPOT_SIS["EE"], empty)
        loads, steps = stored.schedule.loads, stored.schedule.steps
        assert loads
        for _ in range(1000):
            hit = manager.plan_hot_spot("EE", HOT_SPOT_SIS["EE"], empty)
            assert hit.schedule is stored.schedule
        assert stored.schedule.loads == loads
        assert stored.schedule.steps == steps

    def test_only_schedulers_build_schedules(self):
        # The memo shares Schedule objects between plans; only the
        # schedulers (and the scoring fast path's scheduler state) may
        # append to one, while they build it.
        allowed = {
            SRC / "core" / "schedule.py",
            SRC / "core" / "scoring.py",
        }
        callers = []
        for path in sorted(SRC.rglob("*.py")):
            if path in allowed or (SRC / "core" / "schedulers") in path.parents:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("append_step", "append_completion")
                ):
                    callers.append(f"{path.name}:{node.lineno}")
        assert callers == []
