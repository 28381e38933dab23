"""The process-wide design-time objects and the Run-Time Manager's plan memo.

The memo may only change speed: a plan served from it must equal the
plan computed cold, stateful schedulers must bypass it, differently
configured schedulers must never share an entry, the LRU bound must
hold, and a stored schedule must never change after it is stored.

The manager plans on the sparse tables of :mod:`repro.core.scoring`;
:class:`TestPaperFormalismOracle` ties every plan to the readable
formalism it must reproduce —
:func:`~repro.core.selection.select_molecules` followed by the
scheduler's own :meth:`~repro.core.schedulers.base.AtomScheduler.schedule`
— over the Figure 7 forecasts, and :class:`TestRandomLibraryOracle` does
the same over random libraries.  The selection memo may serve a
selection to a call with another availability only when no greedy round
tied: :class:`TestSelectionMemo` checks both sides of that rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ExperimentScale
from repro.core import runtime, scoring
from repro.core.molecule import AtomSpace
from repro.core.runtime import RuntimeManager
from repro.core.schedulers import available_schedulers, get_scheduler
from repro.core.schedulers.lookahead import LookaheadScheduler
from repro.core.schedulers.prefetch import PrefetchScheduler
from repro.core.schedulers.random_sched import RandomScheduler
from repro.core.scoring import LruMemo, fast_schedule, select_molecules_fast
from repro.core.selection import select_molecules
from repro.core.si import MoleculeImpl, SpecialInstruction
from repro.h264.silibrary import HOT_SPOT_ORDER, HOT_SPOT_SIS, h264_platform
from repro.sim.rispp import RisppSimulator
from repro.workload.model import generate_workload
from tests.test_scheduler_properties import SPACE, random_si

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
                    and node.attr
                    in ("append_step", "append_counts", "append_completion")
                ):
                    callers.append(f"{path.name}:{node.lineno}")
        assert callers == []


def _same_selection(fast, reference):
    assert list(fast.implementations.items()) == list(
        reference.implementations.items()
    )
    assert fast.meta == reference.meta
    assert fast.num_acs == reference.num_acs


def _tied_library():
    """Two SIs whose only molecules tie exactly on ``(flag, value)``:
    same weight, same latency gain, one atom each of a different type.
    Only the ``reuse`` tie-break (atoms already loaded) tells them
    apart, and a budget of one AC takes just one of them."""
    space = AtomSpace(["A", "B"])
    sis = [
        SpecialInstruction(
            name, space, 100,
            [MoleculeImpl(name, "hw", space.molecule({atom: 1}), 50)],
        )
        for name, atom in (("X", "A"), ("Y", "B"))
    ]
    return space, sis


@st.composite
def tie_prone_sis(draw):
    """Two or three SIs built from one molecule template, each over its
    own rotation of the atom types: molecules of different SIs then
    often tie exactly on profit/cost, and the availability decides."""
    vectors = draw(
        st.lists(
            st.tuples(*[st.integers(0, 2)] * SPACE.size).filter(any),
            min_size=1, max_size=3, unique=True,
        )
    )
    latencies = sorted(
        draw(st.lists(st.sampled_from([20, 40, 60, 80]),
                      min_size=len(vectors), max_size=len(vectors))),
        reverse=True,
    )
    sis = []
    for i in range(draw(st.integers(2, 3))):
        shift = draw(st.integers(0, SPACE.size - 1))
        name = f"SI{i}"
        sis.append(SpecialInstruction(name, SPACE, 100, [
            MoleculeImpl(
                name, f"m{k}",
                SPACE.molecule(vector[shift:] + vector[:shift]), latency,
            )
            for k, (vector, latency) in enumerate(zip(vectors, latencies))
        ]))
    return sis


class TestSelectionMemo:
    @pytest.fixture(autouse=True)
    def _cold_selections(self):
        scoring._SELECTIONS.clear()
        yield
        scoring._SELECTIONS.clear()

    def test_a_tie_is_decided_by_each_calls_availability(self):
        space, sis = _tied_library()
        forecast = {"X": 1.0, "Y": 1.0}
        results = []
        for loaded in ({"A": 1}, {"B": 1}):
            available = space.molecule(loaded)
            fast = select_molecules_fast(sis, forecast, 1, available=available)
            _same_selection(
                fast, select_molecules(sis, forecast, 1, available=available)
            )
            results.append(fast)
        first, second = results
        assert first.implementations["X"].name == "hw"
        assert second.implementations["Y"].name == "hw"
        assert first.meta != second.meta  # the memo did not serve it
        assert len(scoring._SELECTIONS) == 0

    def test_a_tie_free_selection_is_shared_across_availabilities(self):
        space, sis = _tied_library()
        forecast = {"X": 2.0, "Y": 1.0}  # X's gain is larger: no tie
        first = select_molecules_fast(
            sis, forecast, 1, available=space.molecule({"B": 1})
        )
        second = select_molecules_fast(
            sis, forecast, 1, available=space.molecule({"A": 1})
        )
        assert second is first
        assert len(scoring._SELECTIONS) == 1
        _same_selection(
            second,
            select_molecules(
                sis, forecast, 1, available=space.molecule({"A": 1})
            ),
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_a_warm_memo_serves_the_reference(self, data):
        if data.draw(st.booleans()):
            sis = [
                data.draw(random_si(f"SI{i}"))
                for i in range(data.draw(st.integers(1, 3)))
            ]
            forecast = {
                si.name: float(data.draw(st.integers(0, 3))) for si in sis
            }
        else:
            # Equal weights over one template: exact ties are the rule.
            sis = data.draw(tie_prone_sis())
            weight = float(data.draw(st.integers(1, 3)))
            forecast = {si.name: weight for si in sis}
        budget = data.draw(st.integers(0, 12))
        availabilities = [
            SPACE.molecule(
                tuple(data.draw(st.integers(0, 3)) for _ in range(SPACE.size))
            )
            for _ in range(2)
        ]
        for available in availabilities + availabilities[::-1]:
            _same_selection(
                select_molecules_fast(sis, forecast, budget, available),
                select_molecules(sis, forecast, budget, available),
            )


@st.composite
def scheduling_inputs(draw):
    """Random SIs, any hardware selection, a forecast and an ``a_0``
    that may already hold part (or more) of the selection."""
    sis = {}
    selection = {}
    forecast = {}
    for i in range(draw(st.integers(1, 3))):
        si = draw(random_si(f"SI{i}"))
        sis[si.name] = si
        selection[si.name] = draw(st.sampled_from(si.molecules))
        forecast[si.name] = float(draw(st.integers(0, 3)))
    held = [
        max(impl.atoms.counts[p] for impl in selection.values())
        for p in range(SPACE.size)
    ]
    available = SPACE.molecule(
        tuple(draw(st.integers(0, held[p] + 1)) for p in range(SPACE.size))
    )
    return selection, sis, available, forecast


def _same_schedule(name, selection, sis, available, forecast):
    fast = fast_schedule(
        get_scheduler(name), selection, sis, available, forecast
    )
    reference = get_scheduler(name).schedule(
        selection, sis, available, forecast
    )
    assert fast.atom_sequence() == reference.atom_sequence()
    assert fast.steps == reference.steps
    return fast


class TestRandomLibraryOracle:
    @settings(max_examples=120, deadline=None)
    @given(scheduling_inputs(), st.sampled_from(MEMOISED))
    def test_fast_schedule_equals_the_scheduler(self, inputs, name):
        _same_schedule(name, *inputs)

    @pytest.mark.parametrize("name", MEMOISED)
    def test_committing_a_selection_that_is_no_candidate(self, name):
        # a_0 already holds a faster molecule of X than the selected
        # one, so equation (4) cleans the selection away and
        # upgrade_si_fully (or finalize) must load it directly.
        small = MoleculeImpl("X", "small", SPACE.molecule({"A": 1}), 50)
        fast = MoleculeImpl("X", "fast", SPACE.molecule({"B": 2}), 20)
        sis = {"X": SpecialInstruction("X", SPACE, 100, [small, fast])}
        schedule = _same_schedule(
            name, {"X": small}, sis, SPACE.molecule({"B": 2}), {"X": 3.0}
        )
        assert schedule.atom_sequence() == ("A",)
        (step,) = schedule.steps
        assert (step.impl, step.latency_before) == (small, 20)

    @pytest.mark.parametrize("name", MEMOISED)
    def test_closing_loads_keep_the_reference_latency_records(self, name):
        # a_0 holds faster molecules of both SIs than the selected ones,
        # so HEF and SJF leave both selections for finalize.  Loading
        # X's atom A makes Y's fastest molecule available, but the
        # reference finalize records Y's step against Y's old best
        # latency (30), not the newly available 10.
        x_sel = MoleculeImpl("X", "sel", SPACE.molecule({"A": 1}), 50)
        x_fast = MoleculeImpl("X", "fast", SPACE.molecule({"B": 1}), 20)
        y_sel = MoleculeImpl("Y", "sel", SPACE.molecule({"C": 1}), 50)
        y_fast = MoleculeImpl("Y", "fast", SPACE.molecule({"D": 1}), 30)
        y_top = MoleculeImpl("Y", "top", SPACE.molecule({"A": 1, "D": 1}), 10)
        sis = {
            "X": SpecialInstruction("X", SPACE, 100, [x_sel, x_fast]),
            "Y": SpecialInstruction("Y", SPACE, 100, [y_sel, y_fast, y_top]),
        }
        schedule = _same_schedule(
            name, {"X": x_sel, "Y": y_sel}, sis,
            SPACE.molecule({"B": 1, "D": 1}), {"X": 1.0, "Y": 1.0},
        )
        assert sorted(schedule.atom_sequence()) == ["A", "C"]
