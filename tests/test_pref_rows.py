"""Dispatch preference rows and entries, built once per process.

The span executor keeps each dispatch key's sparse preference rows, and
its map from loaded counts to dispatch entries, in a process-wide memo
keyed by system class, library identity, processor and dispatch memo
key.  These tests pin that the memo serves exactly what ``_pref_rows``
and ``_dispatch`` would build fresh, that libraries and processors never
share rows, and that the memo and each entry map stay bounded.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro import (
    AtomRegistry,
    AtomSpace,
    MoleculeImpl,
    SILibrary,
    SpecialInstruction,
    generate_workload,
)
from repro.core.schedulers import get_scheduler
from repro.h264.silibrary import h264_platform
from repro.isa.processor import BaseProcessor
from repro.sim import vector
from repro.sim.molen import MolenSimulator
from repro.sim.rispp import RisppSimulator
from repro.sim.vector import VectorExecutor
from repro.workload.trace import HotSpotTrace

REGISTRY, LIBRARY = h264_platform()
WORKLOAD = generate_workload(num_frames=3, seed=5)

SYSTEMS = {
    "HEF@8": lambda: RisppSimulator(LIBRARY, REGISTRY, get_scheduler("HEF"), 8),
    "Molen@4": lambda: MolenSimulator(LIBRARY, REGISTRY, 4),
    "Molen@12": lambda: MolenSimulator(LIBRARY, REGISTRY, 12),
}

TOY = AtomSpace(["A", "B"])


def toy_library(latency: int) -> SILibrary:
    """Two SIs whose names and atoms never change; only latencies do."""
    sis = [
        SpecialInstruction(
            name,
            TOY,
            100 + latency,
            [
                MoleculeImpl(name, "m1", TOY.molecule([1, 0]), latency),
                MoleculeImpl(name, "m2", TOY.molecule([1, 1]), latency // 2),
            ],
        )
        for name in ("X", "Y")
    ]
    return SILibrary(TOY, sis)


def toy_rows(library: SILibrary, processor: BaseProcessor = BaseProcessor()):
    """The rows the memo serves to a RISPP run over ``library``."""
    sim = RisppSimulator(
        library, AtomRegistry.uniform(TOY.names), get_scheduler("HEF"), 4,
        processor=processor,
    )
    trace = HotSpotTrace("H", ("X", "Y"), np.ones((2, 2), dtype=np.int64))
    context = sim._plan(trace, TOY.zero())[2]
    memo_key = sim._dispatch_memo_key(trace, context)
    return VectorExecutor(sim)._shared_dispatch(trace, context, memo_key)[0]


class TestProcessWideRows:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_served_rows_equal_fresh_rows(self, monkeypatch, name):
        served = []
        shared_dispatch = VectorExecutor._shared_dispatch

        def checked(self, trace, context, memo_key):
            rows, entries = shared_dispatch(self, trace, context, memo_key)
            assert rows == self._pref_rows(trace, context)
            served.append(rows)
            return rows, entries

        monkeypatch.setattr(VectorExecutor, "_shared_dispatch", checked)
        first = SYSTEMS[name]().run(WORKLOAD)
        second = SYSTEMS[name]().run(WORKLOAD)
        assert first == second
        assert len(served) == 2 * len(WORKLOAD.traces)

    def test_second_run_builds_no_rows(self, monkeypatch):
        SYSTEMS["HEF@8"]().run(WORKLOAD)
        builds = []
        pref_rows = VectorExecutor._pref_rows

        def counted(self, trace, context):
            builds.append(trace.si_names)
            return pref_rows(self, trace, context)

        monkeypatch.setattr(VectorExecutor, "_pref_rows", counted)
        SYSTEMS["HEF@8"]().run(WORKLOAD)
        assert builds == []

    def test_libraries_with_equal_names_never_share_rows(self):
        for latency in range(40, 80, 2):
            rows = toy_rows(toy_library(latency))
            for column in rows:
                assert [cycles for _, cycles, _ in column][:2] == [
                    latency // 2,
                    latency,
                ]

    def test_memo_pins_its_libraries(self):
        # A freed library's id() could be handed to the next library
        # built; the entry keeps the keyed library alive instead.
        library = toy_library(60)
        toy_rows(library)
        ref = weakref.ref(library)
        del library
        gc.collect()
        assert ref() is not None

    def test_processors_never_share_rows(self):
        library = toy_library(40)
        for trap in (0, 24, 50):
            rows = toy_rows(library, BaseProcessor(trap_overhead=trap))
            software = rows[0][-1]
            assert software[2].is_software
            assert software[1] == 140 + trap

    def test_memo_stays_within_its_bound(self):
        memo = vector._PREF_ROWS
        library = toy_library(40)
        for trap in range(memo.maxsize + 8):
            toy_rows(library, BaseProcessor(trap_overhead=trap))
        assert len(memo) <= memo.maxsize


class TestProcessWideEntries:
    def held_entries(self):
        """``(executor, rows, entries)`` of every h264 dispatch key."""
        sim = SYSTEMS["HEF@8"]()
        return [
            (VectorExecutor(sim), rows, entries)
            for library, rows, entries in vector._PREF_ROWS.values()
            if library is LIBRARY
        ]

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_served_entries_equal_fresh_dispatch(self, name):
        first = SYSTEMS[name]().run(WORKLOAD)
        assert SYSTEMS[name]().run(WORKLOAD) == first
        held = self.held_entries()
        assert any(entries for _, _, entries in held)
        for executor, rows, entries in held:
            for avail, entry in entries.items():
                assert entry == executor._dispatch(rows, avail)

    def test_second_run_dispatches_nothing(self, monkeypatch):
        SYSTEMS["HEF@8"]().run(WORKLOAD)
        calls = []
        dispatch = VectorExecutor._dispatch

        def counted(self, columns, avail_counts):
            calls.append(avail_counts)
            return dispatch(self, columns, avail_counts)

        monkeypatch.setattr(VectorExecutor, "_dispatch", counted)
        SYSTEMS["HEF@8"]().run(WORKLOAD)
        assert calls == []

    def test_entry_maps_stay_within_their_bound(self, monkeypatch):
        unbounded = SYSTEMS["HEF@8"]().run(WORKLOAD)
        vector._PREF_ROWS.clear()
        monkeypatch.setattr(vector, "_ENTRIES_PER_KEY", 2)
        assert SYSTEMS["HEF@8"]().run(WORKLOAD) == unbounded
        held = self.held_entries()
        assert held
        assert all(len(entries) <= 2 for _, _, entries in held)
        assert any(len(entries) == 2 for _, _, entries in held)
