"""Replay state that outlives one run: shared traces and sparse dispatch.

Workloads built from equal specs share their trace objects, and each
trace keeps its prefix sums for every later replay.  These tests pin
that nothing leaks between runs through that shared state, and that the
span executor's sparse dispatch picks exactly what each system's
``_impl_for`` picks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AtomRegistry,
    AtomSpace,
    MoleculeImpl,
    SILibrary,
    SpecialInstruction,
    generate_workload,
)
from repro.core.molecule import Molecule
from repro.core.schedulers import get_scheduler
from repro.core.schedulers.prefetch import PrefetchScheduler
from repro.h264.silibrary import h264_platform
from repro.sim.molen import MolenSimulator
from repro.sim.rispp import RisppSimulator
from repro.sim.vector import VectorExecutor
from repro.workload.trace import HotSpotTrace, Workload

REGISTRY, LIBRARY = h264_platform()
SHARED = generate_workload(num_frames=3, seed=5)

#: name -> simulator factory.  Every run builds a fresh simulator.
SYSTEMS = {
    "HEF@4": lambda: RisppSimulator(LIBRARY, REGISTRY, get_scheduler("HEF"), 4),
    "HEF@12+segments": lambda: RisppSimulator(
        LIBRARY, REGISTRY, get_scheduler("HEF"), 12, record_segments=True
    ),
    "SJF@8": lambda: RisppSimulator(LIBRARY, REGISTRY, get_scheduler("SJF"), 8),
    "ASF@6": lambda: RisppSimulator(LIBRARY, REGISTRY, get_scheduler("ASF"), 6),
    "FSFR@20": lambda: RisppSimulator(
        LIBRARY, REGISTRY, get_scheduler("FSFR"), 20
    ),
    "PREFETCH@16": lambda: RisppSimulator(
        LIBRARY, REGISTRY, PrefetchScheduler(confidence=0.3), 16
    ),
    "Molen@6": lambda: MolenSimulator(LIBRARY, REGISTRY, 6),
}


def fresh_copy(workload: Workload) -> Workload:
    """The same workload over newly built traces (no cached prefix)."""
    return Workload(
        workload.name,
        [
            HotSpotTrace(
                t.hot_spot,
                t.si_names,
                np.array(t.counts),
                t.overhead_per_iteration,
                t.frame_index,
            )
            for t in workload
        ],
    )


_REFERENCE = {
    name: factory().run(fresh_copy(SHARED)) for name, factory in SYSTEMS.items()
}


class TestSharedTraces:
    def test_cached_prefix_is_read_only(self):
        trace = SHARED.traces[0]
        prefix = trace.prefix_sums()
        assert trace.prefix_sums() is prefix
        with pytest.raises(ValueError):
            prefix[1, 0] = 7
        with pytest.raises(ValueError):
            prefix += 1

    def test_prefix_matches_counts(self):
        trace = SHARED.traces[1]
        prefix = trace.prefix_sums()
        assert prefix.shape == (trace.iterations + 1, len(trace.si_names))
        assert not prefix[0].any()
        assert (np.diff(prefix, axis=0) == trace.counts).all()

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.sampled_from(sorted(SYSTEMS)), min_size=2, max_size=6))
    def test_interleaved_runs_equal_fresh_replays(self, order):
        for name in order:
            result = SYSTEMS[name]().run(Workload(SHARED.name, SHARED.traces))
            assert result == _REFERENCE[name], name


availability = st.lists(
    st.integers(0, 3), min_size=LIBRARY.space.size, max_size=LIBRARY.space.size
).map(tuple)


def _check_dispatch(sim, trace, context, avail_counts):
    space = sim.library.space
    executor = VectorExecutor(sim)
    columns = executor._pref_rows(trace, context)
    cycles, used, impls = executor._dispatch(columns, avail_counts)
    available = Molecule(space, avail_counts)
    expected = tuple(
        sim._impl_for(si_name, available, context) for si_name in trace.si_names
    )
    assert impls == expected
    assert cycles == tuple(
        sim.processor.si_execution_cycles(impl) for impl in expected
    )
    union = space.zero()
    for impl in expected:
        union = union | impl.atoms
    assert used == tuple(
        (name, count) for name, count in zip(space.names, union.counts) if count
    )


TOY = AtomSpace(["A", "B", "C"])


@st.composite
def toy_library(draw):
    """Two or three SIs whose molecules often tie on latency."""
    sis = []
    for k in range(draw(st.integers(2, 3))):
        name = f"SI{k}"
        vectors = draw(
            st.lists(
                st.tuples(*[st.integers(0, 2) for _ in range(3)]).filter(any),
                min_size=1,
                max_size=5,
                unique=True,
            )
        )
        molecules = [
            MoleculeImpl(
                name,
                f"m{j}",
                TOY.molecule(list(v)),
                draw(st.sampled_from([10, 20, 40])),
            )
            for j, v in enumerate(vectors)
        ]
        sis.append(SpecialInstruction(name, TOY, 100, molecules))
    return SILibrary(TOY, sis)


class TestSparseDispatch:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(range(len(SHARED.traces))), availability)
    def test_rispp_equals_impl_for(self, index, avail_counts):
        sim = RisppSimulator(LIBRARY, REGISTRY, get_scheduler("HEF"), 8)
        trace = SHARED.traces[index]
        _, _, context = sim._plan(trace, LIBRARY.space.zero())
        _check_dispatch(sim, trace, context, avail_counts)

    @settings(max_examples=60, deadline=None)
    @given(
        toy_library(),
        st.lists(st.integers(0, 3), min_size=3, max_size=3).map(tuple),
    )
    def test_rispp_equals_impl_for_on_tied_libraries(self, library, avail):
        sim = RisppSimulator(
            library, AtomRegistry.uniform(TOY.names), get_scheduler("HEF"), 8
        )
        trace = HotSpotTrace(
            "H", library.si_names, np.zeros((1, len(library)), dtype=np.int64)
        )
        _, _, context = sim._plan(trace, TOY.zero())
        _check_dispatch(sim, trace, context, avail)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(range(len(SHARED.traces))),
        st.integers(1, 24),
        availability,
    )
    def test_molen_equals_impl_for(self, index, num_acs, avail_counts):
        sim = MolenSimulator(LIBRARY, REGISTRY, num_acs)
        trace = SHARED.traces[index]
        _, _, context = sim._plan(trace, LIBRARY.space.zero())
        _check_dispatch(sim, trace, context, avail_counts)
