"""An independent cycle oracle for the span executor.

The engine replays a trace span by span: prefix sums, cycle curves, a
``searchsorted`` per port completion and a dispatch memo.  The oracle
below shares none of that.  It takes only what a scheduler decided (its
atom order) and what the port does (one load after another, each taking
its atom's reconfiguration time), and walks the trace one iteration at a
time.  Each iteration charges its overhead plus, for every SI execution,
the fastest implementation whose atoms had all arrived when the
iteration began.

It is exact only where nothing is evicted and no load fails: one hot-spot
invocation on a fault-free fabric, whose selection always fits the ACs.
Hypothesis draws tiny libraries in the ``toy_library`` style and tiny
traces, and every scheduler but RANDOM must match the oracle's total.
Every latency, overhead and load time is a multiple of 100 cycles, so
iterations often end exactly when an atom arrives: the boundary where
"arrived" and "in flight" are easiest to confuse.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AtomSpace, MoleculeImpl, SILibrary, SpecialInstruction
from repro.core.schedulers import available_schedulers, get_scheduler
from repro.fabric.atom import AtomRegistry, AtomType
from repro.isa.processor import BaseProcessor
from repro.obs import RecordingTracer
from repro.obs.events import SchedulerDecision
from repro.sim.rispp import RisppSimulator
from repro.workload.trace import HotSpotTrace, Workload

ATOMS = ("A", "B", "C")
SPACE = AtomSpace(ATOMS)
SCHEDULERS = tuple(name for name in available_schedulers() if name != "RANDOM")


def oracle_cycles(library, registry, processor, trace, atom_order):
    """Total cycles of one hot-spot invocation, one iteration at a time."""
    start = processor.hot_spot_entry_overhead
    arrivals = []
    clock = start
    for atom in atom_order:
        clock += registry.reconfig_cycles(atom)
        arrivals.append((clock, atom))
    now = start
    for row in trace.counts.tolist():
        loaded = Counter(atom for cycle, atom in arrivals if cycle <= now)
        cost = trace.overhead_per_iteration
        for si_name, count in zip(trace.si_names, row):
            si = library.get(si_name)
            fastest = si.software_latency + processor.trap_overhead
            for impl in si.molecules:
                needs = impl.atoms.as_dict()
                if all(loaded[atom] >= n for atom, n in needs.items()):
                    fastest = min(fastest, impl.latency)
            cost += count * fastest
        now += cost
    return now


@st.composite
def special_instruction(draw, name):
    software = 100 * draw(st.integers(min_value=2, max_value=10))
    vectors = draw(
        st.lists(
            st.tuples(*[st.integers(0, 2) for _ in ATOMS]).filter(any),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    molecules = [
        MoleculeImpl(
            name,
            f"m{k}",
            SPACE.molecule(list(vector)),
            100 * draw(st.integers(1, software // 100 - 1)),
        )
        for k, vector in enumerate(vectors)
    ]
    return SpecialInstruction(name, SPACE, software, molecules)


@st.composite
def instance(draw):
    names = [f"SI{k}" for k in range(draw(st.integers(1, 3)))]
    library = SILibrary(SPACE, [draw(special_instruction(n)) for n in names])
    # 66 bytes load in exactly 100 cycles.
    registry = AtomRegistry(
        AtomType(atom, bitstream_bytes=66 * draw(st.integers(1, 6)))
        for atom in ATOMS
    )
    iterations = draw(st.integers(0, 10))
    counts = np.array(
        draw(
            st.lists(
                st.lists(
                    st.integers(0, 2), min_size=len(names), max_size=len(names)
                ),
                min_size=iterations,
                max_size=iterations,
            )
        ),
        dtype=np.int64,
    ).reshape(iterations, len(names))
    trace = HotSpotTrace(
        "H", tuple(names), counts, 100 * draw(st.integers(0, 1)), 0
    )
    processor = BaseProcessor(
        trap_overhead=100 * draw(st.integers(0, 1)),
        hot_spot_entry_overhead=100 * draw(st.integers(0, 3)),
    )
    num_acs = draw(st.integers(1, 8))
    return library, registry, processor, trace, num_acs


@settings(max_examples=100, deadline=None)
@given(instance())
def test_engine_totals_equal_the_oracle(case):
    library, registry, processor, trace, num_acs = case
    for name in SCHEDULERS:
        tracer = RecordingTracer()
        result = RisppSimulator(
            library,
            registry,
            get_scheduler(name),
            num_acs,
            processor=processor,
            tracer=tracer,
        ).run(Workload("oracle", [trace]))
        # The oracle's regime: nothing evicted, nothing failed.
        assert result.evictions == 0 and result.loads_failed == 0
        (decision,) = [
            e for e in tracer.events if isinstance(e, SchedulerDecision)
        ]
        expected = oracle_cycles(
            library, registry, processor, trace, decision.atom_sequence
        )
        assert result.total_cycles == expected, name
        assert result.hot_spot_cycles == {"H": expected}
