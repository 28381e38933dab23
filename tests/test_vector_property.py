"""Property-based differential test: random workloads, independent replay.

Hypothesis draws arbitrary workloads over the real H.264 SI library —
random hot-spot composition, random per-iteration execution counts
(including all-zero iterations and empty-ish traces), random iteration
overheads, random AC budgets, schedulers (speculative PREFETCH
included), and fault schedules — and checks every run against two
oracles that share no code with the span executor:

* the run's event log, walked iteration by iteration by the naive
  interpreter in :mod:`repro.obs.replay`, must add up to exactly the
  ``total_cycles`` the run reported;
* the traced and the untraced run must produce *bit-identical*
  :class:`~repro.sim.results.SimulationResult`s — observing a run never
  changes it.

Where ``tests/test_vector_differential.py`` pins a structured grid,
this module hunts the corners no grid enumerates: single-iteration
traces, duplicate frames, hot spots revisited with wildly different
counts, retry-heavy fault schedules.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedulers import get_scheduler
from repro.fabric.faults import BernoulliLoadFaults, RetryPolicy
from repro.h264.silibrary import build_atom_registry, build_si_library
from repro.obs import RecordingTracer
from repro.obs.replay import replay_total_cycles
from repro.sim.rispp import RisppSimulator
from repro.workload.trace import HotSpotTrace, Workload

REGISTRY = build_atom_registry()
LIBRARY = build_si_library(REGISTRY)

#: Hot-spot SI pools the random traces draw from (subsets of the real
#: library, so molecule lattices stay meaningful).
SI_POOL = tuple(LIBRARY.si_names)


@st.composite
def random_trace(draw, frame_index):
    hot_spot = draw(st.sampled_from(["ME", "EE", "LF", "XX"]))
    num_sis = draw(st.integers(min_value=1, max_value=min(5, len(SI_POOL))))
    si_names = tuple(
        draw(
            st.lists(
                st.sampled_from(SI_POOL),
                min_size=num_sis,
                max_size=num_sis,
                unique=True,
            )
        )
    )
    iterations = draw(st.integers(min_value=1, max_value=24))
    counts = np.array(
        draw(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=12),
                    min_size=len(si_names),
                    max_size=len(si_names),
                ),
                min_size=iterations,
                max_size=iterations,
            )
        ),
        dtype=np.int64,
    )
    overhead = draw(st.integers(min_value=0, max_value=50))
    return HotSpotTrace(
        hot_spot=hot_spot,
        si_names=si_names,
        counts=counts,
        overhead_per_iteration=overhead,
        frame_index=frame_index,
    )


@st.composite
def random_workload(draw):
    num_traces = draw(st.integers(min_value=1, max_value=6))
    workload = Workload(name="hypothesis-workload")
    for i in range(num_traces):
        frame = draw(st.integers(min_value=0, max_value=2))
        workload.append(draw(random_trace(frame)))
    return workload


@st.composite
def random_setup(draw):
    workload = draw(random_workload())
    scheduler = draw(
        st.sampled_from(["FSFR", "ASF", "SJF", "HEF", "PREFETCH"])
    )
    acs = draw(st.integers(min_value=1, max_value=14))
    fault_rate = draw(st.sampled_from([0.0, 0.05, 0.3]))
    fault_seed = draw(st.integers(min_value=0, max_value=2**16))
    max_retries = draw(st.integers(min_value=0, max_value=3))
    record = draw(st.booleans())
    return workload, scheduler, acs, fault_rate, fault_seed, max_retries, record


def _run(workload, scheduler, acs, fault_rate, fault_seed, max_retries,
         record, tracer=None):
    kwargs = {"confidence": 0.3} if scheduler == "PREFETCH" else {}
    sim = RisppSimulator(
        LIBRARY,
        REGISTRY,
        get_scheduler(scheduler, **kwargs),
        acs,
        record_segments=record,
        fault_model=(
            BernoulliLoadFaults(fault_rate, seed=fault_seed)
            if fault_rate
            else None
        ),
        retry_policy=RetryPolicy(max_retries=max_retries),
        tracer=tracer,
    )
    return sim.run(workload)


def assert_replay_agrees(workload, run):
    """``run(tracer)`` traced and untraced: same result, and the event
    log replays to its total."""
    tracer = RecordingTracer()
    traced = run(tracer)
    untraced = run(None)
    for field in dataclasses.fields(traced):
        t = getattr(traced, field.name)
        u = getattr(untraced, field.name)
        assert t == u, (
            f"traced/untraced diverged on {field.name!r}: {t!r} != {u!r}"
        )
    assert replay_total_cycles(list(tracer), workload) == (
        traced.total_cycles
    )


@settings(max_examples=40, deadline=None)
@given(setup=random_setup())
def test_random_workloads_bit_identical(setup):
    assert_replay_agrees(setup[0], lambda tracer: _run(*setup, tracer))


@settings(max_examples=10, deadline=None)
@given(
    frames=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
    acs=st.integers(min_value=4, max_value=16),
)
def test_model_workloads_bit_identical(frames, seed, acs):
    """The H.264 model generator under random seeds/scales."""
    from repro.workload.model import generate_workload

    workload = generate_workload(num_frames=frames, seed=seed)
    assert_replay_agrees(
        workload,
        lambda tracer: RisppSimulator(
            LIBRARY, REGISTRY, get_scheduler("HEF"), acs, tracer=tracer
        ).run(workload),
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
