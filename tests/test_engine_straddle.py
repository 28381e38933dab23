"""Span-batching edge cases: straddled completions and mid-span events.

The trace replay batches iterations into spans that end at the next
reconfiguration-port completion, counting the iteration *in flight*
when the completion lands at the old latencies.  The nastiest corners
of that rule:

* **Final-iteration straddle** — the completion lands inside the last
  iteration of the run, so it is never processed (no later
  ``advance_to`` exists).  The load must stay in flight, accounted as
  started-but-not-completed, with the exact final cycle.
* **Mid-iteration eviction under faults** — a completion mid-span
  immediately starts the next queued load, whose placement evicts an
  LRU container *between* iteration boundaries, while fault-induced
  retries stretch the port timeline.  Eviction timing feeds the LRU
  state the next scheduling decision sees, so a divergence here skews
  whole sweeps, not just one span.

These are regression tests for the span/searchsorted straddle math in
``sim/vector.py`` (``execute``): each scenario first proves structurally
that the edge actually occurs (pending completion inside the final span;
eviction cycles strictly inside spans), then checks the run three ways:
against the reference per-span loop's pinned result
(``tests/data/golden_engine_results.json``), against the independent
per-iteration interpreter in :mod:`repro.obs.replay`, and traced
against untraced.
"""

from __future__ import annotations

import pytest

from repro.obs import RecordingTracer
from repro.obs.replay import replay_total_cycles

from tests.engine_golden import (
    assert_matches_golden,
    straddle_sim,
    straddle_workload,
)


def _checked_runs(name):
    """Traced and untraced run of one scenario, cross-checked."""
    workload = straddle_workload(name)
    tracer = RecordingTracer()
    traced = straddle_sim(name, tracer).run(workload)
    untraced = straddle_sim(name).run(workload)
    assert traced == untraced
    assert replay_total_cycles(list(tracer), workload) == (
        traced.total_cycles
    )
    assert_matches_golden(f"straddle/{name}", untraced)
    return traced, tracer


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_final_iteration_straddles_completion(traced):
    sim = straddle_sim("straddle", RecordingTracer() if traced else None)
    result = sim.run(straddle_workload("straddle"))
    # The edge really occurred: the first load's completion cycle lies
    # strictly inside the one-and-only iteration span, and the run
    # ended before any advance_to could process it.
    pending = sim.port.next_completion()
    assert pending is not None
    final = result.segments[-1]
    assert final.t0 < pending < final.t1 == result.total_cycles
    assert result.loads_started == 1
    assert result.loads_completed == 0


def test_final_straddle_identical_across_engines():
    _checked_runs("straddle")


def test_mid_iteration_eviction_under_faults():
    """Evictions strictly inside spans, with retries in the timeline."""
    traced, tracer = _checked_runs("evict")
    spans = [(s.t0, s.t1) for s in traced.segments]
    evictions = [
        e.cycle for e in tracer if type(e).__name__ == "Eviction"
    ]
    mid_span = [
        c for c in evictions if any(t0 < c < t1 for t0, t1 in spans)
    ]
    # The scenario must actually exercise the edge, not merely pass.
    assert mid_span, "no eviction landed strictly inside a span"
    assert traced.loads_retried > 0
    assert traced.degraded_cycles > 0
