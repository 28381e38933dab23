"""Golden regressions on the one trace-replay engine.

The vector executor (:mod:`repro.sim.vector`) and the array-backed
planner (:mod:`repro.core.scoring`) are the only simulation path.  This
module drives them through the pinned scenarios and whole outputs:

* the live golden sweep with every cell traced: the exact
  ``total_cycles`` per cell, each event log replaying to its total;
* the run behind the committed obs golden event log, untraced,
  cross-checked against the event counts stored in the golden log;
* the serialised Figure 7 artifact and the ``repro sweep`` CLI output,
  byte-identical to what the reference per-span loop produced before
  it was deleted (digests in ``tests/data/golden_engine_results.json``),
  and, behind ``REPRO_PAPER_SCALE=1``, the committed
  ``artifacts/full_sweep_results.json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    ExperimentScale,
    render_fig7_artifact,
    run_figure7,
)
from repro.core.schedulers import get_scheduler
from repro.exec import run_sweep
from repro.obs import RecordingTracer
from repro.obs.replay import replay_total_cycles
from repro.sim.rispp import RisppSimulator
from repro.workload.model import generate_workload

from tests.engine_golden import (
    assert_artifact_matches_golden,
    cli_sweep_stdout,
    fig7_artifact,
)
from tests.test_golden_fig7 import _GOLDEN_CYCLES, _GOLDEN_SPEC

ARTIFACT_JSON = (
    Path(__file__).resolve().parent.parent
    / "artifacts"
    / "full_sweep_results.json"
)
GOLDEN_LOG = Path(__file__).parent / "data" / "golden_event_log.json"


def test_live_goldens_under_vector_engine():
    """The pinned sweep's exact cycle counts with every cell traced."""
    traces = {}

    def on_trace(cell, tracer):
        if cell.system != "Software":  # the base processor emits nothing
            traces[cell.label] = list(tracer)

    report = run_sweep(
        _GOLDEN_SPEC,
        jobs=1,
        tracer_factory=lambda cell: RecordingTracer(),
        on_trace=on_trace,
    )
    actual = {o.cell.label: o.result.total_cycles for o in report}
    assert actual == _GOLDEN_CYCLES, "tracing moved the live goldens"
    workload = _GOLDEN_SPEC.workload.build()
    replayed = {
        label: replay_total_cycles(events, workload)
        for label, events in traces.items()
    }
    assert replayed == {
        label: cycles
        for label, cycles in _GOLDEN_CYCLES.items()
        if not label.startswith("Software")
    }


def test_obs_golden_run_untraced_vector(h264_library, h264_registry):
    """The golden event log's run, re-simulated without a tracer, must
    agree with the traced run and with what the committed log records."""
    workload = generate_workload(num_frames=1, seed=2008)

    vec = RisppSimulator(
        h264_library, h264_registry, get_scheduler("HEF"), 6
    ).run(workload)

    tracer = RecordingTracer()
    traced = RisppSimulator(
        h264_library, h264_registry, get_scheduler("HEF"), 6, tracer=tracer
    ).run(workload)
    assert vec == traced

    # Cross-check against the committed log: the untraced result's load
    # and eviction accounting must equal the golden event counts.
    events = json.loads(GOLDEN_LOG.read_text())["events"]
    kinds = {}
    for event in events:
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
    assert vec.loads_started == kinds["load_start"]
    assert vec.loads_completed == kinds["load_complete"]
    assert vec.evictions == kinds["eviction"]


def test_fig7_artifact_bytes_identical_across_engines():
    """The Figure 7 artifact bytes the reference engine serialised.

    A reduced scale keeps this in the tier-1 budget; the committed
    paper-scale artifact is pinned byte-for-byte behind
    ``REPRO_PAPER_SCALE=1`` below.
    """
    assert_artifact_matches_golden("fig7/4f/5,8,12", fig7_artifact())


@pytest.mark.skipif(
    os.environ.get("REPRO_PAPER_SCALE") != "1",
    reason="paper-scale sweep (140 frames); set REPRO_PAPER_SCALE=1",
)
def test_committed_artifact_reproduced_by_vector_engine():
    """``artifacts/full_sweep_results.json``, byte-for-byte, at the full
    140-frame paper scale."""
    result = run_figure7(ExperimentScale(frames=140))
    assert render_fig7_artifact(result) == ARTIFACT_JSON.read_text()


def test_cli_sweep_identical_across_engines():
    """``repro sweep`` prints what it printed on the reference engine,
    up to wall-clock timings."""
    assert_artifact_matches_golden(
        "cli-sweep/HEF/2f/6,10", cli_sweep_stdout()
    )
