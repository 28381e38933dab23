"""Golden trace-schema tests.

The committed files under ``tests/data/`` pin the event-log schema *and*
the simulation's determinism: the same pinned run (HEF, 6 ACs, 1 frame,
seed 2008) must produce byte-for-byte the same serialised events on
every machine.  If an intentional change breaks this, regenerate the
goldens **and bump** ``OBS_SCHEMA_VERSION`` — consumers of stored logs
rely on the version gate, never on silent drift.
"""

import copy
import json
from pathlib import Path

import pytest

from repro import RecordingTracer, generate_workload
from repro.core.schedulers import get_scheduler
from repro.errors import ObservabilityError
from repro.obs import (
    OBS_SCHEMA,
    OBS_SCHEMA_VERSION,
    events_from_json_dict,
    events_to_json_dict,
    read_event_log,
    to_chrome_trace,
    validate_chrome_trace,
    write_event_log,
)
from repro.sim.rispp import RisppSimulator

DATA = Path(__file__).parent / "data"
GOLDEN_LOG = DATA / "golden_event_log.json"
GOLDEN_CHROME = DATA / "golden_chrome_trace.json"
GOLDEN_PREFETCH_LOG = DATA / "golden_prefetch_event_log.json"


@pytest.fixture(scope="module")
def pinned_events(h264_library, h264_registry):
    """The events of the pinned golden run."""
    tracer = RecordingTracer()
    sim = RisppSimulator(
        h264_library, h264_registry, get_scheduler("HEF"), 6, tracer=tracer
    )
    sim.run(generate_workload(num_frames=1, seed=2008))
    return list(tracer)


@pytest.fixture(scope="module")
def pinned_prefetch_events(h264_library, h264_registry):
    """The pinned speculative run (PREFETCH, 16 ACs, 2 frames).

    16 ACs because that is where the h264 selection leaves fabric slack
    and speculative loads actually reach the bus — the golden must pin
    the *speculating* code path, not an all-drops no-op.
    """
    tracer = RecordingTracer()
    sim = RisppSimulator(
        h264_library,
        h264_registry,
        get_scheduler("PREFETCH", confidence=0.3, budget=4),
        16,
        tracer=tracer,
    )
    sim.run(generate_workload(num_frames=2, seed=2008))
    return list(tracer)


def _canonical(obj):
    return json.dumps(obj, sort_keys=True)


def test_golden_event_log_matches(pinned_events):
    golden = json.loads(GOLDEN_LOG.read_text())
    assert _canonical(events_to_json_dict(pinned_events)) == (
        _canonical(golden)
    )


def test_golden_log_round_trips(pinned_events):
    assert events_from_json_dict(json.loads(GOLDEN_LOG.read_text())) == (
        pinned_events
    )


def test_golden_chrome_trace_matches(pinned_events):
    golden = json.loads(GOLDEN_CHROME.read_text())
    assert _canonical(to_chrome_trace(pinned_events)) == _canonical(golden)


def test_golden_chrome_trace_validates():
    validate_chrome_trace(json.loads(GOLDEN_CHROME.read_text()))


def test_schema_envelope_fields(pinned_events):
    log = events_to_json_dict(pinned_events)
    assert log["schema"] == OBS_SCHEMA
    assert log["schema_version"] == OBS_SCHEMA_VERSION
    assert log["num_events"] == len(log["events"]) == len(pinned_events)


def test_unknown_schema_version_rejected(pinned_events):
    log = events_to_json_dict(pinned_events)
    bumped = copy.deepcopy(log)
    bumped["schema_version"] = OBS_SCHEMA_VERSION + 1
    with pytest.raises(ObservabilityError):
        events_from_json_dict(bumped)


def test_previous_schema_version_rejected(pinned_events):
    # v3 logs predate the prefetch events; replaying one against the v4
    # reader must fail loudly, not silently drop or misread events.
    log = events_to_json_dict(pinned_events)
    downgraded = copy.deepcopy(log)
    downgraded["schema_version"] = OBS_SCHEMA_VERSION - 1
    with pytest.raises(ObservabilityError):
        events_from_json_dict(downgraded)


def test_golden_prefetch_event_log_matches(pinned_prefetch_events):
    golden = json.loads(GOLDEN_PREFETCH_LOG.read_text())
    assert _canonical(events_to_json_dict(pinned_prefetch_events)) == (
        _canonical(golden)
    )


def test_golden_prefetch_log_round_trips(pinned_prefetch_events):
    events = events_from_json_dict(
        json.loads(GOLDEN_PREFETCH_LOG.read_text())
    )
    assert events == pinned_prefetch_events


def test_golden_prefetch_log_exercises_speculation():
    # Guard against regenerating the golden from a configuration where
    # speculation never fires: the pinned log must contain the whole
    # prefetch event family, including flagged speculative load starts.
    golden = json.loads(GOLDEN_PREFETCH_LOG.read_text())
    kinds = [event["kind"] for event in golden["events"]]
    issued = kinds.count("prefetch_issued")
    hits = kinds.count("prefetch_hit")
    wasted = kinds.count("prefetch_wasted")
    assert issued > 0 and hits > 0
    assert issued == hits + wasted
    assert any(
        event["kind"] == "load_start" and event.get("speculative")
        for event in golden["events"]
    )


def test_wrong_schema_name_rejected(pinned_events):
    log = events_to_json_dict(pinned_events)
    renamed = copy.deepcopy(log)
    renamed["schema"] = "somebody-elses-log"
    with pytest.raises(ObservabilityError):
        events_from_json_dict(renamed)


def test_unknown_event_kind_rejected(pinned_events):
    log = events_to_json_dict(pinned_events)
    mutated = copy.deepcopy(log)
    mutated["events"][0]["kind"] = "not-an-event"
    with pytest.raises(ObservabilityError):
        events_from_json_dict(mutated)


def test_event_log_file_round_trip(pinned_events, tmp_path):
    path = tmp_path / "log.json"
    write_event_log(pinned_events, path)
    assert read_event_log(path) == pinned_events


def test_golden_event_log_bytes(pinned_events, tmp_path):
    # The comparisons above re-dump both sides; this one pins the writer's
    # exact bytes: key order, indentation, float spelling, trailing newline.
    path = write_event_log(pinned_events, tmp_path / "log.json")
    assert path.read_bytes() == GOLDEN_LOG.read_bytes()


def test_golden_prefetch_event_log_bytes(pinned_prefetch_events, tmp_path):
    path = write_event_log(pinned_prefetch_events, tmp_path / "log.json")
    assert path.read_bytes() == GOLDEN_PREFETCH_LOG.read_bytes()
