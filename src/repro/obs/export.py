"""Exporters: render a recorded run as JSON, Chrome trace, or text.

Three formats, one source of truth (the typed event list):

* **JSON event log** — a versioned schema
  (:data:`OBS_SCHEMA_VERSION`); round-trips losslessly through
  :func:`events_to_json_dict` / :func:`events_from_json_dict`.  Schema
  bumps are explicit: a log with a different version is rejected, never
  silently reinterpreted.  :func:`write_event_log` writes the text of
  ``json.dumps(events_to_json_dict(events), indent=1, sort_keys=True)``
  without building those dicts: each event class gets one table, built
  from its fields on first use, of pre-sorted keys with their
  separators and indents, and values are encoded by runtime type as
  :mod:`json` encodes them.  (Any ``indent`` turns off json's C
  encoder, so the dict route costs about four times as much.)  That
  ``json.dumps`` call is the oracle: ``tests/test_obs_encoder.py``
  checks the two byte for byte over every event kind, and the golden
  logs pin the bytes of two recorded runs.
* **Chrome trace-event format** — loadable in ``chrome://tracing`` or
  Perfetto (https://ui.perfetto.dev).  One duration track per Atom
  Container showing bitstream writes as B/E slices, a scheduler track
  with hot-spot switches and decisions as instant events, and one
  counter track per SI plotting its effective latency over time.
* **Plain-text timeline** — a terminal-friendly chronological summary.

Timestamps are simulated cycles rendered as microseconds (the prototype
runs at 100 MHz, so 1 cycle = 0.01 us; we keep 1 cycle = 1 us for
readability — the *shape* of the timeline is what matters).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ObservabilityError
from .events import (
    AcRetired,
    BreakerTransition,
    CellQuarantined,
    CellResumed,
    CellRetry,
    ContainerDead,
    DecisionStep,
    DegradedEnter,
    DegradedExit,
    DegradedServed,
    Eviction,
    HotSpotSwitch,
    LoadAbandoned,
    LoadComplete,
    LoadFailed,
    LoadRetry,
    LoadStart,
    PrefetchHit,
    PrefetchIssued,
    PrefetchWasted,
    RequestAdmitted,
    RequestCompleted,
    RequestPreempted,
    RequestShed,
    RunEnd,
    RunStart,
    SchedulerDecision,
    ServiceRecovered,
    SIUpgrade,
    SnapshotWritten,
    TenantDrained,
    TenantJoined,
    TraceEvent,
    event_from_json_dict,
    field_names,
)

__all__ = [
    "OBS_SCHEMA",
    "OBS_SCHEMA_VERSION",
    "TRACE_FORMATS",
    "events_to_json_dict",
    "events_from_json_dict",
    "write_event_log",
    "read_event_log",
    "to_chrome_trace",
    "validate_chrome_trace",
    "to_summary_text",
    "export_events",
]

#: Identifier of the event-log format.
OBS_SCHEMA = "repro.obs/event-log"

#: Version of the event-log schema.  Bump this (and extend the golden
#: test) whenever an event gains/loses fields or a kind is renamed —
#: readers reject logs whose version they do not know.
#: v2: sweep-supervisor events (cell_retry / cell_quarantined /
#: cell_resumed).
#: v3: multi-tenant service events (request_admitted / request_shed /
#: request_preempted / request_completed / degraded_served /
#: breaker_transition).
#: v4: cross-hot-spot prefetch events (prefetch_issued / prefetch_hit /
#: prefetch_wasted) and the ``speculative`` flag on load_start.
#: v5: crash-recovery and live-reconfiguration events
#: (snapshot_written / service_recovered / tenant_joined /
#: tenant_drained / ac_retired).
OBS_SCHEMA_VERSION = 5

#: The formats :func:`export_events` (and the CLI) understand.
TRACE_FORMATS = ("json", "chrome", "summary")


# -- JSON event log ------------------------------------------------------------


def events_to_json_dict(events: Sequence[TraceEvent]) -> Dict[str, Any]:
    """The versioned plain-JSON envelope of an event list."""
    return {
        "schema": OBS_SCHEMA,
        "schema_version": OBS_SCHEMA_VERSION,
        "num_events": len(events),
        "events": [event.to_json_dict() for event in events],
    }


def events_from_json_dict(data: Mapping[str, Any]) -> List[TraceEvent]:
    """Parse a :func:`events_to_json_dict` envelope back to typed events.

    Raises
    ------
    ObservabilityError
        When the envelope is not an event log, carries an unknown schema
        version, or contains malformed events.
    """
    if not isinstance(data, Mapping) or data.get("schema") != OBS_SCHEMA:
        raise ObservabilityError(
            f"not a {OBS_SCHEMA} document: schema="
            f"{data.get('schema') if isinstance(data, Mapping) else data!r}"
        )
    version = data.get("schema_version")
    if version != OBS_SCHEMA_VERSION:
        raise ObservabilityError(
            f"unsupported event-log schema version {version!r}; this "
            f"reader understands version {OBS_SCHEMA_VERSION} only — "
            f"schema bumps are explicit, re-record the trace"
        )
    raw_events = data.get("events")
    if not isinstance(raw_events, list):
        raise ObservabilityError("event log carries no 'events' list")
    return [event_from_json_dict(raw) for raw in raw_events]


def write_event_log(
    events: Sequence[TraceEvent], path: Union[str, Path]
) -> Path:
    """Write the JSON event log to ``path``; wraps I/O failures.

    The text is ``json.dumps(events_to_json_dict(events), indent=1,
    sort_keys=True)``, byte for byte, encoded straight from the typed
    events (see :func:`_encode_record`).
    """
    parts: List[str] = ['{\n "events": [']
    if events:
        separator = "\n  "
        for event in events:
            parts.append(separator)
            _encode_record(event, _record_table(type(event), 2), parts)
            separator = ",\n  "
        parts.append("\n ")
    parts.append(
        f'],\n "num_events": {len(events)},'
        f'\n "schema": {_encode_str(OBS_SCHEMA)},'
        f'\n "schema_version": {OBS_SCHEMA_VERSION}\n}}'
    )
    return _write_text(path, "".join(parts))


# A record's encoding table: one ``(prefix, field name)`` pair per field
# in sorted-key order, the text that closes the record, and the indent
# level its members close at.  A prefix holds the separator, newline,
# indent and quoted key of its field; the constant ``"kind": "<tag>"``
# member is folded into its neighbour.
_RecordTable = Tuple[Tuple[Tuple[str, str], ...], str, int]

_encode_str = json.encoder.encode_basestring_ascii
_INFINITY = float("inf")
_TABLES: Dict[Tuple[type, int], _RecordTable] = {}


def _record_table(cls: type, level: int) -> _RecordTable:
    """The encoding table of ``cls`` for a record closing at ``level``.

    Built once per class and indent level from the same field table the
    record's ``to_json_dict`` reads; an event's keys are its fields plus
    ``kind``, a decision step's its fields alone.
    """
    table = _TABLES.get((cls, level))
    if table is not None:
        return table
    kind = cls.kind if issubclass(cls, TraceEvent) else None
    keys = list(field_names(cls))
    if kind is not None:
        keys.append("kind")
    pairs: List[Tuple[str, str]] = []
    # Text not yet emitted: the opening brace or a separator, plus the
    # kind member once its key comes up.
    carry = "{"
    for key in sorted(keys):
        member = f"\n{' ' * (level + 1)}{_encode_str(key)}: "
        if key == "kind":
            carry += member + _encode_str(kind) + ","
        else:
            pairs.append((carry + member, key))
            carry = ","
    # With any key, ``carry`` ends in the separator no member follows.
    closing = carry[:-1] + f"\n{' ' * level}}}" if keys else "{}"
    table = _TABLES[(cls, level)] = (tuple(pairs), closing, level + 1)
    return table


def _encode_record(record: Any, table: _RecordTable, parts: List[str]) -> None:
    """Append the JSON text of a dataclass record to ``parts``.

    Values are encoded by their runtime type, as :mod:`json` would, not
    by their annotation: an int in a float field prints as an int.
    """
    pairs, closing, inner = table
    for prefix, name in pairs:
        parts.append(prefix)
        value = getattr(record, name)
        value_type = type(value)
        if value_type is str:
            parts.append(_encode_str(value))
        elif value_type is int:
            parts.append(int.__repr__(value))
        else:
            _encode_value(value, inner, parts)
    parts.append(closing)


def _encode_value(value: Any, level: int, parts: List[str]) -> None:
    """Append the JSON text of ``value`` (closing at ``level``).

    Follows ``json.encoder``'s type order: str, None, bools, int, float
    (``NaN``/``Infinity`` spelled as json spells them), then tuples and
    lists as indented arrays; decision steps nest as records.
    """
    if isinstance(value, str):
        parts.append(_encode_str(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            parts.append("NaN")
        elif value == _INFINITY:
            parts.append("Infinity")
        elif value == -_INFINITY:
            parts.append("-Infinity")
        else:
            parts.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        newline = "\n" + " " * (level + 1)
        separator = "[" + newline
        for item in value:
            parts.append(separator)
            if isinstance(item, DecisionStep):
                _encode_record(
                    item, _record_table(DecisionStep, level + 1), parts
                )
            else:
                _encode_value(item, level + 1, parts)
            separator = "," + newline
        parts.append("\n" + " " * level + "]")
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )


def read_event_log(path: Union[str, Path]) -> List[TraceEvent]:
    """Load a JSON event log written by :func:`write_event_log`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ObservabilityError(
            f"cannot read event log {str(path)!r}: {exc}"
        ) from exc
    except ValueError as exc:
        raise ObservabilityError(
            f"event log {str(path)!r} is not valid JSON: {exc}"
        ) from exc
    return events_from_json_dict(data)


def _write_text(path: Union[str, Path], text: str) -> Path:
    path = Path(path)
    try:
        path.write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise ObservabilityError(
            f"cannot write trace to {str(path)!r}: {exc}"
        ) from exc
    return path


# -- Chrome trace-event format -------------------------------------------------

_PID = 1
_SCHED_TID = 0


def _ac_tid(container_index: int) -> int:
    return container_index + 1


def to_chrome_trace(events: Sequence[TraceEvent]) -> Dict[str, Any]:
    """Render events in the Chrome trace-event (JSON object) format.

    Track layout: tid 0 is the scheduler track (hot-spot switches and
    scheduler decisions as instant events), tid ``i + 1`` is Atom
    Container ``i`` (every bitstream write as one B/E slice — completed,
    failed and run-truncated loads alike, the latter closed at run end
    and tagged ``truncated``).  SI latencies are emitted as counter
    events, which Perfetto plots as step lines — Figure 8's latency
    timeline, straight from the trace.

    Timestamps within one track are kept *strictly* increasing (the
    trace-event spec's nesting rules): same-cycle neighbours on a track
    are offset by a sub-cycle epsilon, which is invisible at cycle
    resolution but keeps every viewer and validator happy.
    """
    trace_events: List[Dict[str, Any]] = []
    acs_seen: List[int] = []
    open_loads: Dict[int, LoadStart] = {}
    last_ts: Dict[Tuple[int, int], float] = {}
    run_end_cycle: Optional[int] = None

    def stamp(tid: int, cycle: int) -> float:
        """Strictly-increasing timestamp for ``cycle`` on track ``tid``."""
        ts = float(cycle)
        previous = last_ts.get((_PID, tid))
        if previous is not None and ts <= previous:
            ts = previous + 1e-3
        last_ts[(_PID, tid)] = ts
        return ts

    def emit(record: Dict[str, Any]) -> None:
        trace_events.append(record)

    def begin_load(event: LoadStart) -> None:
        tid = _ac_tid(event.container_index)
        if event.container_index not in acs_seen:
            acs_seen.append(event.container_index)
        open_loads[event.container_index] = event
        emit(
            {
                "name": f"load {event.atom_type}",
                "ph": "B",
                "pid": _PID,
                "tid": tid,
                "ts": stamp(tid, event.cycle),
                "args": {
                    "atom": event.atom_type,
                    "attempt": event.attempt,
                    "speculative": event.speculative,
                },
            }
        )

    def end_load(
        container_index: int, cycle: int, args: Dict[str, Any]
    ) -> None:
        started = open_loads.pop(container_index, None)
        if started is None:
            return
        tid = _ac_tid(container_index)
        emit(
            {
                "name": f"load {started.atom_type}",
                "ph": "E",
                "pid": _PID,
                "tid": tid,
                "ts": stamp(tid, cycle),
                "args": args,
            }
        )

    for event in events:
        if isinstance(event, RunEnd):
            run_end_cycle = event.cycle
        if isinstance(event, LoadStart):
            begin_load(event)
        elif isinstance(event, LoadComplete):
            end_load(event.container_index, event.cycle, {"outcome": "ok"})
        elif isinstance(event, LoadFailed):
            end_load(
                event.container_index,
                event.cycle,
                {"outcome": "failed", "fault": event.fault},
            )
        elif isinstance(event, HotSpotSwitch):
            emit(
                {
                    "name": f"hot spot {event.hot_spot}",
                    "ph": "i",
                    "s": "t",
                    "pid": _PID,
                    "tid": _SCHED_TID,
                    "ts": stamp(_SCHED_TID, event.cycle),
                    "args": {
                        "frame": event.frame_index,
                        "trace": event.trace_index,
                    },
                }
            )
        elif isinstance(event, SchedulerDecision):
            emit(
                {
                    "name": f"{event.scheduler} decision",
                    "ph": "i",
                    "s": "t",
                    "pid": _PID,
                    "tid": _SCHED_TID,
                    "ts": stamp(_SCHED_TID, event.cycle),
                    "args": {
                        "hot_spot": event.hot_spot,
                        "loads": len(event.atom_sequence),
                        "steps": [
                            {
                                "si": s.si_name,
                                "molecule": s.molecule,
                                "benefit_num": s.benefit_num,
                                "benefit_den": s.benefit_den,
                            }
                            for s in event.steps
                        ],
                    },
                }
            )
        elif isinstance(event, LoadRetry):
            emit(
                {
                    "name": f"retry {event.atom_type}",
                    "ph": "i",
                    "s": "t",
                    "pid": _PID,
                    "tid": _SCHED_TID,
                    "ts": stamp(_SCHED_TID, event.cycle),
                    "args": {
                        "attempt": event.attempt,
                        "backoff": event.backoff,
                    },
                }
            )
        elif isinstance(event, ContainerDead):
            emit(
                {
                    "name": f"AC{event.container_index} dead",
                    "ph": "i",
                    "s": "t",
                    "pid": _PID,
                    "tid": _SCHED_TID,
                    "ts": stamp(_SCHED_TID, event.cycle),
                    "args": {"container": event.container_index},
                }
            )
        elif isinstance(event, SIUpgrade):
            emit(
                {
                    "name": f"latency {event.si_name}",
                    "ph": "C",
                    "pid": _PID,
                    "tid": _SCHED_TID,
                    "ts": float(event.cycle),
                    "args": {"cycles": event.latency},
                }
            )
        elif isinstance(event, (CellRetry, CellQuarantined, CellResumed)):
            # Supervisor events carry no simulated clock (cycle 0); show
            # them as instants on the scheduler track so a chaos run's
            # harness activity is visible next to the run it wraps.
            if isinstance(event, CellRetry):
                name = f"cell retry {event.label}"
                args: Dict[str, Any] = {
                    "attempt": event.attempt,
                    "failure": event.failure,
                    "backoff_ms": event.backoff_ms,
                }
            elif isinstance(event, CellQuarantined):
                name = f"cell quarantined {event.label}"
                args = {
                    "attempts": event.attempts,
                    "failure": event.failure,
                }
            else:
                name = f"cell resumed {event.label}"
                args = {"source": event.source}
            emit(
                {
                    "name": name,
                    "ph": "i",
                    "s": "t",
                    "pid": _PID,
                    "tid": _SCHED_TID,
                    "ts": stamp(_SCHED_TID, event.cycle),
                    "args": args,
                }
            )
        elif isinstance(
            event, (PrefetchIssued, PrefetchHit, PrefetchWasted)
        ):
            # Prefetch events are scheduler-level speculation decisions;
            # they render as instants on the scheduler track so the
            # speculate/consume story reads next to the decisions.
            if isinstance(event, PrefetchIssued):
                name = f"prefetch {event.atom_type}"
                args = {
                    "hot_spot": event.hot_spot,
                    "predicted": event.predicted_hot_spot,
                    "confidence": event.confidence,
                }
            elif isinstance(event, PrefetchHit):
                name = f"prefetch hit {event.atom_type}"
                args = {"hot_spot": event.hot_spot}
            else:
                name = f"prefetch wasted {event.atom_type}"
                args = {"reason": event.reason}
            emit(
                {
                    "name": name,
                    "ph": "i",
                    "s": "t",
                    "pid": _PID,
                    "tid": _SCHED_TID,
                    "ts": stamp(_SCHED_TID, event.cycle),
                    "args": args,
                }
            )
        elif isinstance(
            event,
            (
                RequestAdmitted,
                RequestShed,
                RequestPreempted,
                RequestCompleted,
                DegradedServed,
                BreakerTransition,
                SnapshotWritten,
                ServiceRecovered,
                TenantJoined,
                TenantDrained,
                AcRetired,
            ),
        ):
            # Service events live on the arbiter's virtual-tick clock;
            # like supervisor events they render as instants on the
            # scheduler track so a soak's admission story reads inline.
            if isinstance(event, RequestAdmitted):
                name = f"admit {event.tenant}/{event.request_id}"
                args = {
                    "hot_spot": event.hot_spot,
                    "deadline": event.deadline,
                    "lease_acs": event.lease_acs,
                }
            elif isinstance(event, RequestShed):
                name = f"shed {event.tenant}/{event.request_id}"
                args = {"reason": event.reason}
            elif isinstance(event, RequestPreempted):
                name = f"preempt {event.tenant}/{event.request_id}"
                args = {
                    "reason": event.reason,
                    "preemptions": event.preemptions,
                    "backoff": event.backoff,
                }
            elif isinstance(event, RequestCompleted):
                name = f"complete {event.tenant}/{event.request_id}"
                args = {
                    "latency": event.latency,
                    "degraded": event.degraded,
                    "cache_hit": event.cache_hit,
                }
            elif isinstance(event, DegradedServed):
                name = f"degraded {event.tenant}/{event.request_id}"
                args = {"reason": event.reason}
            elif isinstance(event, SnapshotWritten):
                name = f"snapshot @{event.tick}"
                args = {
                    "path": event.path,
                    "journal_offset": event.journal_offset,
                }
            elif isinstance(event, ServiceRecovered):
                name = f"recovered ({event.source})"
                args = {
                    "resume_tick": event.resume_tick,
                    "tail_lines": event.tail_lines,
                }
            elif isinstance(event, TenantJoined):
                name = f"join {event.tenant}"
                args = {
                    "priority": event.priority,
                    "lease_acs": event.lease_acs,
                }
            elif isinstance(event, TenantDrained):
                name = f"drained {event.tenant}"
                args = {"completed": event.completed}
            elif isinstance(event, AcRetired):
                name = f"retire AC{event.index}"
                args = {"usable_acs": event.usable_acs}
            else:
                name = f"breaker {event.state}"
                args = {"faults": event.faults}
            emit(
                {
                    "name": name,
                    "ph": "i",
                    "s": "t",
                    "pid": _PID,
                    "tid": _SCHED_TID,
                    "ts": stamp(_SCHED_TID, event.cycle),
                    "args": args,
                }
            )

    # Close loads the run truncated (port still busy at the last trace's
    # end) so every B has its E.
    final = run_end_cycle
    if final is None:
        final = max((e.cycle for e in events), default=0)
    for container_index in sorted(open_loads):
        end_load(container_index, final, {"outcome": "truncated"})

    metadata: List[Dict[str, Any]] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": _SCHED_TID,
            "args": {"name": "scheduler"},
        }
    ]
    for container_index in sorted(acs_seen):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": _ac_tid(container_index),
                "args": {"name": f"AC{container_index}"},
            }
        )
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs", "clock": "cycles"},
    }


def validate_chrome_trace(trace: Mapping[str, Any]) -> None:
    """Check a Chrome trace against the spec's structural rules.

    Asserted properties: every record has ``ph``/``pid``/``tid``/``ts``
    (metadata aside), timestamps are strictly increasing per track for
    duration/instant events, and B/E events on each track pair up (equal
    names, no E without a B, nothing left open).

    Raises
    ------
    ObservabilityError
        On the first violation.
    """
    records = trace.get("traceEvents")
    if not isinstance(records, list):
        raise ObservabilityError("chrome trace has no traceEvents list")
    last_ts: Dict[Tuple[int, int], float] = {}
    stacks: Dict[Tuple[int, int], List[str]] = {}
    for record in records:
        ph = record.get("ph")
        if ph == "M":
            continue
        for key in ("pid", "tid", "ts", "name"):
            if key not in record:
                raise ObservabilityError(
                    f"trace record missing {key!r}: {record!r}"
                )
        track = (record["pid"], record["tid"])
        ts = float(record["ts"])
        if ph in ("B", "E", "i", "I"):
            previous = last_ts.get(track)
            if previous is not None and ts <= previous:
                raise ObservabilityError(
                    f"timestamp {ts} on track {track} is not strictly "
                    f"increasing (previous {previous}): {record!r}"
                )
            last_ts[track] = ts
        if ph == "B":
            stacks.setdefault(track, []).append(record["name"])
        elif ph == "E":
            stack = stacks.get(track)
            if not stack:
                raise ObservabilityError(
                    f"E without matching B on track {track}: {record!r}"
                )
            begun = stack.pop()
            if begun != record["name"]:
                raise ObservabilityError(
                    f"mismatched B/E pair on track {track}: opened "
                    f"{begun!r}, closed {record['name']!r}"
                )
    for track, stack in stacks.items():
        if stack:
            raise ObservabilityError(
                f"unclosed B events on track {track}: {stack!r}"
            )


# -- plain-text timeline -------------------------------------------------------


def to_summary_text(events: Sequence[TraceEvent]) -> str:
    """A chronological, human-readable timeline of the recorded run."""
    lines: List[str] = []
    loads = completions = upgrades = 0
    for event in events:
        prefix = f"{event.cycle:>12,}  "
        if isinstance(event, RunStart):
            lines.append(
                prefix
                + f"run start: {event.system}/{event.scheduler} @ "
                f"{event.num_acs} ACs, workload {event.workload_name}"
            )
        elif isinstance(event, HotSpotSwitch):
            lines.append(
                prefix
                + f"hot spot {event.hot_spot} (frame {event.frame_index})"
            )
        elif isinstance(event, SchedulerDecision):
            lines.append(
                prefix
                + f"{event.scheduler} schedules "
                f"{len(event.atom_sequence)} loads, "
                f"{len(event.steps)} upgrade steps"
            )
        elif isinstance(event, LoadStart):
            loads += 1
            attempt = f" (retry {event.attempt})" if event.attempt else ""
            lines.append(
                prefix
                + f"load {event.atom_type} -> AC{event.container_index}"
                + attempt
            )
        elif isinstance(event, LoadComplete):
            completions += 1
            lines.append(
                prefix
                + f"done {event.atom_type} @ AC{event.container_index}"
            )
        elif isinstance(event, LoadFailed):
            lines.append(
                prefix
                + f"FAIL {event.atom_type} @ AC{event.container_index} "
                f"({event.fault})"
            )
        elif isinstance(event, LoadRetry):
            lines.append(
                prefix
                + f"retry {event.atom_type} (attempt {event.attempt}, "
                f"backoff {event.backoff})"
            )
        elif isinstance(event, LoadAbandoned):
            lines.append(
                prefix + f"abandoned {event.atom_type} ({event.reason})"
            )
        elif isinstance(event, ContainerDead):
            lines.append(
                prefix + f"AC{event.container_index} permanently dead"
            )
        elif isinstance(event, Eviction):
            lines.append(
                prefix
                + f"evict {event.atom_type} from AC{event.container_index}"
            )
        elif isinstance(event, SIUpgrade):
            upgrades += 1
            how = "software" if event.software else event.molecule
            lines.append(
                prefix
                + f"{event.si_name} -> {how} ({event.latency} cyc/exec)"
            )
        elif isinstance(event, DegradedEnter):
            lines.append(prefix + "degraded mode entered")
        elif isinstance(event, DegradedExit):
            lines.append(prefix + "degraded mode left")
        elif isinstance(event, CellRetry):
            lines.append(
                prefix
                + f"cell {event.label} retry (attempt {event.attempt}, "
                f"{event.failure}, backoff {event.backoff_ms} ms)"
            )
        elif isinstance(event, CellQuarantined):
            lines.append(
                prefix
                + f"cell {event.label} QUARANTINED after "
                f"{event.attempts} attempts ({event.failure})"
            )
        elif isinstance(event, CellResumed):
            lines.append(
                prefix + f"cell {event.label} resumed from {event.source}"
            )
        elif isinstance(event, PrefetchIssued):
            lines.append(
                prefix
                + f"prefetch {event.atom_type} for "
                f"{event.predicted_hot_spot} (in {event.hot_spot}, "
                f"confidence {event.confidence:.2f})"
            )
        elif isinstance(event, PrefetchHit):
            lines.append(
                prefix
                + f"prefetch hit {event.atom_type} ({event.hot_spot})"
            )
        elif isinstance(event, PrefetchWasted):
            lines.append(
                prefix
                + f"prefetch wasted {event.atom_type} ({event.reason})"
            )
        elif isinstance(event, RequestAdmitted):
            lines.append(
                prefix
                + f"admit {event.tenant}/{event.request_id} "
                f"({event.hot_spot}, {event.lease_acs} ACs, "
                f"deadline {event.deadline})"
            )
        elif isinstance(event, RequestShed):
            lines.append(
                prefix
                + f"SHED {event.tenant}/{event.request_id} "
                f"({event.reason})"
            )
        elif isinstance(event, RequestPreempted):
            lines.append(
                prefix
                + f"preempt {event.tenant}/{event.request_id} "
                f"({event.reason}, #{event.preemptions}, "
                f"backoff {event.backoff})"
            )
        elif isinstance(event, RequestCompleted):
            how = "degraded" if event.degraded else "fabric"
            if event.cache_hit:
                how += ", cached"
            lines.append(
                prefix
                + f"complete {event.tenant}/{event.request_id} "
                f"({how}, latency {event.latency})"
            )
        elif isinstance(event, DegradedServed):
            lines.append(
                prefix
                + f"degraded answer {event.tenant}/{event.request_id} "
                f"({event.reason})"
            )
        elif isinstance(event, BreakerTransition):
            lines.append(
                prefix
                + f"breaker -> {event.state} ({event.faults} faults "
                f"in window)"
            )
        elif isinstance(event, SnapshotWritten):
            lines.append(
                prefix
                + f"snapshot @{event.tick} "
                f"(journal offset {event.journal_offset})"
            )
        elif isinstance(event, ServiceRecovered):
            lines.append(
                prefix
                + f"RECOVERED from {event.source} at tick "
                f"{event.resume_tick} ({event.tail_lines} tail lines "
                f"verified)"
            )
        elif isinstance(event, TenantJoined):
            lines.append(
                prefix
                + f"tenant join {event.tenant} ({event.priority}, "
                f"{event.lease_acs} ACs)"
            )
        elif isinstance(event, TenantDrained):
            lines.append(
                prefix
                + f"tenant drained {event.tenant} "
                f"({event.completed} completed)"
            )
        elif isinstance(event, AcRetired):
            lines.append(
                prefix
                + f"AC{event.index} retired "
                f"({event.usable_acs} ACs usable)"
            )
        elif isinstance(event, RunEnd):
            lines.append(prefix + f"run end: {event.total_cycles:,} cycles")
    lines.append(
        f"-- {len(events)} events: {loads} load starts, "
        f"{completions} completions, {upgrades} SI latency changes"
    )
    return "\n".join(lines)


def export_events(
    events: Sequence[TraceEvent],
    path: Union[str, Path],
    fmt: str = "json",
) -> Path:
    """Write ``events`` to ``path`` in one of :data:`TRACE_FORMATS`."""
    if fmt == "json":
        return write_event_log(events, path)
    if fmt == "chrome":
        return _write_text(
            path, json.dumps(to_chrome_trace(events), indent=1)
        )
    if fmt == "summary":
        return _write_text(path, to_summary_text(events))
    raise ObservabilityError(
        f"unknown trace format {fmt!r}; known: {list(TRACE_FORMATS)}"
    )
