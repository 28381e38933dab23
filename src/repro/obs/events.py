"""Typed trace events — the vocabulary of the observability layer.

Every event is a small frozen dataclass with a ``cycle`` timestamp (the
simulated clock, *not* wall time) and a class-level ``kind`` tag.  The
set of kinds mirrors the paper's run-time anatomy: hot-spot switches
(Section 3), scheduler decisions with the HEF benefit terms (Figure 6,
line 20), the serial reconfiguration-bus activity (Section 5), evictions,
SI upgrades landing (Figure 8's latency step-downs) and degraded-mode
segments from the fault-injection subsystem.

Events round-trip losslessly through plain-JSON dictionaries
(:meth:`TraceEvent.to_json_dict` / :func:`event_from_json_dict`); the
kind registry drives generic deserialisation.  Wall-clock quantities are
deliberately *excluded* from events so a recorded run is bit-reproducible
— wall time lives in :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple, Type

from ..errors import ObservabilityError

__all__ = [
    "TraceEvent",
    "RunStart",
    "RunEnd",
    "HotSpotSwitch",
    "DecisionStep",
    "SchedulerDecision",
    "LoadStart",
    "LoadComplete",
    "LoadFailed",
    "LoadRetry",
    "LoadAbandoned",
    "PrefetchIssued",
    "PrefetchHit",
    "PrefetchWasted",
    "Eviction",
    "ContainerDead",
    "SIUpgrade",
    "DegradedEnter",
    "DegradedExit",
    "CellRetry",
    "CellQuarantined",
    "CellResumed",
    "RequestAdmitted",
    "RequestShed",
    "RequestPreempted",
    "RequestCompleted",
    "DegradedServed",
    "BreakerTransition",
    "SnapshotWritten",
    "ServiceRecovered",
    "TenantJoined",
    "TenantDrained",
    "AcRetired",
    "event_from_json_dict",
    "event_kinds",
    "field_names",
]


_KIND_REGISTRY: Dict[str, Type["TraceEvent"]] = {}


def _register(cls: Type["TraceEvent"]) -> Type["TraceEvent"]:
    """Class decorator: register an event dataclass under its kind."""
    if not cls.kind or cls.kind in _KIND_REGISTRY:
        raise ObservabilityError(
            f"event class {cls.__name__} has a missing or duplicate "
            f"kind {cls.kind!r}"
        )
    _KIND_REGISTRY[cls.kind] = cls
    return cls


def event_kinds() -> Tuple[str, ...]:
    """All registered event kinds, sorted."""
    return tuple(sorted(_KIND_REGISTRY))


_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def field_names(cls: type) -> Tuple[str, ...]:
    """The dataclass field names of ``cls`` in declaration order.

    Read once per class and cached: the JSON forms of events and
    decision steps, and the event-log encoder, walk this table instead
    of calling :func:`dataclasses.fields` per record.
    """
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(field.name for field in dataclasses.fields(cls))
        _FIELD_NAMES[cls] = names
    return names


@dataclass(frozen=True)
class TraceEvent:
    """Base of all trace events: a timestamped, typed record."""

    #: Class-level kind tag; concrete subclasses override it.
    kind = ""

    cycle: int

    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation: the fields plus the kind tag."""
        data: Dict[str, Any] = {"kind": self.kind}
        for name in field_names(type(self)):
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = [
                    v.to_json_dict() if isinstance(v, DecisionStep) else v
                    for v in value
                ]
            data[name] = value
        return data


def event_from_json_dict(data: Mapping[str, Any]) -> TraceEvent:
    """Rebuild a typed event from :meth:`TraceEvent.to_json_dict` output.

    Raises
    ------
    ObservabilityError
        For an unknown kind or a payload that does not match the kind's
        fields — the event log is a versioned format, not free-form JSON.
    """
    kind = data.get("kind")
    cls = _KIND_REGISTRY.get(kind)
    if cls is None:
        raise ObservabilityError(
            f"unknown trace-event kind {kind!r}; known: {list(event_kinds())}"
        )
    kwargs: Dict[str, Any] = {}
    for name in field_names(cls):
        if name not in data:
            raise ObservabilityError(
                f"event of kind {kind!r} is missing field {name!r}"
            )
        value = data[name]
        if isinstance(value, (list, tuple)):
            if cls is SchedulerDecision and name == "steps":
                value = tuple(
                    DecisionStep.from_json_dict(v) for v in value
                )
            else:
                value = _tupleize(value)
        kwargs[name] = value
    return cls(**kwargs)


def _tupleize(value: Any) -> Any:
    """Recursively turn (nested) lists into tuples (JSON -> dataclass)."""
    if isinstance(value, (list, tuple)):
        return tuple(_tupleize(v) for v in value)
    return value


# -- run demarcation -----------------------------------------------------------


@_register
@dataclass(frozen=True)
class RunStart(TraceEvent):
    """A simulator run began (cycle 0)."""

    kind = "run_start"

    system: str
    scheduler: str
    num_acs: int
    workload_name: str


@_register
@dataclass(frozen=True)
class RunEnd(TraceEvent):
    """The run finished; ``cycle`` equals the result's total cycles."""

    kind = "run_end"

    total_cycles: int


# -- hot-spot switches and scheduler decisions ---------------------------------


@_register
@dataclass(frozen=True)
class HotSpotSwitch(TraceEvent):
    """Execution entered a hot spot (before the RTM entry overhead)."""

    kind = "hot_spot_switch"

    hot_spot: str
    frame_index: int
    trace_index: int
    entry_overhead: int


@dataclass(frozen=True)
class DecisionStep:
    """One molecule-level upgrade step of a scheduler decision.

    ``benefit_num``/``benefit_den`` are the HEF benefit terms of
    Figure 6 line 20 evaluated for the committed step:
    ``expectedExecutions * (latency_before - latency)`` over the number
    of additionally loaded atoms.  For the other schedulers the same
    terms describe what HEF *would* have credited the step with, which
    is exactly what a Figure 7 why-does-HEF-win audit needs.
    ``latency_after`` is the SI's best latency once the step's loads
    finished (never above ``latency_before``).
    """

    si_name: str
    molecule: str
    num_loads: int
    latency_before: int
    latency_after: int
    benefit_num: float
    benefit_den: int

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            name: getattr(self, name) for name in field_names(DecisionStep)
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "DecisionStep":
        benefit_num = data["benefit_num"]
        return cls(
            si_name=str(data["si_name"]),
            molecule=str(data["molecule"]),
            num_loads=int(data["num_loads"]),
            latency_before=int(data["latency_before"]),
            latency_after=int(data["latency_after"]),
            # An int was written as an int: ``float()`` would round one
            # above 2**53, so it is kept exact, as top-level fields are.
            benefit_num=(
                benefit_num if type(benefit_num) is int else float(benefit_num)
            ),
            benefit_den=int(data["benefit_den"]),
        )


@_register
@dataclass(frozen=True)
class SchedulerDecision(TraceEvent):
    """The run-time manager planned the loads for a hot-spot entry."""

    kind = "scheduler_decision"

    hot_spot: str
    scheduler: str
    #: SI name -> selected molecule name (the candidate set the decision
    #: chose from; software selections are omitted).
    selection: Tuple[Tuple[str, str], ...]
    #: Upgrade steps in commit order (empty for plain load sequences).
    steps: Tuple[DecisionStep, ...]
    #: The resulting atom load order handed to the reconfiguration port.
    atom_sequence: Tuple[str, ...]


# -- reconfiguration bus -------------------------------------------------------


@_register
@dataclass(frozen=True)
class LoadStart(TraceEvent):
    """The port began writing one atom bitstream into a container.

    ``cycle`` is when the port accepted the load; retry backoff is part
    of the in-flight time, so ``expected_completion`` already includes
    it.  ``attempt`` is 0 for a fresh load, n for the n-th retry.
    ``speculative`` marks loads issued by the prefetch scheduler for a
    *predicted* future hot spot — they only ever fill empty containers,
    so a speculative load never triggers an :class:`Eviction`.
    """

    kind = "load_start"

    atom_type: str
    container_index: int
    expected_completion: int
    attempt: int
    speculative: bool = False


@_register
@dataclass(frozen=True)
class LoadComplete(TraceEvent):
    """An atom load finished successfully; the atom is usable now."""

    kind = "load_complete"

    atom_type: str
    container_index: int


@_register
@dataclass(frozen=True)
class LoadFailed(TraceEvent):
    """The fault model failed a completing load."""

    kind = "load_failed"

    atom_type: str
    container_index: int
    fault: str
    attempt: int


@_register
@dataclass(frozen=True)
class LoadRetry(TraceEvent):
    """A failed load re-entered the port under the retry policy."""

    kind = "load_retry"

    atom_type: str
    attempt: int
    backoff: int


@_register
@dataclass(frozen=True)
class LoadAbandoned(TraceEvent):
    """A load was given up on (retry budget or degraded fabric)."""

    kind = "load_abandoned"

    atom_type: str
    reason: str


# -- cross-hot-spot prefetch ---------------------------------------------------
#
# Prefetch events describe the speculative side channel of the PREFETCH
# scheduler (:mod:`repro.core.schedulers.prefetch`): atom loads issued
# for a *predicted* next hot spot during idle windows of the current
# one.  The differential replay ignores them — their cycle-accounting
# effect manifests entirely through the SIUpgrade latency timeline.
# Invariant per run: every issued prefetch is eventually classified,
# i.e. #PrefetchIssued == #PrefetchHit + #PrefetchWasted.


@_register
@dataclass(frozen=True)
class PrefetchIssued(TraceEvent):
    """A speculative atom load was queued for a predicted hot spot.

    ``hot_spot`` is the phase being executed when the speculation was
    issued; ``predicted_hot_spot`` is the phase the atom is for.
    ``confidence`` is the transition predictor's score for that phase at
    issue time (recency-weighted transition frequency in [0, 1]).
    """

    kind = "prefetch_issued"

    hot_spot: str
    predicted_hot_spot: str
    atom_type: str
    confidence: float


@_register
@dataclass(frozen=True)
class PrefetchHit(TraceEvent):
    """A speculative atom turned out to be wanted by the next hot spot.

    Emitted at the hot-spot switch that consumed the speculation;
    ``hot_spot`` is the phase that materialised and matched.
    """

    kind = "prefetch_hit"

    hot_spot: str
    atom_type: str


@_register
@dataclass(frozen=True)
class PrefetchWasted(TraceEvent):
    """A speculative atom did not help (misprediction path).

    ``reason`` is the waste taxonomy tag: ``mispredicted`` (the phase
    that materialised was not the predicted one), ``surplus`` (right
    phase, but the new selection did not want this atom), ``dropped``
    (no empty container / queue cancelled before the load started —
    zero bus cost), ``failed`` (the fault model killed the speculative
    load; speculative loads are never retried) or ``run_end`` (the run
    finished before the next switch could consume it).
    """

    kind = "prefetch_wasted"

    atom_type: str
    reason: str


# -- fabric --------------------------------------------------------------------


@_register
@dataclass(frozen=True)
class Eviction(TraceEvent):
    """A stale loaded atom was evicted to make room for a new load."""

    kind = "eviction"

    atom_type: str
    container_index: int


@_register
@dataclass(frozen=True)
class ContainerDead(TraceEvent):
    """A container was permanently retired by a hard fault."""

    kind = "container_dead"

    container_index: int


# -- SI latency timeline -------------------------------------------------------


@_register
@dataclass(frozen=True)
class SIUpgrade(TraceEvent):
    """An SI's effective per-execution latency changed.

    Emitted whenever the engine observes a different effective latency
    for an SI than the last recorded one — usually a step *down* when an
    upgrade lands, occasionally a step *up* when an eviction or fault
    removed atoms an implementation was using.  ``latency`` includes the
    trap overhead while the SI runs in software, i.e. it is the true
    per-execution cost the pipeline observes — the differential replay
    (:mod:`repro.obs.replay`) reconstructs cycle counts from exactly
    these events.
    """

    kind = "si_upgrade"

    si_name: str
    molecule: str
    latency: int
    software: bool


# -- degraded-mode segments ----------------------------------------------------


@_register
@dataclass(frozen=True)
class DegradedEnter(TraceEvent):
    """Execution entered degraded mode (dead containers or a retry)."""

    kind = "degraded_enter"


@_register
@dataclass(frozen=True)
class DegradedExit(TraceEvent):
    """Execution left degraded mode."""

    kind = "degraded_exit"


# -- sweep supervisor ----------------------------------------------------------
#
# Supervisor events describe the *execution harness*, not the simulated
# machine: their ``cycle`` is always 0 (there is no simulated clock at
# the grid level) and the differential replay ignores them.  They exist
# so chaos runs are observable through the same event log, exporters and
# metrics as everything else.


@_register
@dataclass(frozen=True)
class CellRetry(TraceEvent):
    """A sweep cell's attempt failed and the cell was re-queued.

    ``failure`` is the supervisor taxonomy tag (``timeout`` / ``crash``
    / ``poison``); ``backoff_ms`` is the seeded-jitter delay before the
    next attempt, in milliseconds (an integer, keeping events
    wall-clock-free *as data* even though the delay itself is a
    wall-clock plan).
    """

    kind = "cell_retry"

    label: str
    attempt: int
    failure: str
    backoff_ms: int


@_register
@dataclass(frozen=True)
class CellQuarantined(TraceEvent):
    """A sweep cell exhausted its attempt budget and left the grid."""

    kind = "cell_quarantined"

    label: str
    attempts: int
    failure: str


@_register
@dataclass(frozen=True)
class CellResumed(TraceEvent):
    """A completed cell was replayed from a resume journal."""

    kind = "cell_resumed"

    label: str
    source: str


# -- multi-tenant fabric service -----------------------------------------------
#
# Service events describe the arbitration layer (:mod:`repro.service`):
# their ``cycle`` is the arbiter's *virtual tick*, not a simulated
# machine cycle, and the differential replay ignores them.  Every event
# is tenant-tagged so a single soak log can be sliced per tenant.


@_register
@dataclass(frozen=True)
class RequestAdmitted(TraceEvent):
    """A tenant request passed admission control and joined the queue."""

    kind = "request_admitted"

    tenant: str
    request_id: str
    hot_spot: str
    deadline: int
    lease_acs: int


@_register
@dataclass(frozen=True)
class RequestShed(TraceEvent):
    """A tenant request was rejected at admission (load shedding).

    ``reason`` is the shedding taxonomy tag: ``rate_limited``,
    ``in_flight_cap``, ``atom_budget``, ``queue_full`` or ``deadline``.
    Shedding happens *only* at admission — an admitted request is never
    dropped.
    """

    kind = "request_shed"

    tenant: str
    request_id: str
    reason: str


@_register
@dataclass(frozen=True)
class RequestPreempted(TraceEvent):
    """An in-flight request lost its fabric lease and was re-queued.

    ``reason`` is ``priority`` (a higher-priority tenant claimed the
    capacity), ``fault`` (container deaths shrank the fabric below the
    granted leases) or ``retire`` (a live ``ac_remove`` reconfiguration
    shrank it).  ``backoff`` is the seeded-jitter delay in virtual
    ticks before the request may be re-dispatched.
    """

    kind = "request_preempted"

    tenant: str
    request_id: str
    reason: str
    preemptions: int
    backoff: int


@_register
@dataclass(frozen=True)
class RequestCompleted(TraceEvent):
    """An admitted request finished and its answer was delivered."""

    kind = "request_completed"

    tenant: str
    request_id: str
    latency: int
    degraded: bool
    cache_hit: bool


@_register
@dataclass(frozen=True)
class DegradedServed(TraceEvent):
    """A request was answered with the cISA-only software result.

    Emitted when the circuit breaker is open or the fabric cannot fit
    the tenant's lease: the service degrades instead of failing."""

    kind = "degraded_served"

    tenant: str
    request_id: str
    reason: str


@_register
@dataclass(frozen=True)
class BreakerTransition(TraceEvent):
    """The service circuit breaker changed state.

    ``state`` is the state being *entered* (``open`` / ``half_open`` /
    ``closed``); ``faults`` is the fault count inside the sliding window
    at transition time.
    """

    kind = "breaker_transition"

    state: str
    faults: int


@_register
@dataclass(frozen=True)
class SnapshotWritten(TraceEvent):
    """The arbiter persisted a recovery snapshot.

    ``journal_offset`` is the logical length, in bytes, of the journal
    prefix the snapshot is anchored to — recovery re-executes from here.
    Snapshot traffic is observability-only: it never enters the journal
    itself, so digests are independent of the snapshot cadence.
    """

    kind = "snapshot_written"

    tick: int
    path: str
    journal_offset: int


@_register
@dataclass(frozen=True)
class ServiceRecovered(TraceEvent):
    """A crashed service run was restored and resumed.

    ``source`` says what the restore started from: ``snapshot`` (latest
    valid snapshot) or ``replay`` (no usable snapshot — full journal
    re-execution from tick 0).  ``resume_tick`` is the virtual tick
    re-execution resumed at; ``tail_lines`` is how many journal lines
    were re-verified against the regenerated timeline.
    """

    kind = "service_recovered"

    source: str
    resume_tick: int
    tail_lines: int


@_register
@dataclass(frozen=True)
class TenantJoined(TraceEvent):
    """A tenant joined the fleet through a live reconfiguration event."""

    kind = "tenant_joined"

    tenant: str
    priority: str
    lease_acs: int


@_register
@dataclass(frozen=True)
class TenantDrained(TraceEvent):
    """A leaving tenant finished draining: no queued or in-flight work.

    Emitted once per departing tenant, at the tick its last admitted
    request completed (immediately at the leave tick when it was idle).
    New arrivals after the leave event are shed as ``draining``.
    """

    kind = "tenant_drained"

    tenant: str
    completed: int


@_register
@dataclass(frozen=True)
class AcRetired(TraceEvent):
    """A live ``ac_remove`` reconfiguration retired one container.

    ``usable_acs`` is the fleet capacity *after* the retirement;
    over-committed leases are preempted through the normal preemption
    path with reason ``retire``.
    """

    kind = "ac_retired"

    index: int
    usable_acs: int
