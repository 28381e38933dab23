"""The multi-tenant fabric arbiter: one virtual-clock event loop.

The arbiter is the paper's run-time system scaled out: instead of one
application owning the fabric, N tenants submit hot-spot
scheduling/simulation requests with deadlines, and the service decides
*who* gets Atom Containers *when*:

* **Admission** — every arrival passes the
  :class:`~repro.service.admission.AdmissionController` gates (token
  bucket, in-flight cap, atom budget, bounded queue, deadline triage);
  sheds are tagged with the taxonomy and counted per tenant.
* **Arbitration** — admitted requests queue by
  ``(priority, deadline, seq)``; dispatch leases free containers
  (:class:`~repro.service.state.LeaseLedger`) per request
  and plans the tenant's hot spot against exactly that lease
  (:meth:`~repro.core.runtime.RuntimeManager.plan_with_lease` seeds the
  admission estimates).  Higher-priority arrivals preempt lower-priority
  leases; container faults force preemption when the fabric shrinks
  below the granted leases.  Preempted requests re-queue after a
  seeded-jitter backoff (:func:`~repro.fabric.faults.backoff_delay` on
  the virtual clock) — **admitted requests are never dropped**.
* **Degradation** — a fault storm trips the
  :class:`~repro.service.breaker.CircuitBreaker`; while it is open (or
  when the fabric can no longer fit a lease at all) requests are served
  the cISA-only software answer instead of failing.
* **Answer reuse** — results are content-addressed: an in-run memo plus
  the optional :class:`~repro.exec.cache.ResultCache` (read-through)
  serve repeated requests as admission-free cache hits.
* **Live reconfiguration** — a deterministic
  :class:`~repro.service.control.ControlEvent` schedule joins/drains
  tenants and grows/shrinks the AC pool mid-run; leaving tenants finish
  their admitted work (new arrivals shed as ``draining``), removed
  containers evict over-committed leases through the normal preemption
  path (reason ``retire``).
* **Crash safety** — all mutable run state is one declared
  :class:`~repro.service.state.ArbiterState`; with ``snapshot_every``
  set (and a journal on disk), the arbiter periodically persists its
  generic encoding (:mod:`repro.service.snapshot`);
  :func:`recover_service` restores the
  newest valid snapshot (folding the report history back from the
  journal prefix it anchors to) — or replays from tick 0 — and
  re-executes,
  verifying every regenerated journal line byte-for-byte against the
  on-disk tail, so a run killed at *any* tick recovers to bit-identical
  digests and reports.

Everything runs on an integer virtual clock with a ``(tick, kind, seq)``
event heap and seeded randomness only, so a rerun with the same fleet,
config, control schedule and a cold cache produces a bit-identical
journal and identical per-tenant digests.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import heapq
import json
import os
import random
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple, Union

from .._atomic import trim_torn_tail
from ..core.runtime import RuntimeManager
from ..core.schedulers import get_scheduler
from ..errors import RecoveryError, ServiceCrash, ServiceError
from ..exec.cache import CODE_VERSION_SALT, ResultCache, canonical_json, cell_key
from ..exec.runner import execute_cell
from ..exec.spec import SweepCell
from ..fabric.faults import backoff_delay
from ..h264.silibrary import HOT_SPOT_SIS, h264_platform
from ..obs.events import (
    AcRetired,
    BreakerTransition,
    ContainerDead,
    DegradedServed,
    RequestAdmitted,
    RequestCompleted,
    RequestPreempted,
    RequestShed,
    ServiceRecovered,
    SnapshotWritten,
    TenantDrained,
    TenantJoined,
)
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from .admission import AdmissionController
from .breaker import CircuitBreaker
from .control import ControlEvent, ordered_controls, validate_control_events
from .lines import JOURNAL_LINE
from .report import ServiceReport, TenantStats, fold_history
from .request import RequestRecord, ServiceRequest, generate_requests
from .snapshot import (
    SNAPSHOT_FORMAT,
    config_fingerprint,
    load_latest_snapshot,
    write_snapshot,
)
from .state import ArbiterState, LeaseLedger, decode_state, encode_state
from .tenant import TenantSpec

__all__ = [
    "SERVICE_JOURNAL_FORMAT",
    "ServiceConfig",
    "run_service",
    "recover_service",
]

#: Format tag of the service journal's header line.  v2 added the
#: config ``fingerprint`` field (crash recovery cross-checks it).
SERVICE_JOURNAL_FORMAT = 2

#: Event-kind ranks: at one tick, faults land first (capacity shrinks
#: before new work), then control events reshape the fleet, then
#: completions free leases, then arrivals are admitted, then
#: backoff-gated dispatch polls run.
_FAULT, _CONTROL, _COMPLETE, _ARRIVAL, _DISPATCH = 0, 1, 2, 3, 4

#: Fallback admission estimate (ticks) before planning seeds better ones.
_DEFAULT_EST_TICKS = 24

#: Plan-derived estimate: entry cost plus per-scheduled-atom cost.
_EST_BASE_TICKS = 8
_EST_TICKS_PER_ATOM = 6

#: Virtual latency of serving an answer straight from the cache.
_HIT_LATENCY_TICKS = 1

#: Bound of the process-wide cell memo (:func:`_cell_and_key`): far
#: above the distinct cells one run asks for, small enough that a stream
#: of fresh answers keeps memory flat.
_CELL_MEMO_SIZE = 1024

#: Crash-injection modes: ``sigkill`` kills the process outright (the
#: subprocess/CI path), ``raise`` throws :class:`ServiceCrash` so
#: in-process tests can observe the post-crash disk state.
_CRASH_MODES = ("sigkill", "raise")


@functools.lru_cache(maxsize=_CELL_MEMO_SIZE)
def _cell_and_key(
    tenant: TenantSpec, hot_spot: str, variant: int, lease: int, salt: str
) -> Tuple[SweepCell, str]:
    """The cell a request asks for, and its cache key.

    ``lease`` is the effective lease: zero (a degraded dispatch or a
    cISA-only tenant) means the software cell.  A request stream repeats
    few distinct cells, so each is built and keyed once per process.
    """
    workload = dataclasses.replace(
        tenant.workload,
        hot_spots=(hot_spot,),
        seed=tenant.workload.seed + variant,
    )
    if lease == 0:
        cell = SweepCell(system="Software", num_acs=0, workload=workload)
    else:
        cell = SweepCell(
            system="RISPP",
            scheduler=tenant.scheduler,
            num_acs=lease,
            workload=workload,
        )
    return cell, cell_key(cell, salt)


def _answer(payload: Dict[str, Any]) -> List[Any]:
    """What the answer memo keeps of a result payload:
    ``[short content digest, total_cycles]``."""
    digest = hashlib.sha256(canonical_json(payload).encode("ascii"))
    return [digest.hexdigest()[:16], int(payload["total_cycles"])]


def _victim_order(record: RequestRecord) -> Tuple[int, int, int]:
    """Preemption order: lowest priority, then latest deadline, then
    latest arrival first."""
    request = record.request
    return (request.priority, -request.deadline, -request.seq)


@dataclass(frozen=True)
class ServiceConfig:
    """Arbiter configuration (everything on the virtual clock)."""

    num_acs: int = 8
    duration: int = 20_000
    seed: int = 2008
    #: Global bound on queued admitted requests.
    queue_limit: int = 32
    #: Virtual-clock scale: simulated cycles per service tick (at the
    #: paper's 100 MHz prototype, 200k cycles = 2 ms per tick).
    cycles_per_tick: int = 200_000
    #: Priority preemptions per request before it turns non-preemptible.
    max_preemptions: int = 3
    #: Seeded-backoff parameters for preempted-request requeueing.
    backoff_base: float = 8.0
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25
    breaker_threshold: int = 3
    breaker_window: int = 400
    breaker_cooldown: int = 800
    #: Virtual ticks at which one container dies (hard-fault storm).
    fault_ticks: Tuple[int, ...] = ()
    #: Snapshot cadence in virtual ticks; 0 disables snapshots.  The
    #: cadence is operational only — journal bytes and digests are
    #: identical whatever its value (snapshots are sidecar files).
    snapshot_every: int = 0

    def __post_init__(self) -> None:
        if self.num_acs < 1:
            raise ServiceError(f"num_acs must be >= 1, got {self.num_acs}")
        if self.duration < 1:
            raise ServiceError(
                f"duration must be >= 1, got {self.duration}"
            )
        if self.queue_limit < 1:
            raise ServiceError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.cycles_per_tick < 1:
            raise ServiceError(
                f"cycles_per_tick must be >= 1, got "
                f"{self.cycles_per_tick}"
            )
        if self.max_preemptions < 0:
            raise ServiceError(
                f"max_preemptions must be >= 0, got "
                f"{self.max_preemptions}"
            )
        if self.backoff_base <= 0 or self.backoff_factor < 1.0:
            raise ServiceError(
                f"backoff needs base > 0 and factor >= 1, got "
                f"{self.backoff_base}/{self.backoff_factor}"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ServiceError(
                f"backoff_jitter must be in [0, 1], got "
                f"{self.backoff_jitter}"
            )
        if any(tick < 0 for tick in self.fault_ticks):
            raise ServiceError(
                f"fault_ticks must be non-negative: {self.fault_ticks}"
            )
        if self.snapshot_every < 0:
            raise ServiceError(
                f"snapshot_every must be >= 0, got "
                f"{self.snapshot_every}"
            )


class _ServiceJournal:
    """Canonical-JSONL journal with a running content digest.

    Lines come from the per-kind templates of :mod:`repro.service.lines`
    (byte for byte the ``canonical_json`` of the same record).

    The digest is computed over the exact bytes written, so two runs
    agree on the journal digest iff the files are bit-identical —
    whether or not a file was actually requested.  Every line is
    flushed as it is written (a SIGKILLed run leaves its complete
    prefix on disk); ``fsync=True`` additionally forces each line to
    stable storage.

    In **recovery mode** (:meth:`for_recovery`) the journal starts from
    an already-on-disk prefix and verifies each regenerated line
    byte-for-byte against the remaining on-disk tail before switching
    to appending: any divergence raises :class:`RecoveryError` instead
    of silently forking history.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]],
        *,
        fsync: bool = False,
    ) -> None:
        self._hash = hashlib.sha256()
        self._handle: Optional[TextIO] = None
        self._fsync = bool(fsync)
        #: Logical bytes hashed so far (== file length when on disk).
        self.offset = 0
        self._tail: List[str] = []
        self._tail_pos = 0
        if path is not None:
            self._handle = Path(path).open("w", encoding="ascii")

    @classmethod
    def for_recovery(
        cls,
        path: Union[str, Path],
        prefix: bytes,
        tail: List[str],
        *,
        fsync: bool = False,
    ) -> "_ServiceJournal":
        """A journal resuming an existing file.

        ``prefix`` is the byte region a snapshot anchors to (already
        hashed, never re-verified here — the snapshot loader checked
        its SHA); ``tail`` is the list of complete journal lines after
        the prefix, to be verified against re-execution.  New lines are
        appended to the file only once the tail is fully consumed.
        """
        journal = cls(None, fsync=fsync)
        journal._hash.update(prefix)
        journal.offset = len(prefix)
        journal._tail = list(tail)
        journal._handle = Path(path).open("a", encoding="ascii")
        return journal

    def write(self, line: str) -> None:
        """Append one line (a :data:`~repro.service.lines.JOURNAL_LINE`
        writer's output, without its newline)."""
        data = line.encode("ascii") + b"\n"
        self._hash.update(data)
        self.offset += len(data)
        if self._tail_pos < len(self._tail):
            expected = self._tail[self._tail_pos]
            if line != expected:
                raise RecoveryError(
                    f"recovery diverged from the journal at line "
                    f"{self._tail_pos}: regenerated {line!r} but the "
                    f"journal says {expected!r} — the journal was "
                    f"written by a different config, code version or "
                    f"cache state"
                )
            self._tail_pos += 1
            return  # these bytes are already on disk
        if self._handle is not None:
            self._handle.write(line + "\n")
            self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())

    def tail_remaining(self) -> int:
        """Journal tail lines not yet re-verified by re-execution."""
        return len(self._tail) - self._tail_pos

    def digest(self) -> str:
        return self._hash.hexdigest()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class _Arbiter:
    """One service run: the declared :class:`ArbiterState` plus wiring.

    Every mutable quantity of the run lives in ``self.state``; the
    other attributes are fixed for the arbiter's lifetime (the
    admission controller books into ``state.ledgers``, and
    ``requests`` is the immutable request table).
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        config: ServiceConfig,
        cache: Optional[ResultCache],
        tracer: Tracer,
        metrics: Optional[MetricsRegistry],
        journal: _ServiceJournal,
        control_events: Sequence[ControlEvent] = (),
        state: Optional[ArbiterState] = None,
        crash_at_tick: Optional[int] = None,
        crash_mode: str = "sigkill",
        journal_path: Optional[Union[str, Path]] = None,
        fsync: bool = False,
        replaying: bool = False,
    ) -> None:
        self.fleet = tuple(tenants)
        self.config = config
        self.cache = cache
        self.tracer = tracer
        self.metrics = metrics
        self.journal = journal
        self.controls = ordered_controls(control_events)
        self.fingerprint = config_fingerprint(
            tenants, config, self.controls
        )
        #: Every tenant spec the run can meet: the fleet plus joiners.
        self.tenants = {tenant.name: tenant for tenant in tenants}
        if len(self.tenants) != len(tenants):
            raise ServiceError("tenant names must be unique")
        #: The run's request table, indexed by ``seq``: the initial
        #: fleet's stream, then each joiner's stream from its join tick,
        #: in control order.  A pure function of the inputs the config
        #: fingerprint pins, so recovery re-derives it.
        requests = list(
            generate_requests(tenants, config.duration, config.seed)
        )
        #: Each stream's seqs, by the index of the control event that
        #: starts it (the initial fleet's stream is at -1).  Seqs of one
        #: stream are consecutive and in arrival order, so the heap holds
        #: one pending arrival per stream and its successor is ``seq+1``.
        self.streams: Dict[int, range] = {-1: range(len(requests))}
        for index, event in enumerate(self.controls):
            if event.spec is not None:
                self.tenants[event.name] = event.spec
                first = len(requests)
                requests.extend(
                    generate_requests(
                        [event.spec],
                        config.duration,
                        config.seed,
                        start=event.tick,
                        first_seq=first,
                    )
                )
                self.streams[index] = range(first, len(requests))
        self.requests: Tuple[ServiceRequest, ...] = tuple(requests)
        self.state = state if state is not None else ArbiterState(
            breaker=CircuitBreaker(
                threshold=config.breaker_threshold,
                window=config.breaker_window,
                cooldown=config.breaker_cooldown,
            ),
            leases=LeaseLedger(config.num_acs),
            rng=random.Random(config.seed),
            stats={
                tenant.name: TenantStats(
                    name=tenant.name, priority=tenant.priority
                )
                for tenant in tenants
            },
        )
        self.admission = AdmissionController(
            tenants,
            queue_limit=config.queue_limit,
            default_est_ticks=_DEFAULT_EST_TICKS,
            ledgers=self.state.ledgers,
        )
        self._crash_at = crash_at_tick
        self._crash_mode = crash_mode
        self._journal_path = (
            Path(journal_path) if journal_path is not None else None
        )
        self._fsync = bool(fsync)
        #: True while re-executing a recovered timeline: disk-cache
        #: reads outside the restored memo are suppressed so the rerun
        #: cannot see answers the crashed run stored *after* the
        #: resume point (which would flip misses into hits and diverge
        #: the journal).
        self._replaying = replaying

    # -- setup -------------------------------------------------------------

    def _planning_estimate(self, tenant: TenantSpec) -> int:
        """One tenant's plan-derived admission estimate (ticks).

        For each of the tenant's hot spots, the run-time manager plans
        against the tenant's *lease* (zero included — that is the pure
        software plan); the scheduled-atom count prices the request.
        This is the paper's planning machinery answering the service's
        triage question before any traffic flows.
        """
        _, library = h264_platform()
        empty = library.space.molecule({})
        manager = RuntimeManager(
            library,
            get_scheduler(tenant.scheduler),
            num_acs=self.config.num_acs,
        )
        estimates: List[int] = []
        for hot_spot in tenant.hot_spots:
            plan = manager.plan_with_lease(
                hot_spot,
                HOT_SPOT_SIS[hot_spot],
                empty,
                tenant.lease_acs,
            )
            estimates.append(
                _EST_BASE_TICKS
                + _EST_TICKS_PER_ATOM * plan.num_scheduled_atoms
            )
        return sum(estimates) // len(estimates)

    def seed_estimates(self) -> None:
        """Seed every tenant's admission estimate from leased planning."""
        for tenant in sorted(self.fleet, key=lambda t: t.name):
            self.admission.seed_estimate(
                tenant.name, self._planning_estimate(tenant)
            )

    # -- event plumbing ----------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _observe(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value)

    # -- result serving ----------------------------------------------------

    def _cell_for(
        self, request: ServiceRequest, degraded: bool
    ) -> Tuple[SweepCell, str]:
        return _cell_and_key(
            self.tenants[request.tenant],
            request.hot_spot,
            request.variant,
            0 if degraded else request.lease_acs,
            self._salt(),
        )

    def _probe(self, request: ServiceRequest) -> Optional[List[Any]]:
        """A previously-served answer for ``request``, if any (no
        compute)."""
        cell, key = self._cell_for(request, degraded=False)
        answer = self.state.memo.get(key)
        if answer is not None:
            return answer
        if self._replaying:
            # Recovery: the disk cache may hold answers the crashed run
            # stored after the resume point.  The original run saw a
            # miss here (every disk hit is memoised, and the memo was
            # restored), so the rerun must miss too.
            return None
        if self.cache is not None and self.cache.contains(cell):
            payload = self.cache.get(cell)
            if payload is not None:
                answer = self.state.memo[key] = _answer(payload)
            return answer
        return None

    def _execute(
        self, request: ServiceRequest, degraded: bool
    ) -> Tuple[List[Any], bool]:
        """The answer for ``request``: memo, then read-through cache."""
        cell, key = self._cell_for(request, degraded)
        memoised = self.state.memo.get(key)
        if memoised is not None:
            return memoised, True
        if self.cache is not None and not self._replaying:
            payload, hit = self.cache.read_through(
                cell, lambda: execute_cell(cell).to_json_dict()
            )
        else:
            # No cache — or recovering, where a disk read could surface
            # post-crash answers the original run computed itself.  The
            # original's read-through miss computed and stored; do the
            # same, so the cache stays complete and ``hit`` agrees.
            payload, hit = execute_cell(cell).to_json_dict(), False
            if self.cache is not None:
                self.cache.put(cell, payload)
        answer = self.state.memo[key] = _answer(payload)
        return answer, hit

    def _salt(self) -> str:
        return self.cache.salt if self.cache is not None else (
            CODE_VERSION_SALT
        )

    # -- the event loop ----------------------------------------------------

    def run(self) -> ServiceReport:
        state = self.state
        self.journal.write(
            JOURNAL_LINE["header"](
                format=SERVICE_JOURNAL_FORMAT,
                salt=self._salt(),
                fingerprint=self.fingerprint,
                seed=self.config.seed,
                duration=self.config.duration,
                num_acs=self.config.num_acs,
                tenants=sorted(tenant.name for tenant in self.fleet),
            )
        )
        self.seed_estimates()
        self._push_arrival(self.streams[-1].start, self.streams[-1].stop)
        for tick in self.config.fault_ticks:
            state.clock.push(tick, _FAULT)
        for index, event in enumerate(self.controls):
            state.clock.push(event.tick, _CONTROL, index)
        return self.run_loop()

    def _push_arrival(self, seq: int, end: int) -> None:
        """Schedule request ``seq``, unless its stream ended before it."""
        if seq < end:
            self.state.clock.push_arrival(
                self.requests[seq].arrival, _ARRIVAL, seq, end
            )

    def run_loop(self) -> ServiceReport:
        """Process the event heap to exhaustion (also the entry point of
        a run resumed from a decoded snapshot state)."""
        state = self.state
        clock = state.clock
        every = (
            self.config.snapshot_every
            if self._journal_path is not None
            else 0
        )
        while clock.heap:
            tick, kind, _seq, a, b = heapq.heappop(clock.heap)
            previous = clock.tick
            now = clock.tick = max(previous, tick)
            if self._crash_at is not None and now >= self._crash_at:
                self._crash(now)
            transition = state.breaker.poll(now)
            if transition is not None:
                self._breaker_event(now, transition)
            if kind == _FAULT:
                self._on_fault(now)
            elif kind == _CONTROL:
                self._on_control(now, a)
            elif kind == _COMPLETE:
                self._on_complete(now, a, b)
            elif kind == _ARRIVAL:
                self._push_arrival(a + 1, b)
                self._on_arrival(now, self.requests[a])
            # _DISPATCH events carry no payload: the dispatch pass below
            # runs after *every* event anyway; the heap entry only
            # guarantees the loop wakes up when a backoff gate opens.
            self._dispatch(now)
            # Snapshot when the clock crosses a multiple of the cadence,
            # once recovery has re-verified the whole journal tail.
            if (
                every
                and now // every > previous // every
                and clock.heap
                and self.journal.tail_remaining() == 0
            ):
                self._write_snapshot(now)
        if state.queue or state.running:
            raise ServiceError(
                f"arbiter drained its event heap with {len(state.queue)} "
                f"queued and {len(state.running)} running requests left"
            )
        return self._report()

    def _crash(self, now: int) -> None:
        """The chaos hook: die *before* processing this tick's event.

        Journal lines are flushed as written, so the on-disk prefix is
        exactly the lines the run produced before this tick — the state
        recovery re-executes against.
        """
        if self._crash_mode == "raise":
            raise ServiceCrash(
                f"injected crash at tick {now} (crash_mode=raise)"
            )
        os.kill(os.getpid(), signal.SIGKILL)

    # -- event handlers ----------------------------------------------------

    def _shed(self, now: int, request: ServiceRequest, reason: str) -> None:
        stats = self.state.stats[request.tenant]
        stats.shed[reason] = stats.shed.get(reason, 0) + 1
        self._count(f"service.shed.{reason}")
        if self.tracer.enabled:
            self.tracer.emit(
                RequestShed(
                    cycle=now,
                    tenant=request.tenant,
                    request_id=request.request_id,
                    reason=reason,
                )
            )
        self.journal.write(
            JOURNAL_LINE["shed"](
                tick=now,
                tenant=request.tenant,
                request=request.request_id,
                reason=reason,
            )
        )

    def _on_arrival(self, now: int, request: ServiceRequest) -> None:
        stats = self.state.stats[request.tenant]
        stats.submitted += 1
        self._count("service.submitted")
        if request.tenant in self.state.draining:
            # Graceful drain: a leaving tenant's new arrivals are shed
            # before any cache probe — the tenant is *going away*, not
            # entitled to admission-free answers.
            self._shed(now, request, "draining")
            return
        answer = self._probe(request)
        if answer is not None:
            # Answer reuse: the content-addressed result server already
            # holds this answer — serve it admission-free.
            record = RequestRecord(
                request=request,
                status="running",
                admitted=False,
                cache_hit=True,
                service_ticks=_HIT_LATENCY_TICKS,
                digest=answer[0],
            )
            record.started = now
            self.state.running.append(record)
            self.journal.write(
                JOURNAL_LINE["hit"](
                    tick=now,
                    tenant=request.tenant,
                    request=request.request_id,
                )
            )
            self.state.clock.push(
                now + _HIT_LATENCY_TICKS,
                _COMPLETE,
                request.seq,
                record.epoch,
            )
            return
        reason = self.admission.admit(
            request,
            now,
            queue_depth=len(self.state.queue),
            backlog_ticks=sum(r.est_ticks for r in self.state.queue),
            capacity_slots=max(
                1,
                self.state.leases.usable // max(1, request.lease_acs),
            ),
        )
        if reason is not None:
            self._shed(now, request, reason)
            return
        stats.admitted += 1
        self._count("service.admitted")
        record = RequestRecord(
            request=request,
            est_ticks=self.admission.estimate(request.tenant),
        )
        self.state.queue.append(record)
        if self.tracer.enabled:
            self.tracer.emit(
                RequestAdmitted(
                    cycle=now,
                    tenant=request.tenant,
                    request_id=request.request_id,
                    hot_spot=request.hot_spot,
                    deadline=request.deadline,
                    lease_acs=request.lease_acs,
                )
            )
        self.journal.write(
            JOURNAL_LINE["admit"](
                tick=now,
                tenant=request.tenant,
                request=request.request_id,
                hot_spot=request.hot_spot,
                deadline=request.deadline,
            )
        )

    def _on_fault(self, now: int) -> None:
        index = self.state.leases.kill_lowest()
        if index is None:
            return
        self.state.faults += 1
        self._count("service.faults")
        if self.tracer.enabled:
            self.tracer.emit(
                ContainerDead(cycle=now, container_index=index)
            )
        self.journal.write(JOURNAL_LINE["fault"](tick=now, container=index))
        transition = self.state.breaker.on_fault(now)
        if transition is not None:
            self._breaker_event(now, transition)
        self._preempt_overcommitted(now, "fault")

    def _preempt_overcommitted(self, now: int, reason: str) -> None:
        """Shrunken fabric: force-preempt the lowest-priority leases
        until the granted leases fit the remaining capacity again."""
        while self.state.leases.overcommitted > 0:
            holders = [r for r in self.state.running if r.holds_lease]
            if not holders:
                break
            self._preempt(min(holders, key=_victim_order), now, reason)

    # -- live reconfiguration ----------------------------------------------

    def _on_control(self, now: int, index: int) -> None:
        event = self.controls[index]
        if event.action == "tenant_join":
            self._control_join(now, event, self.streams[index])
        elif event.action == "tenant_leave":
            self._control_leave(now, event)
        elif event.action == "ac_add":
            self._control_ac_add(now, event)
        else:
            self._control_ac_remove(now, event)

    def _control_join(
        self, now: int, event: ControlEvent, stream: range
    ) -> None:
        spec = event.spec
        assert spec is not None  # validate_control_events enforced it
        self.state.stats[spec.name] = TenantStats(
            name=spec.name, priority=spec.priority
        )
        self.admission.add_tenant(spec)
        self.admission.seed_estimate(
            spec.name, self._planning_estimate(spec)
        )
        self._count("service.tenants_joined")
        if self.tracer.enabled:
            self.tracer.emit(
                TenantJoined(
                    cycle=now,
                    tenant=spec.name,
                    priority=spec.priority,
                    lease_acs=spec.lease_acs,
                )
            )
        self.journal.write(
            JOURNAL_LINE["tenant_join"](tick=now, tenant=spec.name)
        )
        # The joining tenant's request stream is already in the request
        # table (generated from the join tick, numbered after every
        # earlier stream); its arrivals start now.
        self._push_arrival(stream.start, stream.stop)

    def _control_leave(self, now: int, event: ControlEvent) -> None:
        self.state.draining.add(event.name)
        self._count("service.tenants_leaving")
        self.journal.write(
            JOURNAL_LINE["tenant_leave"](tick=now, tenant=event.name)
        )
        self._check_drained(now, event.name)

    def _control_ac_add(self, now: int, event: ControlEvent) -> None:
        self.state.leases.num_acs += event.count
        self._count("service.acs_added", event.count)
        self.journal.write(
            JOURNAL_LINE["ac_add"](
                tick=now,
                count=event.count,
                num_acs=self.state.leases.num_acs,
            )
        )

    def _control_ac_remove(self, now: int, event: ControlEvent) -> None:
        leases = self.state.leases
        for _ in range(event.count):
            index = leases.retire_highest()  # stale-victim style
            if index is None:
                break
            self._count("service.acs_retired")
            if self.tracer.enabled:
                self.tracer.emit(
                    AcRetired(
                        cycle=now,
                        index=index,
                        usable_acs=leases.usable,
                    )
                )
            self.journal.write(
                JOURNAL_LINE["ac_remove"](
                    tick=now, container=index, usable_acs=leases.usable
                )
            )
        self._preempt_overcommitted(now, "retire")

    def _check_drained(self, now: int, name: str) -> None:
        """Emit the drain completion once a leaver has no work left."""
        if name not in self.state.draining or name in self.state.drained:
            return
        if any(r.request.tenant == name for r in self.state.queue):
            return
        if any(r.request.tenant == name for r in self.state.running):
            return
        self.state.drained.add(name)
        completed = self.state.stats[name].completed
        self._count("service.tenants_drained")
        if self.tracer.enabled:
            self.tracer.emit(
                TenantDrained(
                    cycle=now, tenant=name, completed=completed
                )
            )
        self.journal.write(
            JOURNAL_LINE["drained"](tick=now, tenant=name, completed=completed)
        )

    def _on_complete(self, now: int, seq: int, epoch: int) -> None:
        record = next(
            (r for r in self.state.running if r.request.seq == seq), None
        )
        if record is None or record.epoch != epoch:
            return  # stale completion of a preempted dispatch
        request = record.request
        stats = self.state.stats[request.tenant]
        latency = now - request.arrival
        stats.record_completion(
            request.request_id,
            now,
            latency,
            record.digest,
            record.degraded,
            record.cache_hit,
        )
        if not record.admitted:
            stats.cache_hits += 1
            self._count("service.cache_hits")
        else:
            stats.completed += 1
            self._count("service.completed")
            self.admission.release(request)
            if record.degraded:
                stats.degraded += 1
                self._count("service.degraded")
        if record.holds_lease:
            self.state.leases.release(request.lease_acs)
            record.holds_lease = False
            self.admission.observe_service_ticks(
                request.tenant, record.service_ticks
            )
            transition = self.state.breaker.on_success(now)
            if transition is not None:
                self._breaker_event(now, transition)
        self.state.running.remove(record)
        self._observe("service.latency_ticks", float(latency))
        if self.tracer.enabled:
            self.tracer.emit(
                RequestCompleted(
                    cycle=now,
                    tenant=request.tenant,
                    request_id=request.request_id,
                    latency=latency,
                    degraded=record.degraded,
                    cache_hit=record.cache_hit,
                )
            )
        self.journal.write(
            JOURNAL_LINE["complete"](
                tick=now,
                tenant=request.tenant,
                request=request.request_id,
                latency=latency,
                degraded=record.degraded,
                cache_hit=record.cache_hit,
                digest=record.digest,
            )
        )
        self._check_drained(now, request.tenant)

    def _breaker_event(self, now: int, state: str) -> None:
        if state == "open":
            self._count("service.breaker_trips")
        if self.tracer.enabled:
            self.tracer.emit(
                BreakerTransition(
                    cycle=now,
                    state=state,
                    faults=self.state.breaker.faults_in_window(now),
                )
            )
        self.journal.write(JOURNAL_LINE["breaker"](tick=now, state=state))

    # -- dispatch and preemption -------------------------------------------

    def _dispatch(self, now: int) -> None:
        while True:
            eligible = [r for r in self.state.queue if r.not_before <= now]
            if not eligible:
                return
            eligible.sort(
                key=lambda r: (
                    -r.request.priority,
                    r.request.deadline,
                    r.request.seq,
                )
            )
            head = eligible[0]
            lease = head.request.lease_acs
            if (
                self.state.breaker.is_open(now)
                or lease > self.state.leases.usable
                or lease == 0
            ):
                self._dispatch_degraded(head, now)
                continue
            if lease <= self.state.leases.free:
                self._dispatch_fabric(head, now)
                continue
            if not self._preempt_for(head, now):
                return  # capacity busy; a completion will wake us

    def _start(self, record: RequestRecord, now: int, degraded: bool) -> None:
        """Serve ``record``'s answer and schedule its completion."""
        record.degraded = degraded
        answer, hit = self._execute(record.request, degraded)
        record.cache_hit = record.cache_hit or hit
        record.digest, cycles = answer
        record.service_ticks = max(1, cycles // self.config.cycles_per_tick)
        self.state.queue.remove(record)
        self.state.running.append(record)
        record.status = "running"
        record.started = now
        record.epoch += 1
        self.state.clock.push(
            now + record.service_ticks,
            _COMPLETE,
            record.request.seq,
            record.epoch,
        )

    def _dispatch_fabric(self, record: RequestRecord, now: int) -> None:
        self.state.leases.reserve(record.request.lease_acs)
        record.holds_lease = True
        self._start(record, now, degraded=False)
        self._observe(
            "service.service_ticks", float(record.service_ticks)
        )

    def _dispatch_degraded(self, record: RequestRecord, now: int) -> None:
        request = record.request
        if self.state.breaker.is_open(now):
            reason = "breaker_open"
        elif request.lease_acs > self.state.leases.usable:
            reason = "capacity_lost"
        else:
            reason = "cisa_tenant"
        record.degrade_reason = reason
        record.holds_lease = False
        self._start(record, now, degraded=True)
        if self.tracer.enabled:
            self.tracer.emit(
                DegradedServed(
                    cycle=now,
                    tenant=request.tenant,
                    request_id=request.request_id,
                    reason=reason,
                )
            )
        self.journal.write(
            JOURNAL_LINE["degraded"](
                tick=now,
                tenant=request.tenant,
                request=request.request_id,
                reason=reason,
            )
        )

    def _preempt_for(self, head: RequestRecord, now: int) -> bool:
        """Free capacity for ``head`` by preempting lower priorities."""
        needed = head.request.lease_acs - self.state.leases.free
        victims = [
            r
            for r in self.state.running
            if r.holds_lease
            and r.preemptions < self.config.max_preemptions
            and r.request.priority < head.request.priority
        ]
        victims.sort(key=_victim_order)
        chosen: List[RequestRecord] = []
        freed = 0
        for victim in victims:
            if freed >= needed:
                break
            chosen.append(victim)
            freed += victim.request.lease_acs
        if freed < needed:
            return False
        for victim in chosen:
            self._preempt(victim, now, "priority")
        return True

    def _preempt(
        self, record: RequestRecord, now: int, reason: str
    ) -> None:
        request = record.request
        self.state.leases.release(request.lease_acs)
        record.holds_lease = False
        record.status = "queued"
        record.epoch += 1  # invalidate the scheduled completion
        record.preemptions += 1
        backoff = max(
            1,
            int(
                round(
                    backoff_delay(
                        self.config.backoff_base,
                        self.config.backoff_factor,
                        record.preemptions,
                        jitter=self.config.backoff_jitter,
                        rng=self.state.rng,
                    )
                )
            ),
        )
        record.not_before = now + backoff
        self.state.running.remove(record)
        self.state.queue.append(record)
        self.state.clock.push(record.not_before, _DISPATCH)
        stats = self.state.stats[request.tenant]
        stats.preemptions += 1
        self._count("service.preemptions")
        if self.tracer.enabled:
            self.tracer.emit(
                RequestPreempted(
                    cycle=now,
                    tenant=request.tenant,
                    request_id=request.request_id,
                    reason=reason,
                    preemptions=record.preemptions,
                    backoff=backoff,
                )
            )
        self.journal.write(
            JOURNAL_LINE["preempt"](
                tick=now,
                tenant=request.tenant,
                request=request.request_id,
                reason=reason,
                backoff=backoff,
            )
        )

    # -- snapshot ----------------------------------------------------------

    def _write_snapshot(self, now: int) -> None:
        """Persist the declared state, anchored to the journal so far.

        Written *between* heap events: the heap holds everything still
        pending, so decoding the state and re-entering the loop is the
        exact continuation of this run.
        """
        assert self._journal_path is not None
        offset = self.journal.offset
        path = write_snapshot(
            self._journal_path,
            {
                "format": SNAPSHOT_FORMAT,
                "salt": self._salt(),
                "fingerprint": self.fingerprint,
                "tick": now,
                "journal_offset": offset,
                "journal_sha": self.journal.digest(),
                "state": encode_state(self.state),
            },
            fsync=self._fsync,
        )
        self._count("service.snapshots")
        if self.tracer.enabled:
            self.tracer.emit(
                SnapshotWritten(
                    cycle=now, tick=now, path=str(path), journal_offset=offset
                )
            )

    # -- reporting ---------------------------------------------------------

    def _report(self) -> ServiceReport:
        report = ServiceReport(
            duration=self.config.duration,
            num_acs=self.config.num_acs,
            end_tick=self.state.clock.tick,
            tenants=self.state.stats,
            breaker_trips=self.state.breaker.trips,
            faults=self.state.faults,
            journal_digest=self.journal.digest(),
        )
        if report.dropped_admitted != 0:
            raise ServiceError(
                f"never-drop invariant violated: "
                f"{report.dropped_admitted} admitted requests did not "
                f"complete"
            )
        return report


def run_service(
    tenants: Sequence[TenantSpec],
    config: Optional[ServiceConfig] = None,
    cache: Optional[ResultCache] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    journal_path: Optional[Union[str, Path]] = None,
    control_events: Sequence[ControlEvent] = (),
    crash_at_tick: Optional[int] = None,
    crash_mode: str = "sigkill",
    fsync: bool = False,
) -> ServiceReport:
    """Run the multi-tenant fabric arbitration service to completion.

    Arrivals stop at ``config.duration`` ticks; the run then drains
    every admitted request (the virtual clock keeps advancing), so the
    report's never-drop invariant is checked over the *whole* stream.

    ``control_events`` schedules live reconfiguration; it is validated
    up front and enters the journal header's config fingerprint.
    ``crash_at_tick`` arms the chaos crash injector: the run dies
    immediately before processing the first event at or after that tick
    (``crash_mode="sigkill"`` kills the process, ``"raise"`` raises
    :class:`~repro.errors.ServiceCrash`).  ``fsync`` forces every
    journal line to stable storage.
    """
    config = config if config is not None else ServiceConfig()
    if crash_mode not in _CRASH_MODES:
        raise ServiceError(
            f"unknown crash_mode {crash_mode!r}; known: "
            f"{list(_CRASH_MODES)}"
        )
    validate_control_events(
        [tenant.name for tenant in tenants], control_events
    )
    journal = _ServiceJournal(journal_path, fsync=fsync)
    try:
        arbiter = _Arbiter(
            tenants=tenants,
            config=config,
            cache=cache,
            tracer=tracer if tracer is not None else NULL_TRACER,
            metrics=metrics,
            journal=journal,
            control_events=control_events,
            crash_at_tick=crash_at_tick,
            crash_mode=crash_mode,
            journal_path=journal_path,
            fsync=fsync,
        )
        return arbiter.run()
    finally:
        journal.close()


def recover_service(
    tenants: Sequence[TenantSpec],
    config: Optional[ServiceConfig] = None,
    cache: Optional[ResultCache] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    journal_path: Union[str, Path] = "",
    control_events: Sequence[ControlEvent] = (),
    fsync: bool = False,
) -> ServiceReport:
    """Recover a crashed service run from its journal (and snapshots).

    Must be invoked with the *same* fleet, config, control schedule and
    cache setup as the crashed run — the journal header's salt and
    config fingerprint are cross-checked and a mismatch raises
    :class:`~repro.errors.RecoveryError`.

    The newest snapshot whose journal anchor still matches the on-disk
    bytes is restored and the run re-executed from its tick; with no
    usable snapshot the whole timeline replays from tick 0.  Either
    way, every regenerated journal line is verified byte-for-byte
    against the on-disk tail before new lines are appended, so the
    recovered run's final journal — and therefore every digest and
    per-tenant report — is bit-identical to what the uninterrupted run
    would have produced.

    Determinism caveat: recovery re-executes with disk-cache reads
    suppressed outside the restored memo (see ``_Arbiter._probe``).
    For the supported setups — ``--no-cache`` or a cache directory
    private to the run — this is exactly the original timeline.  A
    cache shared with *other* writers that warmed keys before the
    original run started is not reconstructible; such divergence is
    detected and raised, never silently absorbed.
    """
    config = config if config is not None else ServiceConfig()
    validate_control_events(
        [tenant.name for tenant in tenants], control_events
    )
    path = Path(journal_path)
    if not path.is_file():
        raise RecoveryError(
            f"cannot recover: journal {str(path)!r} does not exist"
        )
    trim_torn_tail(path)
    data = path.read_bytes()
    lines = data.decode("ascii").splitlines()
    if not lines:
        raise RecoveryError(
            f"cannot recover: journal {str(path)!r} is empty (not even "
            f"a header survived)"
        )
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise RecoveryError(
            f"cannot recover: journal header is not valid JSON: {exc}"
        ) from exc
    salt = cache.salt if cache is not None else CODE_VERSION_SALT
    fingerprint = config_fingerprint(
        tenants, config, ordered_controls(control_events)
    )
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise RecoveryError(
            "cannot recover: journal does not start with a header line"
        )
    if header.get("format") != SERVICE_JOURNAL_FORMAT:
        raise RecoveryError(
            f"cannot recover: journal format "
            f"{header.get('format')!r} != {SERVICE_JOURNAL_FORMAT} "
            f"(written by a different code version)"
        )
    if header.get("salt") != salt:
        raise RecoveryError(
            f"cannot recover: journal salt {header.get('salt')!r} does "
            f"not match this code version / cache setup"
        )
    if header.get("fingerprint") != fingerprint:
        raise RecoveryError(
            "cannot recover: config fingerprint mismatch — the fleet, "
            "config or control schedule differs from the crashed run"
        )
    snapshot = load_latest_snapshot(
        path, salt=salt, fingerprint=fingerprint, journal_bytes=data
    )
    resolved_tracer = tracer if tracer is not None else NULL_TRACER
    state: Optional[ArbiterState] = None
    offset = resume_tick = 0
    if snapshot is not None:
        offset = int(snapshot["journal_offset"])
        try:
            restored: ArbiterState = decode_state(snapshot["state"])
            # History is not in the snapshot: fold it back from the
            # verified journal prefix the snapshot anchors to.
            fold_history(restored.stats, data[:offset])
        except (
            AttributeError, KeyError, IndexError, TypeError, ValueError
        ) as exc:
            raise RecoveryError(
                f"snapshot is structurally invalid: {exc!r}"
            ) from exc
        state = restored
        resume_tick = int(snapshot["tick"])
    tail = data[offset:].decode("ascii").splitlines()
    journal = _ServiceJournal.for_recovery(
        path, prefix=data[:offset], tail=tail, fsync=fsync
    )
    try:
        arbiter = _Arbiter(
            tenants=tenants,
            config=config,
            cache=cache,
            tracer=resolved_tracer,
            metrics=metrics,
            journal=journal,
            control_events=control_events,
            state=state,
            journal_path=path,
            fsync=fsync,
            replaying=True,
        )
        if resolved_tracer.enabled:
            resolved_tracer.emit(
                ServiceRecovered(
                    cycle=resume_tick,
                    source="replay" if state is None else "snapshot",
                    resume_tick=resume_tick,
                    tail_lines=len(tail),
                )
            )
        report = arbiter.run() if state is None else arbiter.run_loop()
        if journal.tail_remaining() > 0:
            raise RecoveryError(
                f"recovery finished with {journal.tail_remaining()} "
                f"journal lines never regenerated — the journal holds "
                f"history this configuration does not produce"
            )
        return report
    finally:
        journal.close()
