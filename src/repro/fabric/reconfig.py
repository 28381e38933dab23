"""The reconfiguration port.

The prototype loads partial bitstreams through a single SelectMap/ICAP
interface: exactly one atom can be in flight at any time, and loading an
average atom takes 874.03 microseconds — several orders of magnitude
longer than an SI execution, which is why the *order* of loads (the
scheduling problem of Section 4) dominates hot-spot performance.

:class:`ReconfigPort` owns the pending-load FIFO and the in-flight load.
The simulator drives it with :meth:`advance_to`, collecting
:class:`LoadCompletion` events; a hot-spot switch replaces the pending
FIFO via :meth:`replace_queue` (the in-flight load always completes —
aborting a partial bitstream write would leave the container unusable
anyway).

Fault injection
---------------
A :class:`~repro.fabric.faults.FaultModel` is consulted once per load
completion.  A *transient* failure reverts the container to empty and
re-enqueues the load under the port's
:class:`~repro.fabric.faults.RetryPolicy` (exponential backoff expressed
in reconfiguration cycles, modelled as extra in-flight time of the
retry).  A *permanent* failure kills the container, shrinking the
fabric's usable-AC budget.  Loads whose retry budget is exhausted, or
that no longer fit the degraded fabric, are *abandoned* — the affected
SIs keep executing via the base-ISA trap path, so an SI is always
executable no matter what the fabric does.

Speculative lane
----------------
The PREFETCH scheduler (:mod:`repro.core.schedulers.prefetch`) issues
atom loads for a *predicted* next hot spot through
:meth:`ReconfigPort.enqueue_speculative`.  Speculative loads live in a
second FIFO that only drains while the normal queue is empty (idle
windows of the bus), may only fill empty containers or evict *stale*
atoms — never one the retained set (the current selection) needs, the
same victim rule normal loads obey — and are never retried on a fault.
When the current plan needs every loaded atom a speculative load is
dropped at zero bus cost instead of raising.  At the next
hot-spot switch :meth:`ReconfigPort.cancel_speculative` settles the
lane: still-pending entries are cancelled (zero bus cost) and the
caller classifies everything started as hit or wasted.  An in-flight
speculative load is simply re-labelled as a normal load — if the new
plan wants its atom the existing :meth:`replace_queue` dedup makes the
completion serve the plan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from ..core.molecule import Molecule
from ..errors import FabricError, SimulationError, TransientLoadError
from ..obs.events import (
    ContainerDead,
    LoadAbandoned,
    LoadComplete as LoadCompleteEvent,
    LoadFailed,
    LoadRetry,
    LoadStart,
)
from ..obs.tracer import NULL_TRACER, Tracer
from .fabric import Fabric
from .faults import FaultModel, LoadFault, NoFaults, RetryPolicy

__all__ = ["LoadCompletion", "SpeculationReport", "ReconfigPort"]


@dataclass(frozen=True)
class LoadCompletion:
    """One finished atom load."""

    cycle: int
    atom_type: str
    container_index: int


@dataclass(frozen=True)
class SpeculationReport:
    """What happened to one phase's speculative loads (settled lane).

    Returned by :meth:`ReconfigPort.cancel_speculative`.  ``completed``
    atoms are loaded and usable; ``in_flight`` is the one atom still
    being written (re-labelled normal by the cancel); ``dropped`` atoms
    never touched the bus (no free or evictable container, or still
    pending at the cancel); ``failed`` atoms were started but killed by
    the fault model
    (speculative loads are not retried).
    """

    completed: Tuple[str, ...]
    in_flight: Optional[str]
    dropped: Tuple[str, ...]
    failed: Tuple[str, ...]

    @property
    def started(self) -> Tuple[str, ...]:
        """Atoms that actually occupied the bus (cost bus cycles)."""
        extra = (self.in_flight,) if self.in_flight is not None else ()
        return self.completed + self.failed + extra

    @property
    def issued(self) -> int:
        """Total speculative atoms the report settles."""
        return len(self.started) + len(self.dropped)


class ReconfigPort:
    """Serial atom loader attached to a fabric.

    Parameters
    ----------
    fabric:
        The Atom-Container array to load into.
    fault_model:
        Oracle deciding the fate of each completing load; the perfect
        fabric (:class:`~repro.fabric.faults.NoFaults`) when omitted.
    retry_policy:
        Reaction to transient load failures; sensible defaults apply
        when omitted.
    tracer:
        Observability sink for load start/complete/fail/retry/abandon
        events; the no-op tracer when omitted (zero overhead).
    """

    def __init__(
        self,
        fabric: Fabric,
        fault_model: Optional[FaultModel] = None,
        retry_policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.fabric = fabric
        self.fault_model = fault_model if fault_model is not None else NoFaults()
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.reset()

    def reset(self) -> None:
        """Return to the state of a new port: idle, nothing queued,
        every counter at zero.  The fabric, fault model and retry
        policy are kept (their owner resets them)."""
        self._pending: Deque[str] = deque()
        #: The meta-molecule of atoms the active plan retains (eviction
        #: reference); updated on every :meth:`replace_queue`.
        self._retained: Molecule = self.fabric.space.zero()
        self._in_flight: Optional[str] = None
        self._in_flight_container: Optional[int] = None
        self._in_flight_failures: int = 0
        self._busy_until: int = 0
        self._loads_started = 0
        self._loads_completed = 0
        self._loads_failed = 0
        self._loads_retried = 0
        self._loads_abandoned = 0
        self._busy_cycles = 0
        #: Speculative lane: pending prefetch loads (drained only while
        #: the normal queue is idle) and the current phase's settlement
        #: bookkeeping (see :meth:`cancel_speculative`).
        self._spec_pending: Deque[str] = deque()
        self._in_flight_spec = False
        self._spec_completed: List[str] = []
        self._spec_dropped: List[str] = []
        self._spec_failed: List[str] = []

    # -- statistics ------------------------------------------------------------

    @property
    def loads_started(self) -> int:
        return self._loads_started

    @property
    def loads_completed(self) -> int:
        return self._loads_completed

    @property
    def loads_failed(self) -> int:
        """Load completions the fault model failed (transient or permanent)."""
        return self._loads_failed

    @property
    def loads_retried(self) -> int:
        """Failed loads that were re-attempted under the retry policy."""
        return self._loads_retried

    @property
    def loads_abandoned(self) -> int:
        """Loads given up on (retry budget exhausted or fabric too degraded).

        Every abandoned load is survivable: the affected SI keeps
        executing through the base-ISA trap path.
        """
        return self._loads_abandoned

    @property
    def busy_cycles(self) -> int:
        """Cycles the bus spent (or is committed to spend) writing.

        Accumulated when a load *starts* — retry backoff included, so at
        any moment this is the port's total committed bus occupancy; at
        most one not-yet-finished load is counted ahead of time.
        """
        return self._busy_cycles

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def is_idle(self) -> bool:
        return self._in_flight is None and not self._pending

    @property
    def is_retrying(self) -> bool:
        """Whether the current in-flight load is a retry attempt."""
        return self._in_flight is not None and self._in_flight_failures > 0

    # -- queue management --------------------------------------------------------

    def replace_queue(
        self, atom_types: Sequence[str], retained: Molecule, now: int
    ) -> None:
        """Install a new load schedule (hot-spot switch).

        Pending loads of the previous plan are dropped; the in-flight
        load, if any, completes normally.  ``retained`` becomes the new
        eviction reference.

        The caller computes its load list from the *completed* fabric
        contents, so an atom currently being written is invisible to it.
        If that in-flight atom is part of the new plan, its completion
        will serve the plan — the duplicate entry is removed from the
        queue here (otherwise a plan that exactly fills the fabric could
        end up one container short).
        """
        pending = list(atom_types)
        in_flight = self._in_flight
        if (
            in_flight is not None
            and in_flight in pending
            and self.fabric.loaded_count(in_flight) + 1
            <= retained.count(in_flight)
        ):
            pending.remove(in_flight)
        self._pending = deque(pending)
        self._retained = retained
        self._maybe_start(now)

    def enqueue(self, atom_types: Sequence[str], now: int) -> None:
        """Append loads to the current plan (keeps the retained set)."""
        self._pending.extend(atom_types)
        self._maybe_start(now)

    # -- speculative lane -------------------------------------------------------

    @property
    def speculation_outstanding(self) -> bool:
        """Whether any speculative state awaits settlement."""
        return bool(
            self._spec_pending
            or self._in_flight_spec
            or self._spec_completed
            or self._spec_dropped
            or self._spec_failed
        )

    def enqueue_speculative(
        self, atom_types: Sequence[str], now: int
    ) -> None:
        """Queue prefetch loads for a predicted next hot spot.

        Speculative loads only run while the normal queue is idle, and
        may evict only stale atoms (never one the retained set needs);
        atoms that find no free or evictable container are dropped
        (settled as such by :meth:`cancel_speculative`).
        """
        self._spec_pending.extend(atom_types)
        self._maybe_start(now)

    def cancel_speculative(self) -> SpeculationReport:
        """Settle the speculative lane (hot-spot switch).

        Still-pending speculative loads are cancelled (zero bus cost)
        and reported as dropped; an in-flight speculative load keeps
        writing but is re-labelled as a normal load, so the existing
        :meth:`replace_queue` dedup lets its completion serve the new
        plan when the atom is wanted.  All per-phase speculative
        bookkeeping is reset.
        """
        dropped = self._spec_dropped + list(self._spec_pending)
        self._spec_pending.clear()
        in_flight = self._in_flight if self._in_flight_spec else None
        self._in_flight_spec = False
        report = SpeculationReport(
            completed=tuple(self._spec_completed),
            in_flight=in_flight,
            dropped=tuple(dropped),
            failed=tuple(self._spec_failed),
        )
        self._spec_completed = []
        self._spec_dropped = []
        self._spec_failed = []
        return report

    # -- time advancement -----------------------------------------------------------

    def _start_load(
        self,
        atom_type: str,
        now: int,
        delay: int = 0,
        failures: int = 0,
        speculative: bool = False,
    ) -> bool:
        """Begin one load (fresh or retry); False when it must be abandoned.

        A :class:`~repro.errors.CapacityError` on a *degraded* fabric is
        an expected consequence of dead containers — the load is dropped
        and the SIs fall back to software.  On a healthy fabric it still
        indicates a scheduler bug and propagates.

        A *speculative* load may fill an empty container or evict a
        stale atom (one the retained set does not need — the same victim
        rule normal loads use), but when the current plan needs every
        loaded atom it is dropped instead of raising.
        """
        container = self.fabric.try_begin_load(atom_type, now, self._retained)
        if container is None:
            if speculative:
                # Nothing evictable: the current selection needs every
                # loaded atom.  Drop the speculation at zero bus cost.
                self._spec_dropped.append(atom_type)
                return False
            if not self.fabric.is_degraded:
                raise self.fabric.capacity_error(atom_type, self._retained)
            self._loads_abandoned += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    LoadAbandoned(
                        cycle=now,
                        atom_type=atom_type,
                        reason="degraded-fabric",
                    )
                )
            return False
        duration = self.fabric.registry.reconfig_cycles(atom_type)
        self._in_flight = atom_type
        self._in_flight_container = container.index
        self._in_flight_failures = failures
        self._in_flight_spec = speculative
        self._busy_until = now + delay + duration
        self._loads_started += 1
        self._busy_cycles += delay + duration
        if self.tracer.enabled:
            self.tracer.emit(
                LoadStart(
                    cycle=now,
                    atom_type=atom_type,
                    container_index=container.index,
                    expected_completion=self._busy_until,
                    attempt=failures,
                    speculative=speculative,
                )
            )
        return True

    def _maybe_start(self, now: int) -> None:
        while self._in_flight is None and self._pending:
            if self._start_load(self._pending.popleft(), now):
                return
        # The bus is idle and nothing of the active plan is queued: fill
        # the window with speculative prefetch loads, if any.
        while self._in_flight is None and self._spec_pending:
            if self._start_load(
                self._spec_pending.popleft(), now, speculative=True
            ):
                return

    def next_completion(self) -> Optional[int]:
        """Cycle of the next load completion, or None when idle."""
        return self._busy_until if self._in_flight is not None else None

    def _clear_in_flight(self) -> None:
        self._in_flight = None
        self._in_flight_container = None
        self._in_flight_failures = 0
        self._in_flight_spec = False

    def _handle_fault(
        self, fault: LoadFault, container, finish: int
    ) -> None:
        """React to a failed load completion at cycle ``finish``."""
        atom_type = self._in_flight
        failures = self._in_flight_failures + 1
        self._loads_failed += 1
        if self.tracer.enabled:
            self.tracer.emit(
                LoadFailed(
                    cycle=finish,
                    atom_type=atom_type,
                    container_index=container.index,
                    fault=fault.name.lower(),
                    attempt=failures - 1,
                )
            )
        container.fail_load()
        if fault is LoadFault.PERMANENT:
            self.fabric.kill_container(container.index)
            if self.tracer.enabled:
                self.tracer.emit(
                    ContainerDead(cycle=finish, container_index=container.index)
                )
        speculative = self._in_flight_spec
        self._clear_in_flight()
        if speculative:
            # Speculative loads are never retried: the prediction may
            # already be stale, and retry backoff would hog the bus the
            # current plan might need.  Settled as a failed speculation.
            self._spec_failed.append(atom_type)
            self._loads_abandoned += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    LoadAbandoned(
                        cycle=finish,
                        atom_type=atom_type,
                        reason="speculative-no-retry",
                    )
                )
            self._maybe_start(finish)
            return
        if self.retry_policy.allows_retry(failures):
            # Backoff is modelled as extra in-flight time of the retry:
            # the port stays "busy" through the gap, keeping completion
            # times monotone and exactly accounted.
            backoff = self.retry_policy.delay(failures)
            if self._start_load(
                atom_type,
                finish,
                delay=backoff,
                failures=failures,
            ):
                self._loads_retried += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        LoadRetry(
                            cycle=finish,
                            atom_type=atom_type,
                            attempt=failures,
                            backoff=backoff,
                        )
                    )
                return
        else:
            if self.retry_policy.on_exhausted == "raise":
                raise TransientLoadError(
                    f"load of atom {atom_type!r} failed {failures} times "
                    f"at cycle {finish}; retry budget "
                    f"({self.retry_policy.max_retries}) exhausted"
                )
            self._loads_abandoned += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    LoadAbandoned(
                        cycle=finish,
                        atom_type=atom_type,
                        reason="retry-budget-exhausted",
                    )
                )
        self._maybe_start(finish)

    def advance_to(self, cycle: int) -> List[LoadCompletion]:
        """Process all completions up to and including ``cycle``.

        Completed loads immediately trigger the next pending load (the
        port never idles while work is queued).  Returns the successful
        completion events in time order; failed loads are retried or
        abandoned per the fault model and retry policy and never appear
        as events.
        """
        events: List[LoadCompletion] = []
        while self._in_flight is not None and self._busy_until <= cycle:
            finish = self._busy_until
            container = self.fabric.containers[self._in_flight_container]
            if container.atom_type != self._in_flight:  # pragma: no cover
                raise FabricError(
                    f"in-flight bookkeeping mismatch on AC"
                    f"{self._in_flight_container}"
                )
            fault = self.fault_model.check_load(
                self._in_flight, container.index, finish
            )
            if fault is not None:
                self._handle_fault(fault, container, finish)
                continue
            container.complete_load(finish)
            events.append(
                LoadCompletion(
                    cycle=finish,
                    atom_type=self._in_flight,
                    container_index=container.index,
                )
            )
            if self._in_flight_spec:
                self._spec_completed.append(self._in_flight)
            self._loads_completed += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    LoadCompleteEvent(
                        cycle=finish,
                        atom_type=self._in_flight,
                        container_index=container.index,
                    )
                )
            self._clear_in_flight()
            self._maybe_start(finish)
        return events

    def fail_in_flight(self, fault: LoadFault = LoadFault.TRANSIENT) -> None:
        """Manually inject a failure of the current in-flight load.

        Chaos-testing hook: the load fails *now* with the given fault
        class, regardless of the configured fault model.

        Raises
        ------
        TransientLoadError
            When no load is in flight.
        """
        if self._in_flight is None:
            raise TransientLoadError(
                "cannot inject a load failure: the port is idle"
            )
        container = self.fabric.containers[self._in_flight_container]
        self._handle_fault(fault, container, self._busy_until)

    def drain(self, max_steps: int = 100_000) -> List[LoadCompletion]:
        """Run the port until every queued load completed (test helper).

        ``max_steps`` bounds the number of port steps so that a fault
        schedule which keeps failing a retryable load cannot spin
        forever.

        Raises
        ------
        SimulationError
            When the port has not settled after ``max_steps`` steps.
        """
        events: List[LoadCompletion] = []
        steps = 0
        while self._in_flight is not None:
            steps += 1
            if steps > max_steps:
                raise SimulationError(
                    f"reconfiguration port failed to drain within "
                    f"{max_steps} steps: in-flight {self._in_flight!r} "
                    f"(attempt {self._in_flight_failures + 1}, busy until "
                    f"{self._busy_until}), {len(self._pending)} pending "
                    f"loads {list(self._pending)!r}"
                )
            events.extend(self.advance_to(self._busy_until))
        return events

    def __repr__(self) -> str:
        flight = self._in_flight or "-"
        return (
            f"ReconfigPort(in_flight={flight}, pending={len(self._pending)}, "
            f"busy_until={self._busy_until})"
        )
