"""The Run-Time Manager (Section 3.1).

The Run-Time Manager controls the run-time behaviour of the RISPP
pipeline.  Its three tasks, and where they live here:

I.   *Controlling the execution of SIs* — :meth:`RuntimeManager.dispatch`
     either returns the fastest available hardware molecule for an SI or
     the software implementation (the synchronous-exception / trap path
     on the base ISA).
II.  *Observing and adapting to changing constraints* — the
     :class:`~repro.core.monitor.ExecutionMonitor` predicts per-hot-spot
     SI execution frequencies and is updated after each hot-spot run.
III. *Determining atom re-loading decisions* — molecule selection picks
     the target implementation per SI, and the pluggable atom scheduler
     (Section 4) orders the loads.  Both run on the sparse integer
     tables of :mod:`repro.core.scoring`, which reproduce
     :func:`~repro.core.selection.select_molecules` and
     :meth:`AtomScheduler.schedule` exactly; those two stay as the
     readable statement of the paper's formalism.

The manager is a pure decision component: it never advances time.  The
behavioural simulators in :mod:`repro.sim` own the clock and feed the
manager's decisions into the fabric model.

Being pure, a plan is a function of its inputs alone, so
:meth:`RuntimeManager.plan_hot_spot` memoises whole plans across every
manager of the process (:data:`_PLAN_MEMO`).  The key holds every input
a plan depends on; the memo changes speed only and never enters a
result, journal, cache key or metric.

Whether it pays depends on the workload.  The key includes the fabric's
availability, which differs at nearly every hot-spot entry of a sweep,
but a service re-planning the same request sees the same one.  Hits per
lookup on the perf workloads (seed 2008): ``sweep-fig7`` 0/1,440,
``sweep-prefetch`` 70/1,729, ``sweep-traced`` 0/792, ``service-soak``
102/120 and ``service-miss`` 1,641/1,659.  The memo stays for the
service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple

from ..errors import SelectionError, UnknownSpecialInstructionError
from .molecule import Molecule
from .monitor import ExecutionMonitor
from .schedule import Schedule, validate_schedule
from .memo import LruMemo
from .scoring import fast_schedule, select_molecules_fast

if TYPE_CHECKING:  # annotation-only: keeps core below the schedulers
    from .schedulers.base import AtomScheduler
from .selection import MoleculeSelection
from .si import MoleculeImpl, SILibrary, SpecialInstruction

__all__ = ["HotSpotPlan", "RuntimeManager"]

#: ``(selection, schedule)`` per plan key, shared by every manager of the
#: process.  The fixed bound keeps a long sweep's distinct forecasts from
#: growing it without limit.  Keys pin their SI objects alive (SIs hash
#: by identity), and a stored :class:`Schedule` is never appended to
#: again — only the schedulers build schedules.
_PLAN_MEMO: LruMemo[Tuple[MoleculeSelection, Schedule]] = LruMemo(256)


@dataclass(frozen=True)
class HotSpotPlan:
    """Everything the Run-Time Manager decided at a hot-spot entry."""

    hot_spot: str
    expected: Mapping[str, float]
    selection: MoleculeSelection
    schedule: Schedule

    @property
    def num_scheduled_atoms(self) -> int:
        return len(self.schedule)


class RuntimeManager:
    """Decision core of the run-time system.

    Parameters
    ----------
    library:
        The application's SI library.
    scheduler:
        The atom-scheduling strategy (FSFR/ASF/SJF/HEF/...).
    num_acs:
        Number of atom containers of the fabric.
    monitor:
        The execution-frequency forecaster; a fresh default monitor is
        created when omitted.
    validate_schedules:
        When True, every schedule is checked against conditions (1)+(2)
        before being returned — useful in tests, off by default for
        speed.
    """

    def __init__(
        self,
        library: SILibrary,
        scheduler: AtomScheduler,
        num_acs: int,
        monitor: Optional[ExecutionMonitor] = None,
        validate_schedules: bool = False,
    ) -> None:
        self.library = library
        self.scheduler = scheduler
        self.num_acs = int(num_acs)
        self.monitor = monitor if monitor is not None else ExecutionMonitor()
        self.validate_schedules = bool(validate_schedules)
        self._sis_by_name = {si.name: si for si in library}

    # -- task III: re-loading decisions --------------------------------------

    def plan_hot_spot(
        self,
        hot_spot: str,
        si_names: Sequence[str],
        available: Molecule,
        num_acs: Optional[int] = None,
    ) -> HotSpotPlan:
        """Select molecules and schedule atom loads for a hot-spot entry.

        ``available`` is the fabric's current atom content; atoms already
        loaded are reused (both by the selection's tie-break and by the
        scheduler's ``a_0``).

        ``num_acs`` overrides the configured AC budget for this plan —
        the simulators pass the fabric's *effective* budget
        (:attr:`~repro.fabric.fabric.Fabric.usable_acs`) so that plans
        keep fitting after permanent container faults.  The override
        never exceeds the configured budget.

        Unless the scheduler's ``plan_key()`` is ``None``, an earlier
        plan for the same inputs is reused from the process-wide memo:
        the new :class:`HotSpotPlan` shares its ``selection`` and
        ``schedule``.
        """
        budget = self.num_acs
        if num_acs is not None:
            budget = max(0, min(budget, int(num_acs)))
        sis = self.library.subset(si_names)
        expected = self.monitor.predict(hot_spot, si_names)
        scheduler_key = self.scheduler.plan_key()
        key = None if scheduler_key is None else (
            scheduler_key, tuple(sis), tuple(expected.items()), budget,
            available, self.validate_schedules,
        )
        decided = None if key is None else _PLAN_MEMO.lookup(key)
        if decided is None:
            decided = self._plan(sis, expected, budget, available)
            if key is not None:
                _PLAN_MEMO.store(key, decided)
        selection, schedule = decided
        return HotSpotPlan(
            hot_spot=hot_spot,
            expected=expected,
            selection=selection,
            schedule=schedule,
        )

    def _plan(
        self,
        sis: Sequence[SpecialInstruction],
        expected: Mapping[str, float],
        budget: int,
        available: Molecule,
    ) -> Tuple[MoleculeSelection, Schedule]:
        """Molecule selection plus atom scheduling, uncached."""
        selection = select_molecules_fast(
            sis, expected, budget, available=available
        )
        hardware = selection.hardware_selection()
        if hardware:
            sis_map = {si.name: si for si in sis}
            schedule = fast_schedule(
                self.scheduler, hardware, sis_map, available, expected
            )
            if self.validate_schedules:
                validate_schedule(schedule, hardware, available)
        else:
            schedule = Schedule(self.library.space)
        return selection, schedule

    def plan_with_lease(
        self,
        hot_spot: str,
        si_names: Sequence[str],
        available: Molecule,
        lease: int,
    ) -> HotSpotPlan:
        """Plan a hot-spot entry against a *leased* AC budget.

        The multi-tenant arbiter (:mod:`repro.service`) grants each
        tenant a lease of the shared fabric and plans against exactly
        that many containers, regardless of the fabric's full size.  A
        zero lease is legal and yields a pure-software plan (the cISA
        trap path) — that is the degraded answer the service returns
        while its circuit breaker is open.

        Raises
        ------
        SelectionError
            For a negative lease: leases are granted, never owed.
        """
        if lease < 0:
            raise SelectionError(f"negative AC lease: {lease}")
        return self.plan_hot_spot(
            hot_spot, si_names, available, num_acs=lease
        )

    # -- task II: observation / adaptation ------------------------------------

    def finish_hot_spot(
        self, hot_spot: str, measured: Mapping[str, float]
    ) -> None:
        """Feed the measured SI execution counts back into the monitor."""
        self.monitor.update(hot_spot, measured)

    # -- task I: SI execution control -----------------------------------------

    def dispatch(self, si_name: str, available: Molecule) -> MoleculeImpl:
        """Resolve one SI execution against the current atom availability.

        Returns the fastest available implementation; when that is the
        software implementation the caller must account for the trap into
        the base ISA (see :mod:`repro.isa.processor`).
        """
        try:
            si = self._sis_by_name[si_name]
        except KeyError:
            raise UnknownSpecialInstructionError(
                f"dispatch of unknown SI {si_name!r}"
            ) from None
        return si.fastest_available(available)

    def latencies(
        self, si_names: Sequence[str], available: Molecule
    ) -> Dict[str, int]:
        """Current per-SI latencies under ``available`` (no trap cost)."""
        return {
            name: self._sis_by_name[name].available_latency(available)
            for name in si_names
        }

    def __repr__(self) -> str:
        return (
            f"RuntimeManager({self.scheduler.name}, {self.num_acs} ACs, "
            f"{len(self._sis_by_name)} SIs)"
        )
