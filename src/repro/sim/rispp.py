"""The RISPP system simulator — gradual SI upgrades (the paper's system).

At every hot-spot entry the Run-Time Manager forecasts the SI execution
frequencies, selects molecules for the AC budget and lets the configured
atom scheduler order the loads.  During execution every SI uses the
fastest implementation whose atoms are loaded *right now* — molecules
become usable on an as-soon-as-available basis, which is the paper's
central architectural feature.

Cross-hot-spot prefetching
--------------------------
With the PREFETCH scheduler
(:class:`~repro.core.schedulers.prefetch.PrefetchScheduler`) the
simulator additionally speculates across phase boundaries: after each
plan is handed to the port, the monitor's transition predictor names the
likely next hot spot; if its confidence clears the scheduler's
threshold, a speculative plan for that phase is computed and up to
``budget`` of its atom loads are queued on the port's speculative lane
(idle-window only, evicting at most stale atoms, never retried).  At the
next switch
the speculation is settled: atoms the materialised phase's plan wants
are hits (their loads are simply no longer needed — overhead hidden),
everything else is wasted and accounted, including the bus cycles it
burned.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.molecule import Molecule
from ..core.monitor import ExecutionMonitor
from ..core.runtime import HotSpotPlan, RuntimeManager
from ..core.schedulers.base import AtomScheduler
from ..core.schedulers.prefetch import PrefetchScheduler
from ..core.si import MoleculeImpl, SILibrary
from ..fabric.atom import AtomRegistry
from ..fabric.reconfig import SpeculationReport
from ..isa.processor import BaseProcessor
from ..obs.events import (
    DecisionStep,
    PrefetchHit,
    PrefetchIssued,
    PrefetchWasted,
    SchedulerDecision,
)
from ..workload.trace import HotSpotTrace
from .engine import SystemSimulator

__all__ = ["RisppSimulator"]


class RisppSimulator(SystemSimulator):
    """Behavioural model of the RISPP run-time system.

    Parameters
    ----------
    scheduler:
        The atom-scheduling strategy under evaluation.
    monitor:
        Execution-frequency forecaster; pass a monitor seeded with an
        offline profile for realistic first-frame behaviour.
    validate_schedules:
        Check every schedule against conditions (1)+(2) (slow; for tests).
    """

    system_name = "RISPP"

    def __init__(
        self,
        library: SILibrary,
        registry: AtomRegistry,
        scheduler: AtomScheduler,
        num_acs: int,
        processor: Optional[BaseProcessor] = None,
        monitor: Optional[ExecutionMonitor] = None,
        record_segments: bool = False,
        validate_schedules: bool = False,
        eviction_policy=None,
        fault_model=None,
        retry_policy=None,
        tracer=None,
        metrics=None,
    ):
        super().__init__(
            library,
            registry,
            num_acs,
            processor=processor,
            record_segments=record_segments,
            eviction_policy=eviction_policy,
            fault_model=fault_model,
            retry_policy=retry_policy,
            tracer=tracer,
            metrics=metrics,
        )
        self.runtime = RuntimeManager(
            library,
            scheduler,
            num_acs,
            monitor=monitor,
            validate_schedules=validate_schedules,
        )
        #: Previous trace's hot spot (feeds the transition predictor).
        self._prev_hot_spot: Optional[str] = None
        #: The hot spot the outstanding speculation was issued for, and
        #: the predictor confidence it was issued at.
        self._spec_predicted: Optional[str] = None
        self._spec_confidence = 0.0
        #: Speculation report cancelled during :meth:`_plan`, awaiting
        #: classification in :meth:`_after_plan` (which knows ``now``).
        self._spec_report: Optional[SpeculationReport] = None

    @property
    def scheduler_name(self) -> str:
        return self.runtime.scheduler.name

    @property
    def _speculating(self) -> bool:
        """Whether the configured scheduler wants speculative prefetch."""
        scheduler = self.runtime.scheduler
        return (
            isinstance(scheduler, PrefetchScheduler) and scheduler.speculates
        )

    def reset(self) -> None:
        """Cold-start fabric, port, the monitor's learned state, the
        scheduler's own state and the speculation, so repeated
        :meth:`run` calls are independent and reproducible."""
        super().reset()
        self.runtime.monitor.reset()
        self.runtime.scheduler.reset()
        self._prev_hot_spot = None
        self._spec_predicted = None
        self._spec_confidence = 0.0
        self._spec_report = None

    # -- SystemSimulator hooks ------------------------------------------------

    def _plan(
        self, trace: HotSpotTrace, available: Molecule
    ) -> Tuple[Sequence[str], Molecule, HotSpotPlan]:
        monitor = self.runtime.monitor
        if self._prev_hot_spot is not None:
            monitor.record_transition(self._prev_hot_spot, trace.hot_spot)
        self._prev_hot_spot = trace.hot_spot
        # Cancel the previous phase's speculation *before* planning: an
        # in-flight speculative load is re-labelled normal here, so the
        # replace_queue dedup can let its completion serve the new plan.
        # Classification waits for _after_plan, which knows the cycle.
        if self._speculating:
            self._spec_report = self.port.cancel_speculative()
        plan = self.runtime.plan_hot_spot(
            trace.hot_spot,
            trace.si_names,
            available,
            # Plan against the *effective* budget: permanently failed
            # containers must not be counted on.
            num_acs=self.fabric.usable_acs,
        )
        # Retain what the plan targets *plus* what is currently loaded and
        # still part of the target — eviction only touches true leftovers.
        return plan.schedule.atom_sequence(), plan.selection.meta, plan

    # -- speculative prefetch --------------------------------------------------

    def _settle_speculation(
        self,
        report: SpeculationReport,
        actual_hot_spot: Optional[str],
        retained: Optional[Molecule],
        cycle: int,
    ) -> None:
        """Classify one phase's speculative loads as hits or waste.

        ``actual_hot_spot``/``retained`` describe the phase that
        materialised (``None`` at run end — everything started is then
        wasted as ``run_end``).  Hits are counted count-aware: per atom
        type at most as many hits as the new selection's meta-molecule
        retains.  Bus cycles of every started-but-not-hit load are added
        to the wasted-bus account (dropped loads never touched the bus).
        """
        predicted = self._spec_predicted
        tracer = self.tracer
        hits: Dict[str, int] = {}
        eligible: List[str] = list(report.completed)
        if report.in_flight is not None:
            eligible.append(report.in_flight)
        if (
            retained is not None
            and actual_hot_spot is not None
            and predicted == actual_hot_spot
        ):
            for atom_type in eligible:
                wanted = retained.count(atom_type)
                if hits.get(atom_type, 0) < wanted:
                    hits[atom_type] = hits.get(atom_type, 0) + 1
                    self._prefetch_hits += 1
                    if tracer.enabled:
                        tracer.emit(
                            PrefetchHit(
                                cycle=cycle,
                                hot_spot=actual_hot_spot,
                                atom_type=atom_type,
                            )
                        )
            surplus_reason = "surplus"
        else:
            surplus_reason = (
                "run_end" if actual_hot_spot is None else "mispredicted"
            )
        taken: Dict[str, int] = {}
        for atom_type in eligible:
            if taken.get(atom_type, 0) < hits.get(atom_type, 0):
                taken[atom_type] = taken.get(atom_type, 0) + 1
                continue
            self._waste(atom_type, surplus_reason, cycle, bus_cost=True)
        run_end = actual_hot_spot is None
        for atom_type in report.failed:
            self._waste(
                atom_type,
                "run_end" if run_end else "failed",
                cycle,
                bus_cost=True,
            )
        for atom_type in report.dropped:
            self._waste(atom_type, "dropped", cycle, bus_cost=False)

    def _waste(
        self, atom_type: str, reason: str, cycle: int, bus_cost: bool
    ) -> None:
        self._prefetch_wasted += 1
        if bus_cost:
            self._prefetch_wasted_bus_cycles += (
                self.registry.reconfig_cycles(atom_type)
            )
        if self.tracer.enabled:
            self.tracer.emit(
                PrefetchWasted(
                    cycle=cycle, atom_type=atom_type, reason=reason
                )
            )

    def _after_plan(
        self, trace: HotSpotTrace, context: HotSpotPlan, now: int
    ) -> None:
        """Settle the previous speculation, then issue the next one."""
        if not self._speculating:
            return
        report = self._spec_report
        self._spec_report = None
        if report is not None and report.issued:
            self._settle_speculation(
                report, trace.hot_spot, context.selection.meta, now
            )
        self._spec_predicted = None
        self._spec_confidence = 0.0
        scheduler = self.runtime.scheduler
        assert isinstance(scheduler, PrefetchScheduler)
        monitor = self.runtime.monitor
        prediction = monitor.predict_next(trace.hot_spot)
        if prediction is None:
            return
        next_hot_spot, confidence = prediction
        if confidence < scheduler.confidence:
            return
        si_names = monitor.si_names_for(next_hot_spot)
        if not si_names:
            # The predicted phase never ran — its SI mix is unknown, so
            # there is nothing sensible to speculate on yet.
            return
        spec_plan = self.runtime.plan_hot_spot(
            next_hot_spot,
            si_names,
            self.fabric.available(),
            num_acs=self.fabric.usable_acs,
        )
        atoms = list(spec_plan.schedule.atom_sequence())[: scheduler.budget]
        if not atoms:
            return
        self._spec_predicted = next_hot_spot
        self._spec_confidence = confidence
        self._prefetch_issued += len(atoms)
        if self.tracer.enabled:
            for atom_type in atoms:
                self.tracer.emit(
                    PrefetchIssued(
                        cycle=now,
                        hot_spot=trace.hot_spot,
                        predicted_hot_spot=next_hot_spot,
                        atom_type=atom_type,
                        confidence=confidence,
                    )
                )
        self.port.enqueue_speculative(atoms, now)

    def _run_epilogue(self, now: int) -> None:
        """Settle speculation the run finished on (everything wasted)."""
        if not self._speculating:
            return
        report = self.port.cancel_speculative()
        if report.issued:
            self._settle_speculation(report, None, None, now)

    def _impl_for(
        self, si_name: str, available: Molecule, context: HotSpotPlan
    ) -> MoleculeImpl:
        return self.runtime.dispatch(si_name, available)

    def _dispatch_memo_key(
        self, trace: HotSpotTrace, context: HotSpotPlan
    ) -> Optional[object]:
        # RISPP dispatch is context-free (fastest molecule available
        # right now), so memoizing on the SI tuple + availability is
        # exact — and the same fabric states recur across frames.
        return trace.si_names

    def _dispatch_preference(
        self, si_name: str, context: HotSpotPlan
    ) -> Sequence[MoleculeImpl]:
        # fastest_available scans the molecules keeping the strictly
        # best (latency, determinant, name) seen so far, starting from
        # software — i.e. the first *feasible* entry of this stable sort
        # (software listed first, so it wins exact key ties).
        si = self.library.get(si_name)
        return sorted(
            [si.software, *si.molecules],
            key=lambda impl: (impl.latency, impl.determinant, impl.name),
        )

    def _decision_event(
        self,
        trace: HotSpotTrace,
        context: HotSpotPlan,
        cycle: int,
        atom_sequence: Sequence[str],
    ) -> SchedulerDecision:
        """Attach the candidate evaluation behind the chosen schedule.

        Each upgrade step carries the two terms every scheduler's
        profitability view reduces to: the benefit numerator
        ``expected × (latency_before − latency_after)`` and the
        denominator ``|a ⊖ o|`` (atoms still to load) — for HEF these
        are exactly the cross-multiplied comparison terms.
        """
        steps = []
        for step in context.schedule.steps:
            si_name = step.impl.si_name
            expected = context.expected.get(si_name, 0.0)
            steps.append(
                DecisionStep(
                    si_name=si_name,
                    molecule=step.impl.name,
                    num_loads=step.num_loads,
                    latency_before=step.latency_before,
                    latency_after=min(step.latency_before, step.impl.latency),
                    benefit_num=expected * step.improvement,
                    benefit_den=step.num_loads,
                )
            )
        selection = tuple(
            sorted(
                (si_name, impl.name)
                for si_name, impl in
                context.selection.hardware_selection().items()
            )
        )
        return SchedulerDecision(
            cycle=cycle,
            hot_spot=trace.hot_spot,
            scheduler=self.scheduler_name,
            selection=selection,
            steps=tuple(steps),
            atom_sequence=tuple(atom_sequence),
        )

    def _finish(self, trace: HotSpotTrace, context: HotSpotPlan) -> None:
        self.runtime.finish_hot_spot(trace.hot_spot, trace.totals())
