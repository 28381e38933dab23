"""Shared execution engine of the system simulators.

The engine owns the clock.  For every hot-spot invocation it

1. charges the Run-Time-Manager entry overhead,
2. asks the concrete simulator for a *plan* (which atoms to load, in
   which order, and which atoms the plan retains),
3. hands the load sequence to the reconfiguration port, and
4. replays the trace's iterations against the evolving atom
   availability (:class:`~repro.sim.vector.VectorExecutor`).

Step 4 exploits that SI latencies are piecewise constant: they only
change when the port completes an atom.  The replay therefore advances
*analytically* from completion to completion — one search over the
trace's cumulative-cycles curve finds how many whole iterations fit
before the next completion — instead of ticking cycle by cycle.  An
iteration that straddles a completion finishes at its old latencies
(the pipeline cannot retarget a running SI), and the upgrade takes
effect from the next iteration on.

This makes a full 140-frame, 20-AC-count, 4-scheduler sweep run in
seconds while remaining exact for the modelled semantics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.molecule import Molecule
from ..core.si import MoleculeImpl, SILibrary
from ..errors import SimulationError
from ..fabric.atom import AtomRegistry
from ..fabric.eviction import EvictionPolicy
from ..fabric.fabric import Fabric
from ..fabric.faults import FaultModel, NoFaults, RetryPolicy
from ..fabric.reconfig import ReconfigPort
from ..isa.processor import BaseProcessor
from ..obs.events import HotSpotSwitch, RunEnd, RunStart, SchedulerDecision
from ..obs.tracer import NULL_TRACER, Tracer
from ..workload.trace import HotSpotTrace, Workload
from .results import LatencyEvent, Segment, SimulationResult
from .vector import VectorExecutor

if TYPE_CHECKING:
    # Annotation-only: the deterministic core touches obs solely via
    # the tracer protocol; the metrics registry is injected by callers.
    from ..obs.metrics import MetricsRegistry

__all__ = ["SystemSimulator"]


class SystemSimulator(ABC):
    """Base class of the RISPP and Molen system simulators.

    Parameters
    ----------
    library:
        The application's SI library.
    registry:
        Atom registry (must induce the library's atom space).
    num_acs:
        Number of Atom Containers.
    processor:
        Base-processor cost model (defaults apply when omitted).
    record_segments:
        Record per-span execution segments and latency-change events for
        the Figure 2 / Figure 8 style analyses (costs memory; off by
        default).
    fault_model:
        Fault injection for the reconfiguration fabric (perfect fabric
        when omitted); see :mod:`repro.fabric.faults`.
    retry_policy:
        How the reconfiguration port reacts to transient load failures.
    tracer:
        Observability sink for the typed run events (hot-spot switches,
        scheduler decisions, atom loads, SI upgrades, degraded segments);
        see :mod:`repro.obs`.  Defaults to the no-op tracer, in which
        case no event objects are ever constructed.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        wall-clock scheduler-decision timings and end-of-run gauges.
        Wall-clock readings never enter the (deterministic) event log.
    """

    #: Reported in results as the system column.
    system_name: str = "abstract"

    def __init__(
        self,
        library: SILibrary,
        registry: AtomRegistry,
        num_acs: int,
        processor: Optional[BaseProcessor] = None,
        record_segments: bool = False,
        eviction_policy: Optional[EvictionPolicy] = None,
        fault_model: Optional[FaultModel] = None,
        retry_policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if registry.space != library.space:
            raise SimulationError(
                "atom registry and SI library use different atom spaces"
            )
        self.library = library
        self.registry = registry
        self.num_acs = int(num_acs)
        self.processor = processor if processor is not None else BaseProcessor()
        self.record_segments = bool(record_segments)
        self.fault_model = (
            fault_model if fault_model is not None else NoFaults()
        )
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.fabric = Fabric(
            registry,
            num_acs,
            eviction_policy=eviction_policy,
            tracer=self.tracer,
        )
        self.port = ReconfigPort(
            self.fabric,
            fault_model=self.fault_model,
            retry_policy=self.retry_policy,
            tracer=self.tracer,
        )
        self._degraded_cycles = 0
        #: Cross-hot-spot prefetch accounting (stays zero unless a
        #: concrete system speculates; see :mod:`repro.sim.rispp`).
        self._prefetch_issued = 0
        self._prefetch_hits = 0
        self._prefetch_wasted = 0
        self._prefetch_wasted_bus_cycles = 0

    # -- hooks for the concrete systems ------------------------------------------

    @property
    @abstractmethod
    def scheduler_name(self) -> str:
        """Label for the result tables (scheduler or system variant)."""

    @abstractmethod
    def _plan(
        self, trace: HotSpotTrace, available: Molecule
    ) -> Tuple[Sequence[str], Molecule, object]:
        """Decide the atom loads for a hot-spot entry.

        Returns ``(atom_sequence, retained, context)``: the load order
        for the port, the meta-molecule of atoms the plan keeps (the
        eviction reference), and an opaque context passed back to
        :meth:`_impl_for` and :meth:`_finish`.
        """

    @abstractmethod
    def _impl_for(
        self, si_name: str, available: Molecule, context: object
    ) -> MoleculeImpl:
        """The implementation an SI execution uses right now.

        The reference :meth:`_dispatch_preference` must reproduce;
        ``tests/test_replay_state.py`` checks the two agree over random
        availabilities.
        """

    def _finish(self, trace: HotSpotTrace, context: object) -> None:
        """Hook called after a hot-spot invocation completed."""

    def _after_plan(
        self, trace: HotSpotTrace, context: object, now: int
    ) -> None:
        """Hook called right after the plan was handed to the port.

        Concrete systems may issue speculative work for a predicted next
        phase here (the port queue now reflects the committed plan).
        """

    def _run_epilogue(self, now: int) -> None:
        """Hook called once after the last trace, before run teardown.

        Lets systems settle cross-phase state (e.g. classify leftover
        speculative loads) so the accounting invariants hold per run.
        """

    def _dispatch_memo_key(
        self, trace: HotSpotTrace, context: object
    ) -> Optional[object]:
        """Hashable key under which dispatch may be shared across traces.

        The vector executor keeps one dispatch memo (availability ->
        implementations) per key for the whole run, and one set of
        preference rows per key for the whole *process*: the rows are
        shared by every simulator of the same class, library (by
        identity) and processor.  The key must therefore fix every
        :meth:`_dispatch_preference` list of the trace's SIs — a system
        whose lists depend on the context must fold that context into
        the key.  ``None`` (the safe default) rebuilds both for every
        trace.
        """
        return None

    @abstractmethod
    def _dispatch_preference(
        self, si_name: str, context: object
    ) -> Sequence[MoleculeImpl]:
        """Static preference order replicating :meth:`_impl_for`.

        Dispatch must equal "the first implementation of this ordered
        list whose atoms are loaded": the vector executor resolves it
        on sparse rows of this list, never through :meth:`_impl_for`.
        The list must contain an always-feasible entry (a software
        implementation).
        """

    def _decision_event(
        self,
        trace: HotSpotTrace,
        context: object,
        cycle: int,
        atom_sequence: Sequence[str],
    ) -> SchedulerDecision:
        """Build the trace event describing a scheduler decision.

        The base implementation records the chosen load order only;
        systems with richer planning state (RISPP's candidate evaluation
        with HEF benefit terms) override this to attach it.
        """
        return SchedulerDecision(
            cycle=cycle,
            hot_spot=trace.hot_spot,
            scheduler=self.scheduler_name,
            selection=(),
            steps=(),
            atom_sequence=tuple(atom_sequence),
        )

    # -- main loop -------------------------------------------------------------------

    def attach(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """Point the simulator's instrumentation at ``tracer`` and
        ``metrics``; ``None`` detaches (the no-op tracer, no metrics).

        A simulator kept for many runs attaches a run's sinks before
        the run and detaches them after it, so it never keeps them
        alive.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer = self.fabric.tracer = self.port.tracer = tracer
        self.metrics = metrics

    def reset(self) -> None:
        """Cold-start the fabric, port and fault model (fresh run).

        Containers killed by permanent faults are repaired (a fresh run
        models a fresh board) and the fault model replays the identical
        fault schedule, so repeated runs reproduce bit-for-bit.  After a
        reset the simulator is observationally a new one with the same
        configuration; fabric and port are reset in place.
        """
        self.fabric.reset()
        self.fault_model.reset()
        self.retry_policy.reset()
        self.port.reset()
        self._degraded_cycles = 0
        self._prefetch_issued = 0
        self._prefetch_hits = 0
        self._prefetch_wasted = 0
        self._prefetch_wasted_bus_cycles = 0

    def run(self, workload: Workload) -> SimulationResult:
        """Replay ``workload`` and return the accounted result."""
        self.reset()
        vexec = VectorExecutor(self)
        now = 0
        hot_spot_cycles: Dict[str, int] = {}
        frame_cycles: Dict[int, int] = {}
        si_totals: Dict[str, int] = {}
        segments: Optional[List[Segment]] = [] if self.record_segments else None
        latency_events: Optional[List[LatencyEvent]] = (
            [] if self.record_segments else None
        )
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                RunStart(
                    cycle=0,
                    system=self.system_name,
                    scheduler=self.scheduler_name,
                    num_acs=self.num_acs,
                    workload_name=workload.name,
                )
            )

        for trace_index, trace in enumerate(workload):
            start = now
            # Drain completions up to the switch cycle first so the event
            # log stays non-decreasing in cycle across trace boundaries.
            self.port.advance_to(now)
            if tracer.enabled:
                tracer.emit(
                    HotSpotSwitch(
                        cycle=now,
                        hot_spot=trace.hot_spot,
                        frame_index=trace.frame_index,
                        trace_index=trace_index,
                        entry_overhead=self.processor.hot_spot_entry_overhead,
                    )
                )
            now += self.processor.hot_spot_entry_overhead
            self.port.advance_to(now)
            available = self.fabric.available()
            if self.metrics is not None:
                with self.metrics.timer("scheduler.decision_seconds"):
                    atom_sequence, retained, context = self._plan(
                        trace, available
                    )
            else:
                atom_sequence, retained, context = self._plan(trace, available)
            if tracer.enabled:
                tracer.emit(
                    self._decision_event(trace, context, now, atom_sequence)
                )
            self.port.replace_queue(list(atom_sequence), retained, now)
            self._after_plan(trace, context, now)
            now = vexec.execute(trace, context, now, segments, latency_events)
            for si_name, count in trace.totals().items():
                si_totals[si_name] = si_totals.get(si_name, 0) + count
            self._finish(trace, context)
            elapsed = now - start
            hot_spot_cycles[trace.hot_spot] = (
                hot_spot_cycles.get(trace.hot_spot, 0) + elapsed
            )
            frame_cycles[trace.frame_index] = (
                frame_cycles.get(trace.frame_index, 0) + elapsed
            )

        self._run_epilogue(now)
        if tracer.enabled:
            tracer.emit(RunEnd(cycle=now, total_cycles=now))
        if self.metrics is not None:
            self.metrics.gauge("run.total_cycles").set(now)
            self.metrics.gauge("bus.busy_cycles").set(self.port.busy_cycles)
            self.metrics.gauge("bus.busy_fraction").set(
                min(1.0, self.port.busy_cycles / now) if now else 0.0
            )
            self.metrics.gauge("loads.completed").set(
                self.port.loads_completed
            )
            self.metrics.gauge("fabric.evictions").set(
                self.fabric.num_evictions
            )
        per_frame = [
            frame_cycles[idx] for idx in sorted(frame_cycles)
        ]
        return SimulationResult(
            system=self.system_name,
            scheduler_name=self.scheduler_name,
            num_acs=self.num_acs,
            workload_name=workload.name,
            total_cycles=now,
            hot_spot_cycles=hot_spot_cycles,
            per_frame_cycles=per_frame,
            si_executions=si_totals,
            loads_started=self.port.loads_started,
            loads_completed=self.port.loads_completed,
            evictions=self.fabric.num_evictions,
            loads_failed=self.port.loads_failed,
            loads_retried=self.port.loads_retried,
            loads_abandoned=self.port.loads_abandoned,
            dead_containers=self.fabric.dead_count,
            degraded_cycles=self._degraded_cycles,
            bus_busy_cycles=self.port.busy_cycles,
            prefetch_issued=self._prefetch_issued,
            prefetch_hits=self._prefetch_hits,
            prefetch_wasted=self._prefetch_wasted,
            prefetch_wasted_bus_cycles=self._prefetch_wasted_bus_cycles,
            segments=segments,
            latency_events=latency_events,
        )
