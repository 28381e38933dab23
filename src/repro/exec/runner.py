"""Cache-backed execution of sweep cells.

:func:`run_sweep` is the one entry point of every sweep.  It serves
what a resumed journal or the :class:`~repro.exec.cache.ResultCache`
already holds, then executes the rest: in-process for traced cells and
for serial unsupervised runs, otherwise on the long-lived worker slots
of :mod:`repro.exec.supervise`.  Every cell, however it was served,
completes in one place (:class:`_Sweep`), which stores it in the cache,
journals it and hands it to the report.

Determinism contract: a cell is a *pure function* of its configuration.
Every cell builds its own workload from itself alone (no state
crosses process boundaries besides the cell itself), over the process's
frozen :func:`~repro.h264.silibrary.h264_platform`, and all models are
seed-driven.  The simulator comes from a small per-process pool keyed
by the cell's simulator fields (:func:`_simulator_key`); a pooled
simulator starts every run with :meth:`~repro.sim.engine.SystemSimulator.reset`,
after which it is observationally a fresh one, so which cells ran
before in the same process cannot show in a result: not in a serial
run, and not on a long-lived worker.  A parallel run is therefore
bit-identical to a serial run, and both are bit-identical to a cache
replay.  ``tests/test_exec_determinism.py`` and
``tests/test_sim_pool.py`` pin this down.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.memo import LruMemo
from ..core.schedulers import get_scheduler
from ..errors import SweepError
from ..fabric.faults import BernoulliLoadFaults, RetryPolicy
from ..h264.silibrary import h264_platform
from ..sim.engine import SystemSimulator
from ..sim.molen import MolenSimulator
from ..sim.results import SimulationResult
from ..sim.rispp import RisppSimulator
from ..sim.software import simulate_software
from .cache import CODE_VERSION_SALT, ResultCache, cell_key
from .journal import SweepJournal, read_journal
from .spec import SweepCell, SweepSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry
    from ..obs.tracer import Tracer
    from .chaos import ChaosSpec
    from .journal import JournalState, QuarantinedCell
    from .supervise import SupervisorPolicy

__all__ = [
    "CellOutcome",
    "SweepReport",
    "execute_cell",
    "run_sweep",
    "default_jobs",
    "cache_from_env",
]


def default_jobs() -> int:
    """Worker count from the ``REPRO_JOBS`` environment (default 1)."""
    try:
        jobs = int(os.environ.get("REPRO_JOBS", "1"))
    except ValueError:
        return 1
    return max(1, jobs)


def cache_from_env() -> Optional[ResultCache]:
    """A :class:`ResultCache` at ``REPRO_CACHE_DIR``, if that is set."""
    root = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return ResultCache(root) if root else None


#: Warm simulators by :func:`_simulator_key`, shared by every cell of
#: the process.  The service's fleets need 6 keys (three schedulers at
#: leases of 2 and 3 ACs); a sweep cell's key changes with its AC
#: count, so a sweep mostly builds, and the bound caps what it keeps
#: (each kept simulator holds its last run's monitor state).
_SIMULATORS: LruMemo[SystemSimulator] = LruMemo(8)


def _simulator_key(cell: SweepCell) -> Tuple[Any, ...]:
    """Every field of ``cell`` its simulator's construction reads."""
    knobs = (
        (cell.prefetch_confidence, cell.prefetch_budget)
        if cell.scheduler == "PREFETCH"
        else None
    )
    return (
        cell.system,
        cell.scheduler,
        knobs,
        cell.num_acs,
        cell.record_segments,
        cell.fault_rate,
        cell.fault_seed,
        cell.max_retries,
    )


def _build_simulator(cell: SweepCell) -> SystemSimulator:
    """A new simulator for ``cell``'s simulator fields."""
    registry, library = h264_platform()
    fault_model = None
    if cell.fault_rate > 0.0:
        fault_model = BernoulliLoadFaults(
            cell.fault_rate, seed=cell.fault_seed
        )
    retry_policy = RetryPolicy(max_retries=cell.max_retries)
    if cell.system == "RISPP":
        scheduler_kwargs: Dict[str, Any] = {}
        if cell.scheduler == "PREFETCH":
            scheduler_kwargs = {
                "confidence": cell.prefetch_confidence,
                "budget": cell.prefetch_budget,
            }
        return RisppSimulator(
            library,
            registry,
            get_scheduler(cell.scheduler, **scheduler_kwargs),
            cell.num_acs,
            record_segments=cell.record_segments,
            fault_model=fault_model,
            retry_policy=retry_policy,
        )
    return MolenSimulator(
        library,
        registry,
        cell.num_acs,
        record_segments=cell.record_segments,
        fault_model=fault_model,
        retry_policy=retry_policy,
    )


def execute_cell(
    cell: SweepCell,
    tracer: Optional["Tracer"] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> SimulationResult:
    """Run one cell's simulation in this process (no cache, no worker).

    The simulator comes warm from the process's pool and starts from
    its reset, so the result equals a freshly built simulator's.
    ``tracer`` / ``metrics`` (see :mod:`repro.obs`) are attached for
    this run only and detached afterwards; the ``Software`` baseline
    has no fabric and ignores them.
    """
    workload = cell.workload.build()
    if cell.system == "Software":
        return simulate_software(h264_platform()[1], workload)
    key = _simulator_key(cell)
    sim = _SIMULATORS.lookup(key)
    if sim is None:
        sim = _build_simulator(cell)
        _SIMULATORS.store(key, sim)
    sim.attach(tracer, metrics)
    try:
        return sim.run(workload)
    finally:
        sim.attach()


def _timed_execute(
    cell: SweepCell, tracer: Optional["Tracer"] = None
) -> Tuple[Dict[str, Any], float]:
    """Run a cell, return (payload, seconds): in-process and on workers.

    Results travel as plain-JSON dictionaries rather than pickled
    objects, so exactly what a worker computed is exactly what the cache
    stores and what a serial run serializes — one representation for
    every path.
    """
    start = time.perf_counter()
    result = execute_cell(cell, tracer)
    payload = result.to_json_dict()
    return payload, time.perf_counter() - start


@dataclass(frozen=True)
class CellOutcome:
    """One executed (or cache-served) cell of a sweep."""

    cell: SweepCell
    result: SimulationResult
    #: Wall-clock seconds this cell cost *this* invocation: simulation
    #: time on a miss, artifact-read time on a hit.
    wall_time: float
    cache_hit: bool

    @property
    def label(self) -> str:
        return self.cell.label


@dataclass
class SweepReport:
    """Everything one sweep invocation produced, in cell order."""

    outcomes: List[CellOutcome]
    #: Wall-clock seconds of the whole invocation (dispatch included).
    elapsed: float = 0.0
    jobs: int = 1
    #: Cells the supervisor gave up on (empty for unsupervised runs —
    #: there, any failure propagates as an exception instead).
    quarantined: List["QuarantinedCell"] = field(default_factory=list)
    #: Whether the run drained after SIGINT/SIGTERM with cells pending.
    interrupted: bool = False
    #: Completed cells replayed from a ``--resume`` journal.
    resume_hits: int = 0
    #: Failed attempts that were re-queued by the supervisor.
    retries: int = 0

    def __iter__(self) -> Iterator[CellOutcome]:
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def results(self) -> List[SimulationResult]:
        return [o.result for o in self.outcomes]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cache_hit)

    @property
    def cache_misses(self) -> int:
        return sum(1 for o in self.outcomes if not o.cache_hit)

    @property
    def total_wall_time(self) -> float:
        """Sum of per-cell wall times (the serial-equivalent cost)."""
        return sum(o.wall_time for o in self.outcomes)

    def result_for(self, cell: SweepCell) -> SimulationResult:
        for outcome in self.outcomes:
            if outcome.cell == cell:
                return outcome.result
        raise KeyError(f"no outcome for cell {cell.label}")

    def summary(self) -> str:
        """One-line accounting: cells, hits, wall time, parallel time."""
        text = (
            f"{len(self.outcomes)} cells ({self.cache_hits} cache hits, "
            f"{self.cache_misses} simulated), "
            f"{self.total_wall_time:.2f}s cell time in "
            f"{self.elapsed:.2f}s wall ({self.jobs} jobs)"
        )
        if self.resume_hits:
            text += f", {self.resume_hits} resumed"
        if self.retries:
            text += f", {self.retries} retries"
        if self.quarantined:
            text += f", {len(self.quarantined)} quarantined"
        if self.interrupted:
            text += ", INTERRUPTED"
        return text

    def failure_report(self) -> Dict[str, Any]:
        """Structured account of everything that did not go cleanly.

        This is what ``repro sweep`` writes next to the journal when a
        supervised run ends with quarantined cells or an interrupt, so
        operators (and CI) can triage without scraping stdout.
        """
        return {
            "interrupted": self.interrupted,
            "completed": len(self.outcomes),
            "retries": self.retries,
            "resume_hits": self.resume_hits,
            "quarantined": [q.to_json_dict() for q in self.quarantined],
        }

    def metrics(
        self, registry: Optional["MetricsRegistry"] = None
    ) -> "MetricsRegistry":
        """Sweep-level aggregates as a :class:`~repro.obs.metrics.MetricsRegistry`.

        Fills ``cells.total``, ``cache.hits`` / ``cache.misses``, the
        ``cache.hit_rate`` gauge and the ``cell.wall_seconds`` histogram
        (into ``registry`` or a fresh one).
        """
        from ..obs.metrics import MetricsRegistry

        registry = registry if registry is not None else MetricsRegistry()
        registry.counter("cells.total").inc(len(self.outcomes))
        registry.counter("cache.hits").inc(self.cache_hits)
        registry.counter("cache.misses").inc(self.cache_misses)
        registry.gauge("cache.hit_rate").set(
            self.cache_hits / len(self.outcomes) if self.outcomes else 0.0
        )
        hist = registry.histogram("cell.wall_seconds")
        for outcome in self.outcomes:
            hist.observe(outcome.wall_time)
        if self.quarantined or self.retries or self.resume_hits:
            registry.counter("supervisor.report.retries").inc(self.retries)
            registry.counter("supervisor.report.resume_hits").inc(
                self.resume_hits
            )
            registry.counter("supervisor.report.quarantined").inc(
                len(self.quarantined)
            )
        return registry


class _Sweep:
    """The cells of one sweep and where each of them lands.

    Journal replays, cache hits and executed cells, whether in-process
    or on a worker slot, all complete through :meth:`complete`, so the
    cache, the journal and the report see one payload on every path.
    """

    def __init__(
        self,
        cells: List[SweepCell],
        cache: Optional[ResultCache],
        progress: Optional[Callable[[CellOutcome], None]],
        journal: Optional["SweepJournal"] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.cells = cells
        self.cache = cache
        self.progress = progress
        self.journal = journal
        self.tracer = tracer
        self.metrics = metrics
        self.outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
        self.resume_hits = 0

    def count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def emit(self, event: Any) -> None:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(event)

    def complete(
        self,
        index: int,
        payload: Dict[str, Any],
        seconds: float,
        cache_hit: bool = False,
        attempts: int = 1,
        journal_it: bool = True,
    ) -> None:
        cell = self.cells[index]
        if self.cache is not None and not cache_hit:
            self.cache.put(cell, payload)
        if self.journal is not None and journal_it:
            self.journal.record_completed(cell, payload, attempts, seconds)
        outcome = CellOutcome(
            cell=cell,
            result=SimulationResult.from_json_dict(payload),
            wall_time=seconds,
            cache_hit=cache_hit,
        )
        self.outcomes[index] = outcome
        if self.progress is not None:
            self.progress(outcome)

    def serve_stored(
        self,
        resume: Optional["JournalState"],
        rejournal: bool,
        read_cache: bool,
        salt: str,
    ) -> List[int]:
        """Complete what a resumed journal or the cache already holds.

        The journal goes first, so a resumed run does not depend on
        cache configuration.  Returns the indices left to execute.
        """
        pending: List[int] = []
        for index, cell in enumerate(self.cells):
            if resume is not None:
                payload = resume.payload_for(cell, salt)
                if payload is not None:
                    from ..obs.events import CellResumed

                    self.resume_hits += 1
                    self.count("supervisor.resume_hits")
                    self.emit(
                        CellResumed(cycle=0, label=cell.label, source="journal")
                    )
                    self.complete(
                        index,
                        payload,
                        0.0,
                        cache_hit=True,
                        attempts=resume.attempts.get(cell_key(cell, salt), 1),
                        journal_it=rejournal,
                    )
                    continue
            if read_cache and self.cache is not None:
                t0 = time.perf_counter()
                payload = self.cache.get(cell)
                if payload is not None:
                    self.complete(
                        index, payload, time.perf_counter() - t0, cache_hit=True
                    )
                    continue
            pending.append(index)
        return pending

    def done(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o is not None]


def run_sweep(
    spec: Union[SweepSpec, Sequence[SweepCell]],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[CellOutcome], None]] = None,
    tracer_factory: Optional[Callable[[SweepCell], Any]] = None,
    on_trace: Optional[Callable[[SweepCell, Any], None]] = None,
    policy: Optional["SupervisorPolicy"] = None,
    journal_path: Optional[Union[str, Path]] = None,
    resume_from: Optional[Union[str, Path]] = None,
    chaos: Optional["ChaosSpec"] = None,
    tracer: Optional["Tracer"] = None,
    metrics: Optional["MetricsRegistry"] = None,
    fsync: bool = False,
) -> SweepReport:
    """Execute a sweep: every cell of ``spec``, cache-first.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec` or an explicit cell sequence.
    jobs:
        Worker slots (:mod:`repro.exec.supervise`); ``1`` without
        supervision runs serially in-process (no worker is started at
        all, keeping tracebacks and profiles simple).  Unsupervised
        slots give each cell one attempt with no deadline; a failed
        cell raises :class:`~repro.errors.SweepError`.
    cache:
        Optional result cache; hits skip simulation entirely, misses are
        stored after execution.
    progress:
        Callback invoked once per finished cell, in completion order.
    tracer_factory:
        When given, every cell runs *serially in-process* with a fresh
        tracer built by ``tracer_factory(cell)`` attached, and the cache
        is bypassed for reads — traces cannot be served from stored
        results, and tracers cannot cross process boundaries.  Computed
        payloads are still written to the cache.
    on_trace:
        Callback invoked after each traced cell with ``(cell, tracer)``;
        typically exports the recorded events.
    policy / journal_path / resume_from / chaos / tracer / metrics / fsync:
        Supervision (see :func:`repro.exec.supervise.run_supervised`):
        when any of the first four is given, cells get per-cell
        timeouts, retries and quarantine, outcomes are journaled, and
        SIGINT/SIGTERM drain the run.  Mutually exclusive with
        ``tracer_factory``.

    The returned report lists outcomes in *cell enumeration order*
    regardless of completion order, so downstream table/figure code can
    zip them against the spec.
    """
    supervised = (
        policy is not None
        or journal_path is not None
        or resume_from is not None
        or chaos is not None
    )
    if tracer_factory is not None and supervised:
        raise SweepError(
            "tracer_factory (--trace-out) cannot be combined with "
            "supervision: supervised cells run in worker processes, "
            "where in-process tracers cannot follow"
        )
    cells = list(spec.cells() if isinstance(spec, SweepSpec) else spec)
    jobs = max(1, int(jobs))
    started = time.perf_counter()
    salt = cache.salt if cache is not None else CODE_VERSION_SALT
    journal = None
    if journal_path is not None:
        journal = SweepJournal(journal_path, salt=salt, fsync=fsync)
    resume = None
    if resume_from is not None:
        resume = read_journal(resume_from, salt=salt)
    # When appending to the very journal we are resuming from, its
    # completed lines are already there: do not duplicate them.
    rejournal = journal is not None and (
        resume_from is None
        or Path(journal_path or "").resolve() != Path(resume_from).resolve()
    )
    sweep = _Sweep(cells, cache, progress, journal, tracer, metrics)
    pending = sweep.serve_stored(
        resume, rejournal, read_cache=tracer_factory is None, salt=salt
    )

    if tracer_factory is not None or (jobs == 1 and not supervised):
        for index in pending:
            cell = cells[index]
            cell_tracer = (
                tracer_factory(cell) if tracer_factory is not None else None
            )
            payload, seconds = _timed_execute(cell, cell_tracer)
            if on_trace is not None and cell_tracer is not None:
                on_trace(cell, cell_tracer)
            sweep.complete(index, payload, seconds)
        return SweepReport(
            outcomes=sweep.done(),
            elapsed=time.perf_counter() - started,
            jobs=jobs,
        )

    from .supervise import SupervisorPolicy, _Supervisor

    if supervised and policy is None:
        policy = SupervisorPolicy()
    supervisor = _Supervisor(sweep, pending, jobs, policy, chaos, salt)
    try:
        supervisor.run()
    finally:
        if journal is not None:
            if supervisor.interrupts > 0:
                journal.record_interrupted(supervisor.pending)
            journal.close()
    return SweepReport(
        outcomes=sweep.done(),
        elapsed=time.perf_counter() - started,
        jobs=jobs,
        quarantined=supervisor.quarantined,
        interrupted=supervisor.interrupts > 0,
        resume_hits=sweep.resume_hits,
        retries=supervisor.retries,
    )
