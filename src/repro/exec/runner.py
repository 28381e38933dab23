"""Parallel, cache-backed execution of sweep cells.

The runner fans :class:`~repro.exec.spec.SweepCell` work out over a
``concurrent.futures`` process pool (``jobs`` workers, chunked
dispatch), measures per-cell wall time, and consults an optional
:class:`~repro.exec.cache.ResultCache` so completed cells are never
re-simulated.

Determinism contract: a cell is a *pure function* of its configuration.
Every worker builds its own workload from the cell alone (no state
crosses process boundaries besides the cell itself), over the process's
frozen :func:`~repro.h264.silibrary.h264_platform`, and all models are
seed-driven.  The simulator comes from a small per-process pool keyed
by the cell's simulator fields (:func:`_simulator_key`); a pooled
simulator starts every run with :meth:`~repro.sim.engine.SystemSimulator.reset`,
after which it is observationally a fresh one, so which cells ran
before in the same process cannot show in a result.  A parallel run is
therefore bit-identical to a serial run, and both are bit-identical to
a cache replay.  ``tests/test_exec_determinism.py`` and
``tests/test_sim_pool.py`` pin this down.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
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
from ..fabric.faults import BernoulliLoadFaults, RetryPolicy
from ..h264.silibrary import h264_platform
from ..sim.engine import SystemSimulator
from ..sim.molen import MolenSimulator
from ..sim.results import SimulationResult
from ..sim.rispp import RisppSimulator
from ..sim.software import simulate_software
from .cache import ResultCache
from .spec import SweepCell, SweepSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry
    from ..obs.tracer import Tracer
    from .chaos import ChaosSpec
    from .journal import QuarantinedCell
    from .supervise import SupervisorPolicy

__all__ = [
    "CellOutcome",
    "SweepReport",
    "execute_cell",
    "timed_execute",
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
    """Run one cell's simulation (no cache, no process pool).

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


def _timed_execute(cell: SweepCell) -> Tuple[Dict[str, Any], float]:
    """Worker entry point: run a cell, return (payload, seconds).

    Results travel as plain-JSON dictionaries rather than pickled
    objects, so exactly what a worker computed is exactly what the cache
    stores and what a serial run serializes — one representation for all
    three paths.
    """
    start = time.perf_counter()
    result = execute_cell(cell)
    payload = result.to_json_dict()
    return payload, time.perf_counter() - start


#: Public alias: the supervisor's worker processes run cells through the
#: exact same entry point as the plain pool, so supervised and bare runs
#: cannot drift apart.
timed_execute = _timed_execute


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


def _chunksize(num_tasks: int, jobs: int) -> int:
    """Chunk tasks so each worker sees a few batches (amortises IPC
    without serialising the tail behind one slow worker)."""
    return max(1, num_tasks // (jobs * 4))


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
    """Execute a sweep: every cell of ``spec``, cache-first, in parallel.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec` or an explicit cell sequence.
    jobs:
        Worker processes; ``1`` runs serially in-process (no pool is
        spawned at all, keeping tracebacks and profiles simple).
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
    policy / journal_path / resume_from / chaos / tracer / metrics:
        Supervision parameters; when any of them is given the sweep is
        delegated to :func:`repro.exec.supervise.run_supervised`, which
        adds per-cell timeouts, retries, quarantine, journaling and
        graceful shutdown on top of the same determinism contract.
        Mutually exclusive with ``tracer_factory`` (supervised cells run
        in worker processes, where tracers cannot follow).

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
    if supervised:
        from ..errors import SweepError
        from .supervise import run_supervised

        if tracer_factory is not None:
            raise SweepError(
                "tracer_factory cannot be combined with supervision: "
                "supervised cells run in worker processes, where "
                "in-process tracers cannot follow"
            )
        return run_supervised(
            spec,
            jobs=jobs,
            cache=cache,
            policy=policy,
            journal_path=journal_path,
            resume_from=resume_from,
            chaos=chaos,
            progress=progress,
            tracer=tracer,
            metrics=metrics,
            fsync=fsync,
        )
    cells = list(spec.cells() if isinstance(spec, SweepSpec) else spec)
    jobs = max(1, int(jobs))
    started = time.perf_counter()
    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    traced = tracer_factory is not None

    pending: List[Tuple[int, SweepCell]] = []
    for index, cell in enumerate(cells):
        if cache is not None and not traced:
            t0 = time.perf_counter()
            payload = cache.get(cell)
            if payload is not None:
                outcome = CellOutcome(
                    cell=cell,
                    result=SimulationResult.from_json_dict(payload),
                    wall_time=time.perf_counter() - t0,
                    cache_hit=True,
                )
                outcomes[index] = outcome
                if progress is not None:
                    progress(outcome)
                continue
        pending.append((index, cell))

    def finish(index: int, cell: SweepCell, payload: Dict[str, Any],
               seconds: float) -> None:
        if cache is not None:
            cache.put(cell, payload)
        outcome = CellOutcome(
            cell=cell,
            result=SimulationResult.from_json_dict(payload),
            wall_time=seconds,
            cache_hit=False,
        )
        outcomes[index] = outcome
        if progress is not None:
            progress(outcome)

    if traced:
        for index, cell in pending:
            tracer = tracer_factory(cell)
            t0 = time.perf_counter()
            result = execute_cell(cell, tracer=tracer)
            seconds = time.perf_counter() - t0
            if on_trace is not None:
                on_trace(cell, tracer)
            finish(index, cell, result.to_json_dict(), seconds)
    elif pending and jobs > 1 and len(pending) > 1:
        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            mapped = pool.map(
                _timed_execute,
                [cell for _, cell in pending],
                chunksize=_chunksize(len(pending), workers),
            )
            for (index, cell), (payload, seconds) in zip(pending, mapped):
                finish(index, cell, payload, seconds)
    else:
        for index, cell in pending:
            payload, seconds = _timed_execute(cell)
            finish(index, cell, payload, seconds)

    done = [o for o in outcomes if o is not None]
    assert len(done) == len(cells)
    return SweepReport(
        outcomes=done,
        elapsed=time.perf_counter() - started,
        jobs=jobs,
    )
