"""Worker slots and fault-tolerant supervision of sweep execution.

Every sweep that does not run in-process runs here, on ``jobs`` worker
slots.  Each slot holds one long-lived worker process with one duplex
pipe: the worker keeps its process-wide memos (platform, tables,
selections, plans, simulators) warm across the cells it serves, and
any failed attempt retires it, so nothing a failure left behind can
reach another cell.  :func:`run_supervised` adds four guarantees on top:

1. **Per-cell wall-clock timeouts.**  A cell that exceeds its deadline
   is killed (``terminate`` then ``kill``) and its slot respawned at
   the next dispatch: a worker stuck in C code never honours a softer
   cancellation.
2. **Retries with seeded backoff.**  Transient failures re-enter the
   queue after an exponential-backoff delay with seeded jitter, computed
   through :func:`repro.fabric.faults.backoff_delay` — the same helper
   the fabric's :class:`~repro.fabric.faults.RetryPolicy` uses for
   bitstream rewrites, so one tested formula serves both layers.
3. **Quarantine, not abort.**  A cell that exhausts its attempt budget
   is recorded as a :class:`QuarantinedCell` with a failure taxonomy tag
   (``timeout`` / ``crash`` / ``poison``) and the rest of the grid keeps
   going.
4. **Journal + graceful shutdown.**  Every outcome is appended to a
   JSONL journal (:mod:`repro.exec.journal`); SIGINT/SIGTERM stop
   dispatch, drain in-flight cells, and leave a journal from which
   ``repro sweep --resume`` replays completed cells bit-identically.

Without supervision (``jobs > 1`` and none of the supervision
parameters), the slots give each cell one attempt and no deadline, and
a failed cell raises :class:`~repro.errors.SweepError`.

The determinism contract is untouched: cells are pure functions of their
configuration, so replayed, retried, resumed and fresh results are all
byte-identical (``tests/test_exec_resume.py`` pins this down).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import os
import random
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from types import FrameType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

from ..errors import SweepError
from ..fabric.faults import backoff_delay
from .cache import ResultCache, cell_key
from .chaos import ChaosSpec
from .journal import QuarantinedCell
from .spec import SweepCell, SweepSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry
    from ..obs.tracer import Tracer
    from .runner import CellOutcome, SweepReport, _Sweep

__all__ = [
    "CellFailure",
    "CellTimeout",
    "WorkerCrash",
    "PoisonedCell",
    "SupervisorPolicy",
    "policy_from_env",
    "run_supervised",
]


def _wall_clock() -> float:
    """The supervisor's only direct wall-clock read (RL007 seam).

    Deadlines and retry backoff are wall-clock by nature — a hung worker
    hangs in real time — but every *site* that needs the time goes
    through this one function, so the deterministic-journal guarantees
    stay auditable: nothing else in this module may call
    ``time.monotonic()`` (enforced by lint rule RL007).
    """
    return time.monotonic()


# -- failure taxonomy ----------------------------------------------------------


@dataclass(frozen=True)
class CellFailure:
    """One failed attempt at one cell, classified."""

    #: Class-level taxonomy tag; concrete subclasses override it.
    kind = ""

    message: str


@dataclass(frozen=True)
class CellTimeout(CellFailure):
    """The cell exceeded its wall-clock deadline and the worker was
    killed.  The canonical hang: an infinite loop, a deadlock, a stuck
    syscall — nothing a future's ``cancel()`` could have reached."""

    kind = "timeout"


@dataclass(frozen=True)
class WorkerCrash(CellFailure):
    """The worker process died without delivering a result (segfault,
    ``os._exit``, OOM kill): the result pipe hit EOF with no message."""

    kind = "crash"


@dataclass(frozen=True)
class PoisonedCell(CellFailure):
    """The cell's own code raised: a deterministic Python exception
    travelled back over the result pipe.  Retrying usually cannot help
    (the cell is a pure function of its config), but the attempt budget
    still applies — chaos-injected exceptions may be bounded."""

    kind = "poison"


# -- policy --------------------------------------------------------------------


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs of the supervision layer.

    Parameters
    ----------
    timeout:
        Per-cell wall-clock budget in seconds; ``None`` disables the
        deadline (hangs then only die at operator interrupt).
    max_attempts:
        Total tries per cell (first run included); >= 1.
    backoff_seconds / backoff_factor / jitter / retry_seed:
        The retry delay schedule, evaluated through
        :func:`repro.fabric.faults.backoff_delay` with a private RNG
        seeded by ``retry_seed`` — two supervised runs of the same grid
        replay the identical jitter sequence.
    """

    timeout: Optional[float] = None
    max_attempts: int = 3
    backoff_seconds: float = 0.1
    backoff_factor: float = 2.0
    jitter: float = 0.1
    retry_seed: int = 0

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise SweepError(
                f"timeout must be positive (or None), got {self.timeout!r}"
            )
        if self.max_attempts < 1:
            raise SweepError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.backoff_seconds < 0:
            raise SweepError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds!r}"
            )
        if self.backoff_factor < 1.0:
            raise SweepError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise SweepError(
                f"jitter must be within [0, 1], got {self.jitter!r}"
            )

    def retry_delay(self, failures: int, rng: random.Random) -> float:
        """Seconds to wait before the retry after failure ``failures``."""
        return backoff_delay(
            self.backoff_seconds,
            self.backoff_factor,
            failures,
            jitter=self.jitter,
            rng=rng,
        )


def policy_from_env() -> Optional[SupervisorPolicy]:
    """A :class:`SupervisorPolicy` from ``REPRO_TIMEOUT`` (seconds) and
    ``REPRO_MAX_ATTEMPTS``, or ``None`` when neither is set.

    This is how the figure/table entry points in
    :mod:`repro.analysis.experiments` (and the benchmarks driving them)
    opt into supervision without new function plumbing at every call
    site.
    """
    timeout_text = os.environ.get("REPRO_TIMEOUT", "").strip()
    attempts_text = os.environ.get("REPRO_MAX_ATTEMPTS", "").strip()
    if not timeout_text and not attempts_text:
        return None
    timeout: Optional[float] = None
    if timeout_text:
        try:
            timeout = float(timeout_text)
        except ValueError as exc:
            raise SweepError(
                f"REPRO_TIMEOUT must be a number of seconds, "
                f"got {timeout_text!r}"
            ) from exc
    max_attempts = 3
    if attempts_text:
        try:
            max_attempts = int(attempts_text)
        except ValueError as exc:
            raise SweepError(
                f"REPRO_MAX_ATTEMPTS must be an integer, "
                f"got {attempts_text!r}"
            ) from exc
    return SupervisorPolicy(timeout=timeout, max_attempts=max_attempts)


# -- worker side ---------------------------------------------------------------


def _worker_main(
    conn: multiprocessing.connection.Connection,
    chaos: Optional[ChaosSpec],
) -> None:
    """Entry point of one long-lived worker process.

    Serves ``(cell, attempt)`` tasks until it receives ``None``, and
    answers each with exactly one message: ``("ok", payload, seconds)``
    or ``("error", exception_type_name, message)``.  A hang sends
    nothing (the supervisor's deadline fires); a crash closes the pipe
    without a message (the supervisor reads EOF).
    """
    from .runner import _timed_execute

    # The supervisor owns interrupt handling: workers must not race it
    # to the console on a Ctrl-C aimed at the parent.  SIGTERM gets its
    # default back, because a fork copies the supervisor's drain
    # handler, and a timed-out worker must die at ``terminate()``.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = os.getppid()
    while True:
        # Workers forked later hold copies of this pipe's supervisor
        # end, so EOF alone may never come if the supervisor is killed:
        # an idle worker also watches for being orphaned.
        if not conn.poll(1.0):
            if os.getppid() != parent:
                break
            continue
        try:
            task = conn.recv()
        except EOFError:
            break
        if task is None:
            break
        cell, attempt = task
        try:
            if chaos is not None:
                chaos.apply(cell, attempt)
            reply = ("ok", *_timed_execute(cell))
        except BaseException as exc:
            reply = ("error", type(exc).__name__, str(exc))
        conn.send(reply)
    conn.close()


# -- supervisor ----------------------------------------------------------------


@dataclass
class _QueueItem:
    """One cell waiting to run (or re-run after backoff)."""

    index: int
    cell: SweepCell
    attempt: int = 1
    not_before: float = 0.0


@dataclass
class _Slot:
    """One worker slot: its process (none until the first dispatch or
    after a retirement) and the attempt it is running, if any."""

    process: Optional[multiprocessing.Process] = None
    conn: Optional[multiprocessing.connection.Connection] = None
    item: Optional[_QueueItem] = None
    deadline: Optional[float] = None


class _Supervisor:
    """The worker slots behind every sweep that does not run in-process.

    ``policy=None`` is an unsupervised run: one attempt per cell, no
    deadline, no signal handling, and a failed cell raises
    :class:`SweepError` as it would in a serial run.
    """

    def __init__(
        self,
        sweep: "_Sweep",
        pending: Sequence[int],
        jobs: int,
        policy: Optional[SupervisorPolicy],
        chaos: Optional[ChaosSpec],
        salt: str,
    ) -> None:
        self.sweep = sweep
        self.strict = policy is None
        self.policy = policy if policy is not None else SupervisorPolicy(
            max_attempts=1
        )
        self.chaos = chaos
        self.salt = salt
        self.rng = random.Random(self.policy.retry_seed)
        self.queue = [_QueueItem(index, sweep.cells[index]) for index in pending]
        self.slots = [_Slot() for _ in range(max(1, int(jobs)))]
        self.quarantined: List[QuarantinedCell] = []
        self.retries = 0
        self.interrupts = 0

    def _fail(self, item: _QueueItem, failure: CellFailure) -> None:
        """One attempt failed: schedule a retry or quarantine the cell."""
        from ..obs.events import CellQuarantined, CellRetry

        if self.strict:
            raise SweepError(
                f"cell {item.cell.label!r} failed in its worker "
                f"({failure.kind}): {failure.message}"
            )
        sweep = self.sweep
        sweep.count(f"supervisor.failures.{failure.kind}")
        if item.attempt < self.policy.max_attempts and self.interrupts == 0:
            delay = self.policy.retry_delay(item.attempt, self.rng)
            self.retries += 1
            sweep.count("supervisor.retries")
            sweep.emit(
                CellRetry(
                    cycle=0,
                    label=item.cell.label,
                    attempt=item.attempt,
                    failure=failure.kind,
                    backoff_ms=int(delay * 1000),
                )
            )
            if sweep.journal is not None:
                sweep.journal.record_retry(
                    item.cell,
                    item.attempt,
                    failure.kind,
                    failure.message,
                    delay,
                )
            self.queue.append(
                _QueueItem(
                    index=item.index,
                    cell=item.cell,
                    attempt=item.attempt + 1,
                    not_before=_wall_clock() + delay,
                )
            )
            return
        quarantined = QuarantinedCell(
            cell=item.cell,
            key=cell_key(item.cell, self.salt),
            failure=failure.kind,
            message=failure.message,
            attempts=item.attempt,
        )
        self.quarantined.append(quarantined)
        sweep.count("supervisor.quarantined")
        sweep.emit(
            CellQuarantined(
                cycle=0,
                label=item.cell.label,
                attempts=item.attempt,
                failure=failure.kind,
            )
        )
        if sweep.journal is not None:
            sweep.journal.record_quarantined(quarantined)

    # -- process management ------------------------------------------------

    def _dispatch(self, slot: _Slot, item: _QueueItem) -> None:
        if slot.process is None:
            parent_conn, child_conn = multiprocessing.Pipe()
            slot.process = multiprocessing.Process(
                target=_worker_main, args=(child_conn, self.chaos), daemon=True
            )
            slot.process.start()
            child_conn.close()
            slot.conn = parent_conn
        assert slot.conn is not None
        # A worker that died while idle cannot take the task; the wait
        # then reads EOF, which is a crash of this attempt.
        with contextlib.suppress(OSError):
            slot.conn.send((item.cell, item.attempt))
        slot.item = item
        timeout = self.policy.timeout
        slot.deadline = _wall_clock() + timeout if timeout is not None else None

    def _retire(self, slot: _Slot) -> None:
        """Stop the slot's worker; the slot respawns at its next dispatch.

        An idle worker gets the stop sentinel; one still running a cell
        (timeout, hard interrupt, abort) is terminated, then killed.
        """
        process, conn = slot.process, slot.conn
        if process is None or conn is None:
            return
        if slot.item is None:
            with contextlib.suppress(OSError):  # already dead: a crash
                conn.send(None)
            process.join(timeout=1.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        conn.close()
        slot.process = slot.conn = slot.item = None

    def _reap(self, slot: _Slot) -> None:
        """Collect the result (or classify the failure) of one attempt."""
        item, process, conn = slot.item, slot.process, slot.conn
        assert item is not None and process is not None and conn is not None
        try:
            message = conn.recv()
        except (EOFError, OSError):
            message = None
        slot.item = None
        if message is not None and message[0] == "ok":
            _, payload, seconds = message
            self.sweep.complete(
                item.index, payload, seconds, attempts=item.attempt
            )
            return
        # Any failed attempt retires its worker, so nothing a failure
        # left behind can reach another cell.
        self._retire(slot)
        failure: CellFailure
        if message is None:
            failure = WorkerCrash(
                message=(
                    f"worker for cell {item.cell.label!r} died without a "
                    f"result (exit code {process.exitcode})"
                )
            )
        else:
            _, exc_type, exc_message = message
            failure = PoisonedCell(message=f"{exc_type}: {exc_message}")
        self._fail(item, failure)

    def _expire(self, slot: _Slot) -> None:
        """A worker blew its deadline: kill it and classify as timeout."""
        item = slot.item
        assert item is not None
        self._retire(slot)
        self._fail(
            item,
            CellTimeout(
                message=(
                    f"cell {item.cell.label!r} exceeded its "
                    f"{self.policy.timeout:g}s wall-clock budget"
                )
            ),
        )

    # -- main loop ---------------------------------------------------------

    def run(self) -> None:
        previous = {} if self.strict else _install_signal_handlers(self)
        try:
            self._loop()
        finally:
            _restore_signal_handlers(previous)
            for slot in self.slots:
                self._retire(slot)

    def _loop(self) -> None:
        while True:
            busy = [s for s in self.slots if s.item is not None]
            if not (self.queue or busy):
                break
            now = _wall_clock()
            if self.interrupts >= 2:
                # Second signal: the operator wants out *now*.  Kill the
                # in-flight workers; their cells stay pending in the
                # journal and re-run on --resume.
                self.queue.clear()
                break
            if self.interrupts == 0:
                ready = sorted(
                    (q for q in self.queue if q.not_before <= now),
                    key=lambda q: (q.not_before, q.index),
                )
                for slot in self.slots:
                    if slot.item is None and ready:
                        item = ready.pop(0)
                        self.queue.remove(item)
                        self._dispatch(slot, item)
                busy = [s for s in self.slots if s.item is not None]
            elif not busy:
                # Interrupted and nothing left to drain.
                break
            wait_timeout = self._next_wait(now, busy)
            if busy:
                readable = multiprocessing.connection.wait(
                    [s.conn for s in busy if s.conn is not None],
                    timeout=wait_timeout,
                )
                for slot in busy:
                    if slot.conn in readable:
                        self._reap(slot)
                now = _wall_clock()
                for slot in busy:
                    expired = slot.deadline is not None and slot.deadline <= now
                    if slot.item is not None and expired:
                        self._expire(slot)
            elif wait_timeout is not None and wait_timeout > 0:
                time.sleep(wait_timeout)

    def _next_wait(self, now: float, busy: List[_Slot]) -> Optional[float]:
        """Seconds until the next deadline or retry becomes actionable."""
        horizons = [s.deadline for s in busy if s.deadline is not None]
        if self.interrupts == 0 and len(busy) < len(self.slots):
            horizons.extend(item.not_before for item in self.queue)
        if not horizons:
            return None
        return max(0.0, min(horizons) - now) + 0.001

    @property
    def pending(self) -> int:
        """Cells neither completed nor quarantined (interrupt leftovers)."""
        done = len(self.sweep.done())
        return len(self.sweep.cells) - done - len(self.quarantined)


def run_supervised(
    spec: Union[SweepSpec, Sequence[SweepCell]],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    policy: Optional[SupervisorPolicy] = None,
    journal_path: Optional[Union[str, Path]] = None,
    resume_from: Optional[Union[str, Path]] = None,
    chaos: Optional[ChaosSpec] = None,
    progress: Optional[Callable[["CellOutcome"], None]] = None,
    tracer: Optional["Tracer"] = None,
    metrics: Optional["MetricsRegistry"] = None,
    fsync: bool = False,
) -> "SweepReport":
    """Execute a sweep under full supervision.

    Semantics match :func:`repro.exec.runner.run_sweep` (cache-first,
    outcomes in cell enumeration order, bit-identical results), plus the
    resilience features described in the module docstring.  Completed
    cells land in ``outcomes``; cells that exhausted their attempt
    budget land in ``report.quarantined``; on a drained interrupt
    ``report.interrupted`` is ``True`` and unfinished cells are simply
    absent (the journal knows they are pending).

    Parameters beyond ``run_sweep``'s
    ------------------------------------
    policy:
        Timeouts/retries/backoff; defaults to :class:`SupervisorPolicy`.
    journal_path:
        Where to append the outcome journal; ``None`` disables
        journaling (resume then relies on the cache alone).
    resume_from:
        A journal from a previous (killed or interrupted) run; its
        completed payloads are replayed bit-identically and only
        pending/quarantined cells re-run.
    chaos:
        Fault injection acted out inside the workers (tests/CI only).
    tracer / metrics:
        Supervisor-level observability: retry, quarantine and resume
        events plus ``supervisor.*`` counters.
    fsync:
        Force every journal *commit* line (completed / quarantined /
        interrupted) to stable storage before continuing.
    """
    from .runner import run_sweep

    return run_sweep(
        spec,
        jobs=jobs,
        cache=cache,
        progress=progress,
        policy=policy if policy is not None else SupervisorPolicy(),
        journal_path=journal_path,
        resume_from=resume_from,
        chaos=chaos,
        tracer=tracer,
        metrics=metrics,
        fsync=fsync,
    )


_HandlerMap = Dict[int, Any]


def _install_signal_handlers(supervisor: _Supervisor) -> _HandlerMap:
    """Route SIGINT/SIGTERM to graceful drain (main thread only)."""
    import threading

    previous: _HandlerMap = {}
    if threading.current_thread() is not threading.main_thread():
        return previous

    def _handler(signum: int, frame: Optional[FrameType]) -> None:
        supervisor.interrupts += 1

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            continue
    return previous


def _restore_signal_handlers(previous: _HandlerMap) -> None:
    for signum, handler in previous.items():
        signal.signal(signum, handler)
