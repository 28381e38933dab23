"""The worker slots: long-lived workers, retirement, failure and cleanup.

Every sweep that does not run in-process runs on ``jobs`` worker slots
(:mod:`repro.exec.supervise`).  A slot's worker serves cell after cell
until an attempt fails; then it is retired and the slot respawns at its
next dispatch.  These tests pin that lifecycle: how many workers a
sweep starts, that a cell after a failure runs on a fresh worker and
still equals the serial run, how a timed-out worker dies, that an
unsupervised parallel run fails as a serial run would, and that no
worker outlives the sweep on any return path.
"""

import multiprocessing
import os
import signal

import pytest

from repro.errors import SweepError
from repro.exec import (
    SupervisorPolicy,
    SweepCell,
    SweepSpec,
    WorkloadSpec,
    canonical_json,
    parse_chaos_spec,
    run_supervised,
    run_sweep,
)
from repro.exec import supervise
from repro.obs import RecordingTracer

#: Fast retries for tests: no real backoff sleeping.
FAST = dict(backoff_seconds=0.01, backoff_factor=1.0, jitter=0.0)


def payload_bytes(outcome):
    return canonical_json(outcome.result.to_json_dict()).encode("ascii")


def spec_of(ac_counts):
    return SweepSpec(
        schedulers=("HEF",),
        ac_counts=tuple(ac_counts),
        workload=WorkloadSpec(frames=1, seed=2008),
    )


@pytest.fixture()
def started(monkeypatch):
    """Every process the sweep starts, in start order."""
    processes = []
    original = multiprocessing.Process.start

    def counting_start(self):
        processes.append(self)
        original(self)

    monkeypatch.setattr(multiprocessing.Process, "start", counting_start)
    return processes


@pytest.fixture()
def dispatches(monkeypatch):
    """``(cell label, worker pid)`` for every dispatched attempt."""
    seen = []
    original = supervise._Supervisor._dispatch

    def recording_dispatch(self, slot, item):
        original(self, slot, item)
        seen.append((item.cell.label, slot.process.pid))

    monkeypatch.setattr(
        supervise._Supervisor, "_dispatch", recording_dispatch
    )
    return seen


class TestLongLivedWorkers:
    def test_clean_sweep_starts_one_worker_per_slot(self, started):
        report = run_supervised(
            spec_of(range(1, 21)), jobs=2, policy=SupervisorPolicy(**FAST)
        )
        assert len(report) == 20
        assert len(started) == 2

    def test_unsupervised_parallel_sweep_starts_one_worker_per_slot(
        self, started
    ):
        report = run_sweep(spec_of(range(1, 21)), jobs=2)
        assert len(report) == 20
        assert len(started) == 2

    def test_crash_retires_its_worker_and_the_next_cell_runs_fresh(
        self, started, dispatches
    ):
        spec = spec_of(range(1, 21))
        serial = run_sweep(spec, jobs=1)
        report = run_supervised(
            spec,
            jobs=2,
            policy=SupervisorPolicy(max_attempts=3, **FAST),
            chaos=parse_chaos_spec("HEF@5AC*:crash:1"),
        )
        assert report.quarantined == []
        assert report.retries == 1
        assert len(started) == 3
        crashed_pid = next(
            pid for label, pid in dispatches if label == "HEF@5AC/1f"
        )
        crash_at = dispatches.index(("HEF@5AC/1f", crashed_pid))
        initial = {started[0].pid, started[1].pid}
        assert crashed_pid in initial
        # The next attempt dispatched on a new worker goes to the third
        # process, started after the crash; nothing later reuses the
        # crashed one.
        after = dispatches[crash_at + 1:]
        assert crashed_pid not in {pid for _, pid in after}
        fresh_label = next(
            label for label, pid in after if pid == started[2].pid
        )
        # Every cell, the fresh worker's first one included, equals the
        # serial run field for field.
        for ser, sup in zip(serial, report):
            assert ser.cell == sup.cell
            assert ser.result == sup.result, ser.cell.label
            assert payload_bytes(ser) == payload_bytes(sup)
        assert fresh_label in {o.cell.label for o in report}


class TestTimeout:
    def test_timed_out_worker_dies_by_sigterm(self, started):
        report = run_supervised(
            spec_of((2,)),
            policy=SupervisorPolicy(timeout=0.5, max_attempts=1, **FAST),
            chaos=parse_chaos_spec("*:hang"),
        )
        assert report.quarantined[0].failure == "timeout"
        (worker,) = started
        # SIGTERM, not the SIGKILL fallback a second later.
        assert worker.exitcode == -signal.SIGTERM


class TestFailureAndCleanup:
    def test_unsupervised_parallel_poison_raises_sweep_error(self):
        poisoned = SweepCell(
            system="RISPP",
            scheduler="NOPE",
            num_acs=2,
            workload=WorkloadSpec(frames=1, seed=2008),
        )
        cells = list(spec_of((2, 3)).cells()) + [poisoned]
        with pytest.raises(SweepError) as info:
            run_sweep(cells, jobs=2)
        assert poisoned.label in str(info.value)
        assert "KeyError" in str(info.value)
        assert multiprocessing.active_children() == []

    def test_tracer_factory_with_policy_is_rejected(self):
        with pytest.raises(SweepError, match="tracer_factory"):
            run_sweep(
                spec_of((2,)),
                tracer_factory=lambda cell: RecordingTracer(),
                policy=SupervisorPolicy(),
            )

    def test_clean_run_leaves_no_worker(self):
        run_sweep(spec_of((2, 3, 4)), jobs=2)
        assert multiprocessing.active_children() == []

    def test_quarantined_run_leaves_no_worker(self):
        report = run_supervised(
            spec_of((2, 3)),
            jobs=2,
            policy=SupervisorPolicy(max_attempts=1, **FAST),
            chaos=parse_chaos_spec("HEF@2AC*:raise"),
        )
        assert len(report.quarantined) == 1
        assert multiprocessing.active_children() == []

    def test_timed_out_run_leaves_no_worker(self):
        report = run_supervised(
            spec_of((2, 3)),
            jobs=2,
            policy=SupervisorPolicy(timeout=0.5, max_attempts=1, **FAST),
            chaos=parse_chaos_spec("HEF@2AC*:hang"),
        )
        assert report.quarantined[0].failure == "timeout"
        assert multiprocessing.active_children() == []

    def test_drained_interrupt_leaves_no_worker(self):
        fired = []

        def interrupt_once(outcome):
            if not fired:
                fired.append(outcome.label)
                os.kill(os.getpid(), signal.SIGINT)

        report = run_supervised(
            spec_of(range(2, 8)),
            jobs=2,
            policy=SupervisorPolicy(**FAST),
            progress=interrupt_once,
        )
        assert report.interrupted
        assert len(report) < 6
        assert multiprocessing.active_children() == []
