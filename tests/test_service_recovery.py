"""Crash-safe service: snapshot/journal recovery + live reconfiguration.

The hard gate of ISSUE 10: a service run killed at *any* tick and
recovered with ``recover_service`` must produce bit-identical journal
bytes, service digests and per-tenant reports versus the uninterrupted
run — from the newest valid snapshot when one survives, from full
journal replay when none does.  Around that gate: torn-snapshot and
torn-journal edges, divergence detection, the live-reconfiguration
control plane (tenant join / graceful drain / AC add / AC retire) with
the never-drop invariant across every transition, breaker half-open
pins, and the shared durable-file primitives in :mod:`repro._atomic`.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro._atomic import atomic_write_text, trim_torn_tail
from repro.errors import (
    RecoveryError,
    ServiceCrash,
    ServiceError,
)
from repro.exec.cache import ResultCache
from repro.exec.journal import SweepJournal
from repro.exec.spec import SweepCell, WorkloadSpec
from repro.obs import RecordingTracer
from repro.obs.events import (
    AcRetired,
    ServiceRecovered,
    SnapshotWritten,
    TenantDrained,
    TenantJoined,
)
from repro.service import (
    CONTROL_ACTIONS,
    SHED_REASONS,
    CircuitBreaker,
    ControlEvent,
    ServiceConfig,
    config_fingerprint,
    derive_join_tenant,
    list_snapshots,
    load_latest_snapshot,
    make_tenant_fleet,
    parse_reconfig_spec,
    recover_service,
    run_service,
    snapshot_dir,
    validate_control_events,
    write_snapshot,
)
from repro.service.state import LeaseLedger

REPO_ROOT = Path(__file__).resolve().parents[1]

FLEET_SIZE = 4
SOAK = dict(
    num_acs=6,
    duration=2400,
    seed=2008,
    fault_ticks=(700, 720, 740),
)


def fleet():
    return make_tenant_fleet(FLEET_SIZE, mean_gap=60, deadline_slack=400)


def soak_config(**overrides):
    return ServiceConfig(**{**SOAK, **overrides})


def control_schedule():
    """Join, drain, grow, shrink — exercised together in one run."""
    return [
        ControlEvent(
            tick=400,
            action="tenant_join",
            name="latecomer",
            spec=derive_join_tenant("latecomer", SOAK["seed"]),
        ),
        ControlEvent(tick=900, action="tenant_leave", name="tenant00"),
        ControlEvent(tick=1100, action="ac_add", count=2),
        ControlEvent(tick=1500, action="ac_remove", count=3),
    ]


def crash_run(journal, config, control_events=(), crash_at=None, cache=None):
    """One run that dies via ``crash_mode='raise'`` at ``crash_at``."""
    with pytest.raises(ServiceCrash):
        run_service(
            fleet(),
            config,
            cache=cache,
            journal_path=journal,
            control_events=control_events,
            crash_at_tick=crash_at,
            crash_mode="raise",
        )


def assert_identical(report, ref_report, journal, ref_journal):
    assert report.service_digest() == ref_report.service_digest()
    assert journal.read_bytes() == ref_journal.read_bytes()
    assert report.to_json_dict() == ref_report.to_json_dict()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The uninterrupted soak every recovery must reproduce."""
    root = tmp_path_factory.mktemp("reference")
    journal = root / "ref.jsonl"
    report = run_service(fleet(), soak_config(), journal_path=journal)
    return report, journal


@pytest.fixture(scope="module")
def reconfig_reference(tmp_path_factory):
    """The uninterrupted soak under the full control schedule."""
    root = tmp_path_factory.mktemp("reconfig_reference")
    journal = root / "ref.jsonl"
    report = run_service(
        fleet(),
        soak_config(),
        journal_path=journal,
        control_events=control_schedule(),
    )
    return report, journal


# -- atomic-file primitives ------------------------------------------------


class TestAtomicPrimitives:
    def test_atomic_write_replaces_whole_file(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_text("old")
        atomic_write_text(target, "new contents")
        assert target.read_text() == "new contents"
        # No tempfile debris left behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    def test_atomic_write_fsync_flag(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_text(target, "durable", fsync=True)
        assert target.read_text() == "durable"

    def test_trim_complete_file_is_noop(self, tmp_path):
        target = tmp_path / "journal.jsonl"
        target.write_text("line1\nline2\n")
        assert trim_torn_tail(target) == 0
        assert target.read_text() == "line1\nline2\n"

    def test_trim_torn_tail_drops_partial_line(self, tmp_path):
        target = tmp_path / "journal.jsonl"
        target.write_text("line1\nline2\nhalf-wri")
        assert trim_torn_tail(target) == len("half-wri")
        assert target.read_text() == "line1\nline2\n"

    def test_trim_missing_and_empty(self, tmp_path):
        assert trim_torn_tail(tmp_path / "nope.jsonl") == 0
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert trim_torn_tail(empty) == 0


class TestSweepJournalDurability:
    def cell(self):
        return SweepCell(
            system="Software", num_acs=0, workload=WorkloadSpec(frames=1)
        )

    def test_fsync_journal_round_trips(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path, fsync=True)
        journal.record_completed(
            self.cell(), {"total_cycles": 1}, attempts=1, wall_time=0.1
        )
        journal.close()
        kinds = [
            json.loads(line)["kind"]
            for line in path.read_text().splitlines()
        ]
        assert kinds == ["header", "cell"]

    def test_torn_sweep_journal_tail_is_trimmed_on_reopen(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.record_completed(
            self.cell(), {"total_cycles": 1}, attempts=1, wall_time=0.1
        )
        journal.close()
        with path.open("a") as handle:
            handle.write('{"kind": "completed", "torn')
        journal = SweepJournal(path)  # reopen appends after trimming
        journal.record_interrupted(pending=1)
        journal.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == [
            "header",
            "cell",
            "interrupted",
        ]


# -- the crash-recovery hard gate ------------------------------------------


class TestCrashRecoveryGate:
    @pytest.mark.parametrize(
        "crash_at", [1, 150, 600, 710, 1200, 1900, 2350]
    )
    def test_kill_at_any_tick_recovers_bit_identical(
        self, tmp_path, reference, crash_at
    ):
        ref_report, ref_journal = reference
        journal = tmp_path / "crash.jsonl"
        config = soak_config(snapshot_every=250)
        crash_run(journal, config, crash_at=crash_at)
        report = recover_service(fleet(), config, journal_path=journal)
        assert_identical(report, ref_report, journal, ref_journal)

    def test_no_snapshots_full_replay(self, tmp_path, reference):
        ref_report, ref_journal = reference
        journal = tmp_path / "crash.jsonl"
        crash_run(journal, soak_config(), crash_at=1200)
        assert list_snapshots(journal) == []
        report = recover_service(
            fleet(), soak_config(), journal_path=journal
        )
        assert_identical(report, ref_report, journal, ref_journal)

    def test_snapshot_cadence_does_not_change_journal_bytes(
        self, tmp_path, reference
    ):
        _, ref_journal = reference
        journal = tmp_path / "snapped.jsonl"
        run_service(
            fleet(),
            soak_config(snapshot_every=200),
            journal_path=journal,
        )
        assert journal.read_bytes() == ref_journal.read_bytes()

    def test_snapshots_pruned_to_newest_three(self, tmp_path):
        journal = tmp_path / "soak.jsonl"
        run_service(
            fleet(),
            soak_config(snapshot_every=150),
            journal_path=journal,
        )
        assert 0 < len(list_snapshots(journal)) <= 3

    def test_recovered_run_emits_observability_events(
        self, tmp_path, reference
    ):
        ref_report, ref_journal = reference
        journal = tmp_path / "crash.jsonl"
        config = soak_config(snapshot_every=250)
        crash_run(journal, config, crash_at=1200)
        tracer = RecordingTracer()
        report = recover_service(
            fleet(), config, journal_path=journal, tracer=tracer
        )
        recovered = [
            e for e in tracer if isinstance(e, ServiceRecovered)
        ]
        assert len(recovered) == 1
        assert recovered[0].source == "snapshot"
        assert 0 < recovered[0].resume_tick < 1200
        assert_identical(report, ref_report, journal, ref_journal)

    def test_recovered_run_keeps_snapshotting(self, tmp_path, reference):
        ref_report, ref_journal = reference
        journal = tmp_path / "crash.jsonl"
        config = soak_config(snapshot_every=250)
        crash_run(journal, config, crash_at=600)
        recover_service(fleet(), config, journal_path=journal)
        ticks = [
            json.loads(snap.read_text())["tick"]
            for snap in list_snapshots(journal)
        ]
        assert max(ticks) > 600
        # Recovering the finished journal again resumes from the
        # snapshots the recovered run wrote past the crash.
        tracer = RecordingTracer()
        report = recover_service(
            fleet(), config, journal_path=journal, tracer=tracer
        )
        (recovered,) = [
            e for e in tracer if isinstance(e, ServiceRecovered)
        ]
        assert recovered.source == "snapshot"
        assert recovered.resume_tick > 600
        assert_identical(report, ref_report, journal, ref_journal)

    def test_snapshot_events_emitted_while_running(self, tmp_path):
        journal = tmp_path / "soak.jsonl"
        tracer = RecordingTracer()
        run_service(
            fleet(),
            soak_config(snapshot_every=300),
            journal_path=journal,
            tracer=tracer,
        )
        written = [e for e in tracer if isinstance(e, SnapshotWritten)]
        assert written
        assert all(e.journal_offset > 0 for e in written)

    def test_recovery_under_open_breaker(self, tmp_path, reference):
        # Tick 750 is inside the fault storm's cooldown: the breaker is
        # open in the restored state and must reopen identically.
        ref_report, ref_journal = reference
        journal = tmp_path / "crash.jsonl"
        config = soak_config(snapshot_every=120)
        crash_run(journal, config, crash_at=750)
        report = recover_service(fleet(), config, journal_path=journal)
        assert_identical(report, ref_report, journal, ref_journal)

    def test_crash_before_any_event_recovers(self, tmp_path, reference):
        ref_report, ref_journal = reference
        journal = tmp_path / "crash.jsonl"
        crash_run(journal, soak_config(), crash_at=0)
        # Only the header survived; recovery replays the whole run.
        assert len(journal.read_text().splitlines()) == 1
        report = recover_service(
            fleet(), soak_config(), journal_path=journal
        )
        assert_identical(report, ref_report, journal, ref_journal)

    def test_recovering_a_completed_journal_is_idempotent(
        self, tmp_path, reference
    ):
        ref_report, ref_journal = reference
        journal = tmp_path / "done.jsonl"
        journal.write_bytes(ref_journal.read_bytes())
        report = recover_service(
            fleet(), soak_config(), journal_path=journal
        )
        assert_identical(report, ref_report, journal, ref_journal)

    def test_cold_private_cache_recovers_identically(self, tmp_path):
        config = soak_config(snapshot_every=250)
        ref_journal = tmp_path / "ref.jsonl"
        ref_report = run_service(
            fleet(),
            config,
            cache=ResultCache(tmp_path / "cache_ref"),
            journal_path=ref_journal,
        )
        journal = tmp_path / "crash.jsonl"
        cache = ResultCache(tmp_path / "cache_crash")
        crash_run(journal, config, crash_at=1200, cache=cache)
        report = recover_service(
            fleet(), config, cache=cache, journal_path=journal
        )
        assert_identical(report, ref_report, journal, ref_journal)

    def test_warm_cache_divergence_is_detected_not_silent(self, tmp_path):
        # A cache warmed *before* the crashed run started served
        # admission-free hits recovery cannot reconstruct (disk reads
        # are suppressed during replay).  The contract is detection:
        # RecoveryError, never a silently forked journal.
        config = soak_config(snapshot_every=250)
        cache = ResultCache(tmp_path / "cache")
        run_service(fleet(), config, cache=cache)  # warms the cache
        journal = tmp_path / "crash.jsonl"
        crash_run(journal, config, crash_at=1200, cache=cache)
        with pytest.raises(RecoveryError, match="diverged"):
            recover_service(
                fleet(), config, cache=cache, journal_path=journal
            )


# -- recovery edges --------------------------------------------------------


class TestRecoveryEdges:
    def crashed_journal(self, tmp_path, snapshot_every=250, crash_at=1200):
        journal = tmp_path / "crash.jsonl"
        crash_run(
            journal, soak_config(snapshot_every=snapshot_every),
            crash_at=crash_at,
        )
        return journal

    def test_torn_snapshot_falls_back(self, tmp_path, reference):
        ref_report, ref_journal = reference
        config = soak_config(snapshot_every=250)
        journal = self.crashed_journal(tmp_path)
        snaps = list_snapshots(journal)
        assert snaps
        newest = snaps[-1]
        newest.write_text(newest.read_text()[: len(newest.read_text()) // 2])
        report = recover_service(fleet(), config, journal_path=journal)
        assert_identical(report, ref_report, journal, ref_journal)

    def test_all_snapshots_corrupt_full_replay(self, tmp_path, reference):
        ref_report, ref_journal = reference
        config = soak_config(snapshot_every=250)
        journal = self.crashed_journal(tmp_path)
        for snap in list_snapshots(journal):
            snap.write_text("not json at all")
        report = recover_service(fleet(), config, journal_path=journal)
        assert_identical(report, ref_report, journal, ref_journal)

    def test_format_1_snapshots_fall_back_to_replay(
        self, tmp_path, reference
    ):
        ref_report, ref_journal = reference
        config = soak_config(snapshot_every=250)
        journal = self.crashed_journal(tmp_path)
        for snap in list_snapshots(journal):
            doc = json.loads(snap.read_text())
            doc["format"] = 1
            snap.write_text(json.dumps(doc))
        tracer = RecordingTracer()
        report = recover_service(
            fleet(), config, journal_path=journal, tracer=tracer
        )
        (recovered,) = [
            e for e in tracer if isinstance(e, ServiceRecovered)
        ]
        assert recovered.source == "replay"
        assert_identical(report, ref_report, journal, ref_journal)

    def test_format_2_snapshots_fall_back_to_replay(
        self, tmp_path, reference
    ):
        """Format 2 held the request and record tables; format 3 does
        not, so a format-2 snapshot is skipped, never half-restored."""
        ref_report, ref_journal = reference
        config = soak_config(snapshot_every=250)
        journal = self.crashed_journal(tmp_path)
        for snap in list_snapshots(journal):
            doc = json.loads(snap.read_text())
            doc["format"] = 2
            snap.write_text(json.dumps(doc))
        tracer = RecordingTracer()
        report = recover_service(
            fleet(), config, journal_path=journal, tracer=tracer
        )
        (recovered,) = [
            e for e in tracer if isinstance(e, ServiceRecovered)
        ]
        assert recovered.source == "replay"
        assert_identical(report, ref_report, journal, ref_journal)

    def test_torn_journal_tail_is_trimmed(self, tmp_path, reference):
        ref_report, ref_journal = reference
        config = soak_config(snapshot_every=250)
        journal = self.crashed_journal(tmp_path)
        with journal.open("a") as handle:
            handle.write('{"kind": "complete", "tick": 99')  # torn line
        report = recover_service(fleet(), config, journal_path=journal)
        assert_identical(report, ref_report, journal, ref_journal)

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="does not exist"):
            recover_service(
                fleet(),
                soak_config(),
                journal_path=tmp_path / "nope.jsonl",
            )

    def test_empty_journal_raises(self, tmp_path):
        journal = tmp_path / "empty.jsonl"
        journal.write_text("")
        with pytest.raises(RecoveryError, match="empty"):
            recover_service(fleet(), soak_config(), journal_path=journal)

    def test_config_mismatch_raises(self, tmp_path):
        journal = self.crashed_journal(tmp_path)
        with pytest.raises(RecoveryError, match="fingerprint"):
            recover_service(
                fleet(),
                soak_config(seed=1999),
                journal_path=journal,
            )

    def test_foreign_format_raises(self, tmp_path):
        journal = self.crashed_journal(tmp_path)
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        header["format"] = 1
        lines[0] = json.dumps(header, sort_keys=True)
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError, match="format"):
            recover_service(fleet(), soak_config(), journal_path=journal)

    def test_tampered_tail_divergence_detected(self, tmp_path):
        journal = self.crashed_journal(tmp_path, snapshot_every=0)
        lines = journal.read_text().splitlines()
        # Flip a mid-journal line: re-execution regenerates the true
        # line and must refuse to silently fork history.
        index = len(lines) // 2
        doc = json.loads(lines[index])
        doc["tick"] = doc.get("tick", 0) + 1
        lines[index] = json.dumps(doc, sort_keys=True)
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError, match="diverged"):
            recover_service(fleet(), soak_config(), journal_path=journal)

    def test_snapshot_loader_rejects_bad_anchor(self, tmp_path):
        config = soak_config(snapshot_every=250)
        journal = self.crashed_journal(tmp_path)
        data = journal.read_bytes()
        fingerprint = config_fingerprint(fleet(), config)
        snaps = list_snapshots(journal)
        state = json.loads(snaps[-1].read_text())
        salt = state["salt"]
        assert (
            load_latest_snapshot(
                journal,
                salt=salt,
                fingerprint=fingerprint,
                journal_bytes=data,
            )
            is not None
        )
        # Truncate the journal below *every* snapshot's anchor: each
        # offset is now out of bounds, so all candidates are rejected.
        oldest = json.loads(snaps[0].read_text())
        short = data[: min(10, oldest["journal_offset"] - 1)]
        assert (
            load_latest_snapshot(
                journal,
                salt=salt,
                fingerprint=fingerprint,
                journal_bytes=short,
            )
            is None
        )
        # A prefix of the right length but the wrong bytes is rejected
        # too (anchor SHA mismatch).
        mangled = bytearray(data)
        mangled[5] ^= 0xFF  # inside the header: within every anchor
        assert (
            load_latest_snapshot(
                journal,
                salt=salt,
                fingerprint=fingerprint,
                journal_bytes=bytes(mangled),
            )
            is None
        )

    def test_write_snapshot_roundtrip(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        state = {
            "format": 1,
            "salt": "s",
            "fingerprint": "f",
            "tick": 7,
            "journal_offset": 1,
            "journal_sha": "x",
        }
        path = write_snapshot(journal, state)
        assert path.parent == snapshot_dir(journal)
        assert json.loads(path.read_text())["tick"] == 7


# -- live reconfiguration --------------------------------------------------


class TestLiveReconfiguration:
    def test_full_schedule_never_drop(self, reconfig_reference):
        report, _ = reconfig_reference
        assert report.dropped_admitted == 0
        assert report.submitted == (
            report.admitted + report.cache_hits + report.shed_total
        )
        assert sorted(report.tenants) == [
            "latecomer",
            "tenant00",
            "tenant01",
            "tenant02",
            "tenant03",
        ]

    def test_schedule_is_deterministic(
        self, tmp_path, reconfig_reference
    ):
        ref_report, ref_journal = reconfig_reference
        journal = tmp_path / "again.jsonl"
        report = run_service(
            fleet(),
            soak_config(),
            journal_path=journal,
            control_events=control_schedule(),
        )
        assert_identical(report, ref_report, journal, ref_journal)

    def test_joined_tenant_is_served(self, reconfig_reference):
        report, journal = reconfig_reference
        stats = report.tenants["latecomer"]
        assert stats.submitted > 0
        assert stats.completed + stats.cache_hits > 0
        assert '"action":"tenant_join"' in journal.read_text()

    def test_leaver_drains_gracefully(self, reconfig_reference):
        report, journal = reconfig_reference
        stats = report.tenants["tenant00"]
        assert stats.shed.get("draining", 0) > 0
        assert "draining" in SHED_REASONS
        # Admitted-before-leave work still completed: never dropped.
        assert stats.admitted == stats.completed
        drained = [
            json.loads(line)
            for line in journal.read_text().splitlines()
            if '"kind":"drained"' in line
        ]
        assert [d["tenant"] for d in drained] == ["tenant00"]
        assert drained[0]["tick"] >= 900

    def test_ac_remove_preempts_with_retire_reason(
        self, reconfig_reference
    ):
        _, journal = reconfig_reference
        lines = [
            json.loads(line)
            for line in journal.read_text().splitlines()
        ]
        removes = [
            l for l in lines
            if l.get("kind") == "control"
            and l.get("action") == "ac_remove"
        ]
        assert len(removes) == 3
        assert all(l["tick"] == 1500 for l in removes)

    def test_reconfig_events_traced(self, tmp_path):
        tracer = RecordingTracer()
        run_service(
            fleet(),
            soak_config(),
            control_events=control_schedule(),
            tracer=tracer,
        )
        joined = [e for e in tracer if isinstance(e, TenantJoined)]
        drained = [e for e in tracer if isinstance(e, TenantDrained)]
        retired = [e for e in tracer if isinstance(e, AcRetired)]
        assert [e.tenant for e in joined] == ["latecomer"]
        assert [e.tenant for e in drained] == ["tenant00"]
        assert len(retired) == 3

    def test_crash_during_reconfig_recovers_bit_identical(
        self, tmp_path, reconfig_reference
    ):
        ref_report, ref_journal = reconfig_reference
        config = soak_config(snapshot_every=250)
        for crash_at in (450, 950, 1550):
            journal = tmp_path / f"crash{crash_at}.jsonl"
            crash_run(
                journal,
                config,
                control_events=control_schedule(),
                crash_at=crash_at,
            )
            report = recover_service(
                fleet(),
                config,
                journal_path=journal,
                control_events=control_schedule(),
            )
            assert_identical(report, ref_report, journal, ref_journal)

    def test_snapshot_after_join_rebuilds_the_joiner_stream(
        self, tmp_path, reconfig_reference
    ):
        """No snapshot holds a request stream, so resuming past the join
        proves the joiner's stream is re-derived from the inputs."""
        ref_report, ref_journal = reconfig_reference
        config = soak_config(snapshot_every=250)
        journal = tmp_path / "crash.jsonl"
        crash_run(
            journal,
            config,
            control_events=control_schedule(),
            crash_at=800,
        )
        newest = json.loads(list_snapshots(journal)[-1].read_text())
        assert newest["tick"] > 400  # the latecomer joined at tick 400
        assert "latecomer" in newest["state"]["stats"]
        assert "requests" not in newest["state"]
        tracer = RecordingTracer()
        report = recover_service(
            fleet(),
            config,
            journal_path=journal,
            control_events=control_schedule(),
            tracer=tracer,
        )
        (recovered,) = [
            e for e in tracer if isinstance(e, ServiceRecovered)
        ]
        assert recovered.source == "snapshot"
        assert recovered.resume_tick == newest["tick"]
        assert_identical(report, ref_report, journal, ref_journal)
        assert report.tenants["latecomer"].submitted > 0

    def test_recover_with_wrong_schedule_raises(
        self, tmp_path, reconfig_reference
    ):
        config = soak_config(snapshot_every=250)
        journal = tmp_path / "crash.jsonl"
        crash_run(
            journal,
            config,
            control_events=control_schedule(),
            crash_at=1200,
        )
        with pytest.raises(RecoveryError, match="fingerprint"):
            recover_service(fleet(), config, journal_path=journal)

    def test_ac_remove_beyond_capacity_stops_at_empty_fabric(self):
        report = run_service(
            fleet(),
            ServiceConfig(num_acs=2, duration=600, seed=2008),
            control_events=[
                ControlEvent(tick=100, action="ac_remove", count=5)
            ],
        )
        assert report.dropped_admitted == 0


class TestControlEventValidation:
    def test_actions_vocabulary(self):
        assert CONTROL_ACTIONS == (
            "tenant_join",
            "tenant_leave",
            "ac_add",
            "ac_remove",
        )

    def test_parse_round_trips(self):
        event = parse_reconfig_spec("400:tenant_join:newbie")
        assert (event.tick, event.action, event.name) == (
            400,
            "tenant_join",
            "newbie",
        )
        assert parse_reconfig_spec("10:ac_add").count == 1
        assert parse_reconfig_spec("10:ac_remove:3").count == 3

    @pytest.mark.parametrize(
        "text",
        [
            "nope",
            "x:ac_add",
            "10:fly_away",
            "10:tenant_join",
            "10:tenant_leave:",
            "10:ac_add:lots",
            "10:ac_add:2:extra",
        ],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ServiceError):
            parse_reconfig_spec(text)

    def test_derive_join_tenant_is_deterministic(self):
        assert derive_join_tenant("x", 2008) == derive_join_tenant(
            "x", 2008
        )
        assert derive_join_tenant("x", 2008) != derive_join_tenant(
            "y", 2008
        )

    def test_join_needs_spec(self):
        with pytest.raises(ServiceError, match="no TenantSpec"):
            validate_control_events(
                ["a"],
                [ControlEvent(tick=1, action="tenant_join", name="b")],
            )

    def test_join_rejects_taken_name(self):
        spec = derive_join_tenant("a", 2008)
        with pytest.raises(ServiceError, match="already taken"):
            validate_control_events(
                ["a"],
                [
                    ControlEvent(
                        tick=1,
                        action="tenant_join",
                        name="a",
                        spec=spec,
                    )
                ],
            )

    def test_leave_rejects_unknown_tenant(self):
        with pytest.raises(ServiceError, match="not an active tenant"):
            validate_control_events(
                ["a"],
                [ControlEvent(tick=1, action="tenant_leave", name="b")],
            )

    def test_names_never_reused_after_leave(self):
        spec = derive_join_tenant("a", 2008)
        with pytest.raises(ServiceError, match="already taken"):
            validate_control_events(
                ["a"],
                [
                    ControlEvent(
                        tick=1, action="tenant_leave", name="a"
                    ),
                    ControlEvent(
                        tick=2,
                        action="tenant_join",
                        name="a",
                        spec=spec,
                    ),
                ],
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tick": -1, "action": "ac_add"},
            {"tick": 1, "action": "warp_drive"},
            {"tick": 1, "action": "tenant_leave"},
            {"tick": 1, "action": "ac_add", "count": 0},
        ],
    )
    def test_malformed_events_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            ControlEvent(**kwargs)

    def test_join_spec_name_must_match(self):
        with pytest.raises(ServiceError, match="spec name"):
            ControlEvent(
                tick=1,
                action="tenant_join",
                name="a",
                spec=derive_join_tenant("b", 2008),
            )

    def test_run_service_rejects_bad_schedule(self):
        with pytest.raises(ServiceError, match="not an active tenant"):
            run_service(
                fleet(),
                soak_config(),
                control_events=[
                    ControlEvent(
                        tick=1, action="tenant_leave", name="ghost"
                    )
                ],
            )

    def test_run_service_rejects_bad_crash_mode(self):
        with pytest.raises(ServiceError, match="crash_mode"):
            run_service(
                fleet(),
                soak_config(),
                crash_at_tick=1,
                crash_mode="gently",
            )


# -- AC pool reshaping on the lease ledger ----------------------------------


class TestFabricReshaping:
    def test_retired_containers_shrink_usable_only(self):
        leases = LeaseLedger(4)
        assert leases.retire_highest() == 3
        assert leases.usable == 3
        assert leases.retired == {3}
        assert not leases.dead  # retirement is not a fault

    def test_retire_dead_container_rejected(self):
        leases = LeaseLedger(2)
        assert leases.kill_lowest() == 0
        # Only live containers retire: the dead one is never picked.
        assert leases.retire_highest() == 1
        assert leases.retire_highest() is None
        assert leases.dead == {0} and leases.retired == {1}

    def test_add_containers_extends_indices(self):
        leases = LeaseLedger(2)
        leases.kill_lowest()
        leases.num_acs += 2
        assert leases.live() == [1, 2, 3]
        assert leases.usable == 3
        # Faults keep taking the lowest live index, grown ones included.
        assert leases.kill_lowest() == 1


# -- breaker half-open pins ------------------------------------------------


class TestBreakerHalfOpenEdges:
    def tripped(self):
        breaker = CircuitBreaker(threshold=2, window=100, cooldown=50)
        assert breaker.on_fault(10) is None
        assert breaker.on_fault(20) == "open"
        return breaker

    def test_fault_during_half_open_reopens_with_full_cooldown(self):
        breaker = self.tripped()
        assert breaker.poll(70) == "half_open"
        assert breaker.on_fault(71) == "open"
        assert breaker.trips == 2
        # The new open window is a *full* cooldown from the reopening
        # fault, not the remainder of the old one.
        assert breaker.is_open(120)
        assert not breaker.is_open(121)

    def test_single_window_fault_reopens_half_open(self):
        # One fault suffices in half_open, even below the threshold.
        breaker = self.tripped()
        assert breaker.poll(200) == "half_open"  # old faults long gone
        assert breaker.faults_in_window(200) == 0
        assert breaker.on_fault(201) == "open"

    def test_probe_successes_not_double_counted(self):
        breaker = self.tripped()
        assert breaker.poll(70) == "half_open"
        assert breaker.on_success(71) == "closed"
        # Further successes are no-ops: no transition, no state change.
        assert breaker.on_success(72) is None
        assert breaker.state == "closed"
        assert breaker.trips == 1

    def test_success_while_closed_is_noop(self):
        breaker = CircuitBreaker(threshold=2, window=100, cooldown=50)
        assert breaker.on_success(5) is None
        assert breaker.state == "closed"

    def test_close_clears_fault_window(self):
        breaker = self.tripped()
        breaker.poll(70)
        breaker.on_success(71)
        # The cleared window means the next fault starts from zero.
        assert breaker.on_fault(72) is None
        assert breaker.faults_in_window(72) == 1


# -- the subprocess SIGKILL gate (the CI job's shape) ----------------------


class TestSigkillSubprocess:
    SERVE = [
        "--tenants", "3",
        "--duration", "1500",
        "--service-acs", "6",
        "--mean-gap", "60",
        "--deadline-slack", "400",
        "--kills", "2",
        "--kill-at", "500",
        "--no-cache",
    ]

    def run_cli(self, *extra, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", "serve", *self.SERVE, *extra],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
        )

    def test_sigkill_then_recover_matches_uninterrupted(self, tmp_path):
        ref = self.run_cli(
            "--journal", "ref.jsonl",
            "--report-json", "ref.json",
            "--digest-only",
            cwd=tmp_path,
        )
        assert ref.returncode == 0, ref.stderr
        killed = self.run_cli(
            "--journal", "crash.jsonl",
            "--snapshot-every", "200",
            "--chaos-kill-at", "700",
            cwd=tmp_path,
        )
        assert killed.returncode in (-signal.SIGKILL, 137)
        assert list_snapshots(tmp_path / "crash.jsonl")
        recovered = self.run_cli(
            "--journal", "crash.jsonl",
            "--snapshot-every", "200",
            "--recover",
            "--report-json", "rec.json",
            "--digest-only",
            cwd=tmp_path,
        )
        assert recovered.returncode == 0, recovered.stderr
        assert recovered.stdout == ref.stdout
        assert (tmp_path / "crash.jsonl").read_bytes() == (
            tmp_path / "ref.jsonl"
        ).read_bytes()
        assert json.loads((tmp_path / "rec.json").read_text()) == (
            json.loads((tmp_path / "ref.json").read_text())
        )

    def test_recover_without_journal_flag_errors(self, tmp_path):
        result = self.run_cli("--recover", cwd=tmp_path)
        assert result.returncode == 1
        assert "--journal" in result.stderr
