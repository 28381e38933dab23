"""Public API surface the repository promises but nothing else exercised.

RL011 (dead-exports) demands every public symbol be referenced from
somewhere real; these tests are that reference *and* pin the symbols'
contracts — the paper's calibration constants keep their DATE'08
values, the stats/journal/timer classes stay constructible, and the
``repro serve`` entry point keeps producing a deterministic digest.
"""

from __future__ import annotations

from repro.calibration import (
    CLOCK_MHZ,
    PAPER_FIG7_SCHEDULERS,
    RECONFIG_BANDWIDTH_MBPS,
    RECONFIG_TIME_US,
    bitstream_bytes_to_cycles,
)
from repro.core.monitor import ExecutionMonitor, MonitorStats
from repro.core.schedulers.base import SchedulerState
from repro.core.scoring import VectorSchedulerState
from repro.exec.chaos import CHAOS_ENV_VAR, CHAOS_MODES, chaos_from_env
from repro.fabric.atom import (
    AVERAGE_RECONFIG_CYCLES,
    RECONFIG_CYCLES_PER_ATOM,
)
from repro import h264_platform
from repro.h264.silibrary import ATOM_DCACC, PAPER_SI_LABELS, build_si_library
from repro.obs.metrics import HistogramTimer, MetricsRegistry


class TestPaperConstants:
    def test_clock_and_port_calibration_match_the_paper(self):
        # Section 5: 100 MHz prototype, 66 MB/s SelectMap port.
        assert CLOCK_MHZ == 100.0
        assert RECONFIG_BANDWIDTH_MBPS == 66.0
        assert RECONFIG_TIME_US == 874.03

    def test_reconfig_cycles_follow_from_the_calibration(self):
        assert AVERAGE_RECONFIG_CYCLES == RECONFIG_CYCLES_PER_ATOM
        # 874.03 us at 100 MHz is 87403 cycles; the derived per-atom
        # constant must stay on that order of magnitude.
        assert 80_000 <= AVERAGE_RECONFIG_CYCLES <= 95_000

    def test_fig7_scheduler_roster_is_the_papers(self):
        assert PAPER_FIG7_SCHEDULERS == ("ASF", "FSFR", "SJF", "HEF")

    def test_bitstream_conversion_uses_the_paper_port(self):
        cycles = bitstream_bytes_to_cycles(60_488)
        assert cycles > 0
        assert isinstance(cycles, int)

    def test_table1_atoms_and_labels(self):
        assert ATOM_DCACC == "DCACC"
        library = build_si_library()
        # Every pretty label belongs to a real SI of the library.
        names = {si.name for si in library}
        assert set(PAPER_SI_LABELS) <= names
        assert PAPER_SI_LABELS["DCT"] == "(I)DCT"

    def test_h264_platform_is_one_frozen_table1_pair(self):
        registry, library = h264_platform()
        assert h264_platform() == (registry, library)
        assert library.space == registry.space
        # Same Table 1 as the pure constructor, built once per process.
        assert library.inventory() == build_si_library().inventory()


class TestMonitorStats:
    def test_stats_object_defaults_and_type(self):
        monitor = ExecutionMonitor()
        stats = monitor.stats("hs", "SAD")
        assert isinstance(stats, MonitorStats)
        assert stats.num_updates == 0


class TestVectorSchedulerState:
    def test_is_a_scheduler_state(self):
        assert issubclass(VectorSchedulerState, SchedulerState)


class TestChaosEnvSeam:
    def test_env_var_round_trip(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "*:hang")
        spec = chaos_from_env()
        assert spec.entries  # one catch-all rule parsed from the env

    def test_empty_env_is_no_chaos(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        assert not chaos_from_env()

    def test_documented_modes_are_the_parseable_ones(self, monkeypatch):
        assert CHAOS_MODES == ("hang", "crash", "raise")
        for mode in CHAOS_MODES:
            monkeypatch.setenv(CHAOS_ENV_VAR, f"*:{mode}")
            assert chaos_from_env().entries


class TestHistogramTimer:
    def test_timer_returns_the_public_context_manager(self):
        registry = MetricsRegistry()
        timer = registry.timer("span")
        assert isinstance(timer, HistogramTimer)
        with timer:
            pass
        assert registry.histogram("span").count == 1


class TestServeEntryPoint:
    def test_digest_only_smoke_run(self, capsys):
        from repro.cli import serve_main

        code = serve_main(
            [
                "--tenants", "2",
                "--duration", "300",
                "--digest-only",
                "--no-cache",
            ]
        )
        assert code == 0
        digest = capsys.readouterr().out.strip()
        assert len(digest) == 64
        int(digest, 16)  # a hex SHA-256
