"""repro.exec — the sweep-execution subsystem.

Design-space sweeps (Figure 7's scheduler x AC-count grid and anything
larger) run through four pieces:

* :class:`~repro.exec.spec.SweepSpec` — a declarative grid that
  enumerates (system, scheduler, AC count, fault config, workload)
  cells,
* :func:`~repro.exec.runner.run_sweep` — the one sweep entry point: it
  serves journal and cache hits, runs cells in-process when they must
  (traced, or serial without supervision) and times each cell,
* :class:`~repro.exec.cache.ResultCache` — a content-addressed on-disk
  cache (cell config + code-version salt, hashed to a JSON artifact of
  the :class:`~repro.sim.results.SimulationResult`) that makes repeated
  or resumed sweeps skip completed cells,
* :mod:`~repro.exec.supervise` — the long-lived worker slots every
  other sweep runs on, and the fault-tolerant supervision layer of
  :func:`~repro.exec.supervise.run_supervised` (per-cell timeouts,
  seeded-backoff retries, quarantine, JSONL journaling with
  ``--resume``, graceful SIGINT/SIGTERM shutdown) with chaos injection
  (:mod:`repro.exec.chaos`) for testing it.

Parallel runs are bit-identical to serial runs; cache replays, journal
resumes and supervised runs are bit-identical to both.  The figure/table
drivers in :mod:`repro.analysis.experiments`, the ``sweep`` CLI command
and the benchmark harness all execute through this engine.
"""

from __future__ import annotations

from .cache import CODE_VERSION_SALT, ResultCache, canonical_json, cell_key
from .chaos import ChaosEntry, ChaosSpec, chaos_from_env, parse_chaos_spec
from .journal import QuarantinedCell, SweepJournal, read_journal
from .runner import (
    CellOutcome,
    SweepReport,
    cache_from_env,
    default_jobs,
    execute_cell,
    run_sweep,
)
from .spec import SweepCell, SweepSpec, WorkloadSpec
from .supervise import (
    CellFailure,
    CellTimeout,
    PoisonedCell,
    SupervisorPolicy,
    WorkerCrash,
    policy_from_env,
    run_supervised,
)

__all__ = [
    "WorkloadSpec",
    "SweepCell",
    "SweepSpec",
    "CODE_VERSION_SALT",
    "ResultCache",
    "canonical_json",
    "cell_key",
    "CellOutcome",
    "SweepReport",
    "execute_cell",
    "run_sweep",
    "default_jobs",
    "cache_from_env",
    # supervision
    "SupervisorPolicy",
    "CellFailure",
    "CellTimeout",
    "WorkerCrash",
    "PoisonedCell",
    "policy_from_env",
    "run_supervised",
    # journal
    "SweepJournal",
    "QuarantinedCell",
    "read_journal",
    # chaos
    "ChaosEntry",
    "ChaosSpec",
    "parse_chaos_spec",
    "chaos_from_env",
]
