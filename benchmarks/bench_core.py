"""Committed perf trajectory for the cycle-accounting core.

Runs the Figure 7 driver grid (every paper scheduler and the Molen and
software baselines across the full AC sweep, 8 frames) through
``execute_cell`` — no cache, no worker pool — and records, per PR:

* ``cells_per_sec`` / ``iterations_per_sec`` — wall-clock numbers;
  informational on shared machines, comparable on a pinned one,
* ``cells`` / ``total_iterations`` — the deterministic size of the
  scenario (bit-stable: a change means the driver grid or the workload
  model changed),
* ``result_digest`` — a hash over every cell's cycle accounting; a
  digest change without an intentional semantic change is a
  regression.  The committed ``issue-8`` entry's digest was made by the
  reference per-span loop that has since been deleted, so a passing
  ``--check`` shows the one remaining engine reproduces it,
* ``cells_per_sec_prefetch`` / ``prefetch_hidden_cycles`` — one
  informational PREFETCH pass over the RISPP AC sweep.  Never gated —
  it records the speculative lane's throughput cost and how much
  reconfiguration overhead it hides next to the HEF cells of the same
  grid.

Usage::

    PYTHONPATH=src python benchmarks/bench_core.py            # print
    PYTHONPATH=src python benchmarks/bench_core.py --write    # append
    PYTHONPATH=src python benchmarks/bench_core.py --check    # gate

``--write`` appends one entry (keyed by ``--label``, default the short
git hash) to ``BENCH_core.json`` at the repo root; the file is a
history, newest last.  ``--check`` re-runs the scenario and fails if
the deterministic fields drifted from the newest committed entry —
wall throughput is never gated.

Timing is min-of-``reps``, so one load spike on a shared machine does
not set the recorded throughput.

The file deliberately does not match pytest's ``test_*`` pattern: it is
a recording harness, not part of the benchmark smoke suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_core.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.experiments import (  # noqa: E402
    ExperimentScale,
    fig7_spec,
)
from repro.exec.runner import execute_cell  # noqa: E402

#: The recorded scenario: the Figure 7 grid at 8 frames (the same scale
#: as the live golden sweep).  Change these only together with a fresh
#: ``--write`` entry explaining why.
SCENARIO: Dict[str, Any] = {
    "figure": "fig7",
    "frames": 8,
    "seed": 2008,
    "reps": 3,
}

#: Deterministic (machine-independent) fields gated by ``--check``.
GATED_FIELDS = ("cells", "total_iterations", "result_digest")


def _digest(results: List[Any]) -> str:
    """Hash the cycle accounting of every cell, in grid order."""
    payload = [
        {
            "system": r.system,
            "scheduler": r.scheduler_name,
            "num_acs": r.num_acs,
            "total_cycles": r.total_cycles,
            "hot_spot_cycles": r.hot_spot_cycles,
            "per_frame_cycles": list(r.per_frame_cycles),
            "si_executions": dict(r.si_executions),
            "loads_started": r.loads_started,
            "loads_completed": r.loads_completed,
            "evictions": r.evictions,
            "degraded_cycles": r.degraded_cycles,
        }
        for r in results
    ]
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return "sha256:" + hashlib.sha256(blob).hexdigest()[:16]


def run_scenario() -> Dict[str, Any]:
    scale = ExperimentScale(
        frames=int(SCENARIO["frames"]), seed=int(SCENARIO["seed"])
    )
    cells = fig7_spec(scale).cells()
    workload = scale.workload()
    iters_per_cell = sum(t.counts.shape[0] for t in workload.traces)

    walls: List[float] = []
    results: List[Any] = []
    for rep in range(int(SCENARIO["reps"])):
        start = time.perf_counter()
        batch = [execute_cell(cell) for cell in cells]
        walls.append(time.perf_counter() - start)
        if rep == 0:
            results = batch

    n_cells = len(cells)
    total_iterations = iters_per_cell * n_cells
    wall = min(walls)
    entry: Dict[str, Any] = {
        "scenario": dict(SCENARIO),
        "cells": n_cells,
        "total_iterations": total_iterations,
        "result_digest": _digest(results),
        "wall_seconds": round(wall, 3),
        "cells_per_sec": round(n_cells / wall, 1),
        "iterations_per_sec": round(total_iterations / wall, 1),
    }

    # Informational PREFETCH pass: the HEF cells of the same grid with
    # speculation enabled.  One rep; never gated.
    prefetch_cells = [
        dataclasses.replace(cell, scheduler="PREFETCH")
        for cell in cells
        if cell.system == "RISPP" and cell.scheduler == "HEF"
    ]
    start = time.perf_counter()
    prefetch_results = [execute_cell(cell) for cell in prefetch_cells]
    prefetch_wall = time.perf_counter() - start
    hef_by_acs = {
        r.num_acs: r
        for r in results
        if r.system == "RISPP" and r.scheduler_name == "HEF"
    }
    hidden = sum(
        max(0, hef_by_acs[r.num_acs].total_cycles - r.total_cycles)
        for r in prefetch_results
    )
    entry["wall_seconds_prefetch"] = round(prefetch_wall, 3)
    entry["cells_per_sec_prefetch"] = round(
        len(prefetch_cells) / prefetch_wall, 1
    )
    entry["prefetch_hidden_cycles"] = hidden
    return entry


def git_label() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "worktree"


def load_history() -> List[Dict[str, Any]]:
    if not BENCH_PATH.exists():
        return []
    return list(json.loads(BENCH_PATH.read_text(encoding="utf-8")))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help="append this run to BENCH_core.json",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail if deterministic metrics drifted from the newest entry",
    )
    parser.add_argument(
        "--label", default=None, help="entry label (default: git hash)"
    )
    args = parser.parse_args(argv)

    entry = run_scenario()
    entry["label"] = args.label or git_label()
    print(json.dumps(entry, indent=2, sort_keys=True))

    if args.check:
        history = load_history()
        if not history:
            print("no committed history to check against", file=sys.stderr)
            return 1
        baseline = history[-1]
        drift = {
            field: (baseline.get(field), entry[field])
            for field in GATED_FIELDS
            if baseline.get(field) != entry[field]
        }
        if drift:
            print(f"deterministic metrics drifted: {drift}", file=sys.stderr)
            return 1
        print(f"check ok against entry {baseline.get('label')!r}")
        return 0

    if args.write:
        history = load_history()
        history.append(entry)
        BENCH_PATH.write_text(
            json.dumps(history, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"recorded entry {entry['label']!r} -> {BENCH_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
