"""Golden regression tests for the Figure 7 sweep.

Two layers of pinning:

* **Artifact scalars** — key numbers derived from the committed
  ``artifacts/full_sweep_results.json`` (the 140-frame paper-scale
  sweep):
  per-scheduler speedups and the HEF > SJF > ASF > FSFR quality
  ordering.  These fail if the artifact is edited or regenerated
  inconsistently.
* **Live goldens** — the whole Figure 7 grid (101 cells, 8 frames,
  seed 2008, whatever ``REPRO_FRAMES`` says) re-simulated once per test
  run: the grid's size, a digest over every cell's cycle accounting,
  and the exact ``total_cycles`` of sixteen cells.  The digest was
  recorded by the reference per-span replay loop before it was deleted,
  so it is an oracle independent of the one engine left.  Any code
  change that moves simulation behaviour fails here with a readable
  expected/got diff.

When a *deliberate* semantic change moves the live goldens: take the
new values from the failure's diff, update ``_GRID_GOLDEN`` and
``_GOLDEN_CYCLES`` below, regenerate ``artifacts/full_sweep_results.json``
at paper scale, bump the cache salt
(``repro.exec.cache.CODE_VERSION_SALT``) and say why in CHANGES.md.
"""

import hashlib
import json
import statistics
from pathlib import Path

import pytest

from repro.analysis.experiments import ExperimentScale, fig7_spec
from repro.exec import SweepSpec, WorkloadSpec, run_sweep

ARTIFACT = (
    Path(__file__).resolve().parent.parent
    / "artifacts"
    / "full_sweep_results.json"
)


def _diff(expected, actual, tolerance=0.0):
    """Readable expected-vs-got lines for every moved scalar."""
    lines = []
    for name, want in expected.items():
        got = actual[name]
        if isinstance(want, float):
            moved = abs(got - want) > tolerance
        else:
            moved = got != want
        if moved:
            lines.append(f"  {name}: expected {want!r}, got {got!r}")
    return lines


# ---------------------------------------------------------------------------
# Layer 1: scalars pinned from the committed paper-scale artifact
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def artifact():
    return json.loads(ARTIFACT.read_text())


class TestArtifactScalars:
    def test_pinned_speedup_scalars(self, artifact):
        speedups = artifact["speedups"]
        actual = {
            "software Mcycles": artifact["software"],
            "HEF vs Molen max": max(speedups["HEF vs Molen"]),
            "HEF vs Molen avg": statistics.mean(speedups["HEF vs Molen"]),
            "HEF vs ASF max": max(speedups["HEF vs ASF"]),
            "HEF vs ASF avg": statistics.mean(speedups["HEF vs ASF"]),
            "ASF vs Molen max": max(speedups["ASF vs Molen"]),
            "ASF vs Molen avg": statistics.mean(speedups["ASF vs Molen"]),
        }
        expected = {
            "software Mcycles": 7402.894219,
            "HEF vs Molen max": 1.4462,
            "HEF vs Molen avg": 1.2448,
            "HEF vs ASF max": 1.1186,
            "HEF vs ASF avg": 1.0472,
            "ASF vs Molen max": 1.2929,
            "ASF vs Molen avg": 1.1868,
        }
        lines = _diff(expected, actual, tolerance=5e-4)
        assert not lines, (
            "artifacts/full_sweep_results.json speedup scalars moved:\n"
            + "\n".join(lines)
        )

    def test_scheduler_quality_ordering(self, artifact):
        """Figure 7's takeaway: HEF > SJF > ASF > FSFR (> Molen) once
        the fabric is big enough, by mean Mcycles over ACs >= 10."""
        ac_counts = artifact["ac_counts"]
        mcycles = artifact["mcycles"]
        big = [i for i, ac in enumerate(ac_counts) if ac >= 10]
        mean = {
            name: statistics.mean(series[i] for i in big)
            for name, series in mcycles.items()
        }
        order = ["HEF", "SJF", "ASF", "FSFR", "Molen"]
        ranked = sorted(order, key=lambda name: mean[name])
        assert ranked == order, (
            "scheduler quality ordering moved: expected "
            f"{' < '.join(order)} by mean Mcycles (ACs >= 10), got "
            f"{' < '.join(ranked)} "
            f"({ {n: round(mean[n], 2) for n in ranked} })"
        )

    def test_speedups_consistent_with_mcycles(self, artifact):
        """The artifact's speedup rows must equal the Mcycles ratios —
        catches half-regenerated artifacts."""
        mcycles = artifact["mcycles"]
        pairs = {
            "HEF vs ASF": ("ASF", "HEF"),
            "ASF vs Molen": ("Molen", "ASF"),
            "HEF vs Molen": ("Molen", "HEF"),
        }
        for row, (slow, fast) in pairs.items():
            derived = [
                s / f for s, f in zip(mcycles[slow], mcycles[fast])
            ]
            stored = artifact["speedups"][row]
            assert stored == pytest.approx(derived, rel=1e-9), (
                f"speedup row {row!r} inconsistent with mcycles series"
            )


# ---------------------------------------------------------------------------
# Layer 2: live goldens — the Figure 7 grid at 8 frames, simulated once
# ---------------------------------------------------------------------------

#: Every paper scheduler and the Molen baseline at 5..24 ACs, plus the
#: software baseline.  Frames and seed are pinned here, not read from
#: the environment.
_GRID_SPEC = fig7_spec(ExperimentScale(frames=8, seed=2008))

#: The grid's size and the reference loop's digest of its results.
_GRID_GOLDEN = {
    "cells": 101,
    "trace iterations": 959_904,
    "result digest": "sha256:bc6be380d159ff5f",
}

#: Sixteen cells of the grid, kept as a spec because
#: ``tests/test_golden_vector.py`` re-runs them traced.
_GOLDEN_SPEC = SweepSpec(
    schedulers=("FSFR", "ASF", "SJF", "HEF"),
    ac_counts=(6, 10, 14),
    workload=WorkloadSpec(frames=8, seed=2008),
    include_molen=True,
    include_software=True,
)

#: Exact total_cycles per cell of _GOLDEN_SPEC.  All quantities are
#: integer cycle counts, so equality is exact across platforms.
_GOLDEN_CYCLES = dict([
    ("FSFR@6AC/8f", 45455170),
    ("ASF@6AC/8f", 45126855),
    ("SJF@6AC/8f", 45126855),
    ("HEF@6AC/8f", 45101747),
    ("Molen@6AC/8f", 47244923),
    ("FSFR@10AC/8f", 33964264),
    ("ASF@10AC/8f", 33696901),
    ("SJF@10AC/8f", 33696901),
    ("HEF@10AC/8f", 32627289),
    ("Molen@10AC/8f", 38426586),
    ("FSFR@14AC/8f", 32893771),
    ("ASF@14AC/8f", 31601811),
    ("SJF@14AC/8f", 31548331),
    ("HEF@14AC/8f", 29829759),
    ("Molen@14AC/8f", 37773723),
    ("Software@0AC/8f", 435873470),
])


def _grid_digest(results):
    """Short sha256 over every cell's cycle accounting, in grid order
    (the fields and encoding the reference loop's digest used)."""
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


@pytest.fixture(scope="module")
def live_report():
    return run_sweep(_GRID_SPEC, jobs=1)


class TestLiveGoldens:
    def test_grid_size_and_digest(self, live_report):
        workload = _GRID_SPEC.workload.build()
        iterations = sum(len(trace.counts) for trace in workload.traces)
        actual = {
            "cells": len(live_report),
            "trace iterations": iterations * len(live_report),
            "result digest": _grid_digest(live_report.results),
        }
        lines = _diff(_GRID_GOLDEN, actual)
        assert not lines, (
            "the Figure 7 grid moved (update _GRID_GOLDEN and bump the "
            "cache salt if this is deliberate):\n" + "\n".join(lines)
        )

    def test_total_cycles_pinned(self, live_report):
        actual = {
            o.cell.label: o.result.total_cycles
            for o in live_report
            if o.cell.label in _GOLDEN_CYCLES
        }
        assert set(actual) == set(_GOLDEN_CYCLES)
        lines = _diff(_GOLDEN_CYCLES, actual)
        assert not lines, (
            "simulation behaviour moved (update _GOLDEN_CYCLES and bump "
            "the cache salt if this is deliberate):\n" + "\n".join(lines)
        )

    def test_live_ordering_matches_paper(self, live_report):
        """HEF fastest at every swept AC count; Molen slowest."""
        by_label = {
            o.cell.label: o.result.total_cycles for o in live_report
        }
        for ac in (6, 10, 14):
            cells = {
                name: by_label[f"{name}@{ac}AC/8f"]
                for name in ("FSFR", "ASF", "SJF", "HEF", "Molen")
            }
            assert min(cells, key=cells.get) == "HEF", (
                f"HEF is not the fastest scheduler at {ac} ACs: {cells}"
            )
            assert max(cells, key=cells.get) == "Molen", (
                f"Molen baseline is not the slowest at {ac} ACs: {cells}"
            )
