"""Benchmark harness for sweeps and the service: end to end and per layer.

Usage::

    python benchmarks/perf/run.py                     # all workloads
    python benchmarks/perf/run.py --workload sweep-fig7 --seed 7 \\
        --seconds 20 --trace 0                        # one workload
    python benchmarks/perf/run.py --sets 2            # steadiness check

Every execution runs one workload in a fresh child interpreter
(``child.py``) whose environment has every ``REPRO_*`` variable
removed, with a private temp dir under ``.perf-tmp/`` that is deleted
afterwards.  The timed region is one call to ``run_sweep`` (jobs=1, no
cache) or ``run_service``; there is no warm-up, because CLI users pay
the cold start on every invocation.

``--trace 0`` makes plain runs and reports the end-to-end metrics;
``--trace 1`` makes layer-timed runs, each after a plain run, and
reports the per-layer metrics; without ``--trace`` the harness makes
plain runs, then one layer-timed run, and reports both.  ``--seconds``
repeats runs while the next one is predicted to fit in that many
seconds (at least 3 plain runs, or 1 pair); otherwise ``--runs`` sets
the count.  Timings are medians over the runs.

Outputs are checked on every run: each fingerprint must equal
``expected.json`` (seed 2008, full size) or, for other seeds, the
first run's, and each run's invariants must hold.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit status: 0 clean, 1 failed outputs (or sets
that disagree), 2 the harness could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from layers import LAYER_NAMES
from workloads import COUNTERS, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
TMP_ROOT = ROOT / ".perf-tmp"
EXPECTED_PATH = HERE / "expected.json"

DEFAULT_SEED = 2008
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150

#: ``(name, unit)`` of the end-to-end metrics, from plain runs.
#: ``items_per_s`` counts cells for sweep workloads and requests for
#: service workloads.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: ``(name, unit)`` of the per-layer metrics, from layer-timed runs.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple(
        metric
        for layer in LAYER_NAMES
        for metric in (
            (f"{layer}.self_s", "s"),
            (f"{layer}.share", "fraction"),
            (f"{layer}.calls", "count"),
        )
    )
    + COUNTERS
    + (("layers.coverage", "fraction"), ("layers.overhead", "fraction"))
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a wrong output)."""


@dataclass
class WorkloadRun:
    """Every execution of one workload, and what was checked."""

    name: str
    seed: int
    plain: List[Dict[str, Any]] = field(default_factory=list)
    timed: List[Dict[str, Any]] = field(default_factory=list)
    #: Fingerprints every execution was compared against.
    reference: Optional[Dict[str, str]] = None
    checked_expected: bool = False
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def _done(self, samples: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        done = [s for s in samples if s["outcome"] is not None]
        if not done:
            raise HarnessError(f"{self.name}: every run raised")
        return done

    def end_to_end(self) -> Dict[str, List[float]]:
        plain = self._done(self.plain)
        return {
            "items_per_s": [
                s["outcome"]["items"] / s["wall_s"] for s in plain
            ],
            "setup_s": [s["setup_s"] for s in plain],
            "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
        }

    def counters(self) -> Dict[str, float]:
        return dict(self._done(self.plain + self.timed)[0]["outcome"]["counters"])

    def items(self) -> int:
        return int(self._done(self.plain + self.timed)[0]["outcome"]["items"])

    def per_layer(self) -> Dict[str, float]:
        timed = self._done(self.timed)
        walls = [s["wall_s"] for s in timed]
        metrics: Dict[str, float] = {}
        for layer in LAYER_NAMES:
            selfs = [s["layers"][layer]["self_s"] for s in timed]
            metrics[f"{layer}.self_s"] = statistics.median(selfs)
            metrics[f"{layer}.share"] = statistics.median(
                x / w for x, w in zip(selfs, walls)
            )
            metrics[f"{layer}.calls"] = statistics.median(
                s["layers"][layer]["calls"] for s in timed
            )
        metrics.update(self.counters())
        metrics["layers.coverage"] = statistics.median(
            sum(v["self_s"] for v in s["layers"].values()) / s["wall_s"]
            for s in timed
        )
        # Each layer-timed run against the plain run just before it, so
        # both see the same host speed.
        metrics["layers.overhead"] = (
            statistics.median(s["wall_s"] / s["plain_wall_s"] for s in timed)
            - 1.0
        )
        return metrics

    def fingerprint(self) -> str:
        blob = json.dumps(self.reference or {}, sort_keys=True)
        return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_expected() -> Dict[str, Any]:
    if not EXPECTED_PATH.exists():
        return {}
    return dict(json.loads(EXPECTED_PATH.read_text(encoding="utf-8")))


def _launch(
    workload: str, seed: int, scale: float, layers: bool
) -> Dict[str, Any]:
    """Run one execution in a fresh child; its parsed result line."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
    command = [
        sys.executable,
        str(HERE / "child.py"),
        workload,
        str(seed),
        repr(scale),
        str(tmp),
    ] + (["--layers"] if layers else [])
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    try:
        launched = time.monotonic()
        proc = subprocess.run(
            command,
            cwd=tmp,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(
            f"{workload}: child killed after {CHILD_TIMEOUT_S} s"
        ) from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run's dir is still there
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(
            f"{workload}: child exited with status {proc.returncode}"
        )
    sample = dict(json.loads(lines[-1]))
    sample["setup_s"] = sample["t_call"] - launched
    return sample


def _check(run: WorkloadRun, sample: Dict[str, Any]) -> None:
    """Count ``sample``'s items and those whose outputs are wrong."""
    if sample["error"] is not None:
        items = int(sample["items"])
        run.attempted += items
        run.failed += items
        run.problems.append(sample["error"].strip().splitlines()[-1])
        return
    outcome = sample["outcome"]
    fingerprints: Dict[str, str] = outcome["fingerprints"]
    if run.reference is None:
        run.reference = dict(fingerprints)
    bad = dict(outcome["problems"])
    for key in set(run.reference) | set(fingerprints):
        want, got = run.reference.get(key), fingerprints.get(key)
        if want != got:
            bad.setdefault(key, f"fingerprint {got} != {want}")
    run.attempted += outcome["items"]
    run.failed += sum(outcome["weights"].get(key, 1) for key in bad)
    run.problems += [f"{key}: {why}" for key, why in sorted(bad.items())]


def measure(
    workload: str,
    seed: int = DEFAULT_SEED,
    *,
    runs: int = 5,
    seconds: Optional[float] = None,
    trace: Optional[int] = None,
    scale: float = 1.0,
    expected: Optional[Dict[str, Any]] = None,
) -> WorkloadRun:
    """Measure one workload (see the module docstring for the modes)."""
    run = WorkloadRun(workload, seed)
    if (
        expected
        and expected.get("seed") == seed
        and expected.get("scale") == scale
        and workload in expected.get("workloads", {})
    ):
        run.reference = dict(expected["workloads"][workload])
        run.checked_expected = True
    step = (False, True) if trace == 1 else (False,)
    min_steps = 1 if trace == 1 else 3
    started = time.monotonic()
    durations: List[float] = []

    def execute(layers: bool) -> None:
        sample = _launch(workload, seed, scale, layers)
        if layers:
            sample["plain_wall_s"] = run.plain[-1]["wall_s"]
        (run.timed if layers else run.plain).append(sample)
        _check(run, sample)

    while True:
        step_start = time.monotonic()
        for layers in step:
            execute(layers)
        durations.append(time.monotonic() - step_start)
        if seconds is None:
            if len(durations) >= runs:
                break
        elif len(durations) >= min_steps and (
            time.monotonic() - started + statistics.median(durations)
            > seconds
        ):
            break
    if trace is None:
        execute(True)
    return run


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def report(run: WorkloadRun) -> str:
    """The human-readable block for one workload."""
    kind = "cells" if run.name.startswith("sweep") else "requests"
    lines = [
        f"{run.name}: seed {run.seed}, {len(run.plain)} plain + "
        f"{len(run.timed)} layer-timed runs, {run.items()} {kind} per run",
        f"  fail_rate {run.failed}/{run.attempted}; fingerprints "
        f"{run.fingerprint()} "
        + (
            "checked against expected.json"
            if run.checked_expected
            else "compared across runs only"
        ),
    ]
    lines += [f"  FAILED {problem}" for problem in run.problems[:20]]
    lines.append(
        f"  {'metric':<14}{'unit':<6}{'median':>14}{'q1':>14}"
        f"{'q3':>14}{'n':>4}"
    )
    values = run.end_to_end()
    for name, unit in END_TO_END:
        q1, q3 = _quartiles(values[name])
        lines.append(
            f"  {name:<14}{unit:<6}"
            f"{statistics.median(values[name]):>14.4f}"
            f"{q1:>14.4f}{q3:>14.4f}{len(values[name]):>4}"
        )
    if run.timed:
        metrics = run.per_layer()
        lines.append(
            f"  layer-timed: wall {statistics.median(s['wall_s'] for s in run.timed):.2f} s, "
            f"coverage {metrics['layers.coverage']:.2%}, "
            f"overhead {metrics['layers.overhead']:+.1%}"
        )
        lines.append(f"  {'layer':<18}{'self_s':>10}{'share':>9}{'calls':>10}")
        for layer in sorted(
            LAYER_NAMES, key=lambda n: -metrics[f"{n}.self_s"]
        ):
            if metrics[f"{layer}.calls"]:
                lines.append(
                    f"  {layer:<18}{metrics[layer + '.self_s']:>10.3f}"
                    f"{metrics[layer + '.share']:>9.1%}"
                    f"{metrics[layer + '.calls']:>10.0f}"
                )
    counters = run.counters()
    lines.append(
        "  counters: "
        + ", ".join(
            f"{name} {counters[name]:g} {unit}"
            for name, unit in COUNTERS
            if counters[name]
        )
    )
    return "\n".join(lines)


def result_line(
    runs: Sequence[WorkloadRun], trace: Optional[int]
) -> Dict[str, Any]:
    """The final JSON object; metric names gain ``@workload`` when
    several workloads ran."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        suffix = f"@{run.name}" if len(runs) > 1 else ""
        if trace != 1:
            values = run.end_to_end()
            for name, unit in END_TO_END:
                metrics[name + suffix] = {
                    "value": statistics.median(values[name]),
                    "unit": unit,
                }
        if trace != 0:
            layer_values = run.per_layer()
            for name, unit in PER_LAYER:
                metrics[name + suffix] = {
                    "value": layer_values[name],
                    "unit": unit,
                }
    failed = sum(run.failed for run in runs)
    return {
        "correct": failed == 0,
        "attempted": sum(run.attempted for run in runs),
        "failed": failed,
        "metrics": metrics,
    }


def _pooled(sets: Sequence[WorkloadRun]) -> WorkloadRun:
    first = sets[0]
    return WorkloadRun(
        first.name,
        first.seed,
        plain=[s for run in sets for s in run.plain],
        timed=[s for run in sets for s in run.timed],
        reference=first.reference,
        checked_expected=first.checked_expected,
        attempted=sum(run.attempted for run in sets),
        failed=sum(run.failed for run in sets),
        problems=[p for run in sets for p in run.problems],
    )


def compare_sets(sets: Sequence[WorkloadRun]) -> Tuple[bool, str]:
    """Do the sets agree within BENCHMARK.json's bounds, with identical
    fingerprints and counters?  ``(agree, table)``."""
    bounds = {
        entry["name"]: float(entry["bound"])
        for entry in json.loads(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
        )["end_to_end"]
    }
    agree = True
    lines = [f"{sets[0].name}: {len(sets)} sets"]
    for name, unit in END_TO_END:
        medians = [statistics.median(run.end_to_end()[name]) for run in sets]
        spread = (max(medians) - min(medians)) / medians[0]
        ok = spread <= bounds[name]
        agree &= ok
        lines.append(
            f"  {name:<14}{unit:<6} medians "
            + " ".join(f"{m:.4f}" for m in medians)
            + f"  spread {spread:.1%} (bound {bounds[name]:.0%})"
            + ("" if ok else "  DISAGREE")
        )
    same = all(
        run.reference == sets[0].reference
        and run.counters() == sets[0].counters()
        for run in sets
    )
    agree &= same
    lines.append(
        "  fingerprints and counters "
        + ("identical" if same else "DIFFER")
    )
    return agree, "\n".join(lines)


def run_benchmark(
    workloads: Sequence[str],
    seed: int = DEFAULT_SEED,
    *,
    runs: int = 5,
    seconds: Optional[float] = None,
    trace: Optional[int] = None,
    scale: float = 1.0,
    sets: int = 1,
    expected: Optional[Dict[str, Any]] = None,
    write_expected: bool = False,
) -> int:
    """Measure, print the report and the JSON line; the exit status."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if write_expected and (seed, scale) != (DEFAULT_SEED, 1.0):
        print("error: expected.json is for the default seed at full size",
              file=sys.stderr)
        return 2
    if expected is None and not write_expected:
        expected = load_expected()
    measured: Dict[str, List[WorkloadRun]] = {name: [] for name in workloads}
    status = 0
    try:
        for _ in range(sets):
            for name in workloads:
                run = measure(
                    name,
                    seed,
                    runs=runs,
                    seconds=seconds,
                    trace=trace,
                    scale=scale,
                    expected=expected,
                )
                print(report(run), flush=True)
                measured[name].append(run)
        if sets > 1:
            for name in workloads:
                agree, table = compare_sets(measured[name])
                print(table)
                status = status if agree else 1
        pooled = [_pooled(measured[name]) for name in workloads]
        line = result_line(pooled, trace)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if write_expected and line["correct"]:
        data = load_expected() or {
            "seed": DEFAULT_SEED, "scale": 1.0, "workloads": {}
        }
        for run in pooled:
            data["workloads"][run.name] = dict(sorted(run.reference.items()))
        EXPECTED_PATH.write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {EXPECTED_PATH}")
    print(json.dumps(line, sort_keys=True))
    return status if line["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=WORKLOAD_NAMES,
        help="measure one workload (default: all, in order)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--runs", type=int, default=5, help="runs per workload (default 5)"
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="repeat runs for about this long per workload instead",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=None,
        help="0: plain runs only; 1: layer-timed runs only (default: both)",
    )
    parser.add_argument(
        "--sets",
        type=int,
        default=1,
        help="repeat the whole measurement and check the sets agree",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink frames and ticks for a smoke run (fingerprints are "
        "checked against expected.json only at 1.0)",
    )
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="record this run's fingerprints in expected.json",
    )
    args = parser.parse_args(argv)
    if args.runs < 1 or args.sets < 1:
        parser.error("--runs and --sets must be at least 1")
    return run_benchmark(
        [args.workload] if args.workload else list(WORKLOAD_NAMES),
        args.seed,
        runs=args.runs,
        seconds=args.seconds,
        trace=args.trace,
        scale=args.scale,
        sets=args.sets,
        write_expected=args.write_expected,
    )


if __name__ == "__main__":
    raise SystemExit(main())
