"""Smoke test of the perf harness: every workload at a tiny size.

Runs each workload once plain and once layer-timed through the
harness's Python API (``run.measure``) and checks what the harness
promises: every metric of BENCHMARK.json is reported with its unit,
the layers cover the timed call, plain runs are unwrapped, and a
wrong fingerprint fails the run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as harness  # noqa: E402
from workloads import WORKLOADS, WORKLOAD_NAMES  # noqa: E402

TINY = 0.05
BENCHMARK = json.loads(
    (HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)


@pytest.fixture(scope="module")
def tiny_runs():
    return {
        name: harness.measure(name, runs=1, scale=TINY)
        for name in WORKLOAD_NAMES
    }


def test_benchmark_json_matches_the_harness():
    assert BENCHMARK["command"] == ["python3", "benchmarks/perf/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == list(
        WORKLOADS
    )
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        harness.PER_LAYER
    )


def test_every_metric_is_reported_with_its_unit(tiny_runs):
    for name, run in tiny_runs.items():
        assert run.failed == 0, (name, run.problems)
        metrics = harness.result_line([run], None)["metrics"]
        for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            assert metrics[entry["name"]]["unit"] == entry["unit"], name
        text = harness.report(run)
        for entry in BENCHMARK["end_to_end"]:
            assert f"{entry['name']:<14}{entry['unit']:<6}" in text


def test_traced_runs_replay_their_event_logs(tiny_runs):
    assert tiny_runs["sweep-traced"].counters()["obs.events"] > 0
    assert tiny_runs["sweep-fig7"].counters()["obs.events"] == 0


def test_layers_cover_the_timed_call(tiny_runs):
    for name, run in tiny_runs.items():
        assert run.per_layer()["layers.coverage"] >= 0.95, name


def test_only_layer_timed_runs_install_wrappers(tiny_runs):
    for run in tiny_runs.values():
        assert [s["wrapped"] for s in run.plain] == [0]
        assert all(s["wrapped"] > 0 for s in run.timed)
        assert all(s["missing"] == [] for s in run.timed)


def test_a_missing_target_is_skipped_with_a_warning(monkeypatch, capsys):
    import layers
    import repro.exec.cache as cache

    monkeypatch.setattr(
        layers,
        "LAYERS",
        (
            ("json.encode", ("repro.exec.cache:canonical_json",)),
            ("gone", ("repro.exec.cache:no_such_function",)),
        ),
    )
    monkeypatch.setattr(layers, "LAYER_NAMES", ("json.encode", "gone"))
    original = cache.canonical_json
    clock = layers.LayerClock()
    try:
        assert clock.install() > 0
        cache.canonical_json({"a": 1})
    finally:
        clock.uninstall()
    assert cache.canonical_json is original
    assert clock.missing == ["repro.exec.cache:no_such_function"]
    assert clock.calls == {"json.encode": 1, "gone": 0}
    assert "not found" in capsys.readouterr().err


def test_cli_prints_the_result_line_last(capsys):
    status = harness.main(
        ["--workload", "service-miss", "--scale", str(TINY), "--runs", "1",
         "--trace", "0"]
    )
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 0
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert sorted(line["metrics"]) == sorted(
        m["name"] for m in BENCHMARK["end_to_end"]
    )


def test_a_tampered_fingerprint_fails_the_run(tiny_runs, capsys):
    reference = dict(tiny_runs["service-miss"].reference)
    expected = {"seed": 2008, "scale": TINY, "workloads": {}}
    expected["workloads"]["service-miss"] = reference
    assert harness.run_benchmark(
        ["service-miss"], runs=1, trace=0, scale=TINY, expected=expected
    ) == 0
    tenant = sorted(reference)[0]
    reference[tenant] = "0" * 16
    status = harness.run_benchmark(
        ["service-miss"], runs=1, trace=0, scale=TINY, expected=expected
    )
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1
    assert not line["correct"] and line["failed"] > 0


def test_harness_sources_never_name_the_replay_knob():
    knob = "eng" + "ine"
    for path in sorted(HERE.iterdir()):
        if path.is_file() and path.suffix in (".py", ".md", ".json"):
            text = path.read_text(encoding="utf-8").lower()
            assert knob not in text, path.name
