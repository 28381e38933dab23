"""The benchmark's five workloads.

Each workload turns ``(seed, scale, tmp)`` into a :class:`Prepared`:
the inputs, one zero-argument call into a public ``repro`` entry point
(the timed region), and a digest of that call's outputs.  The digest
is taken after timing; it fingerprints every output item, checks
invariants that hold for any seed, and reads the deterministic
counters.

Sizes are fixed (``scale`` only shrinks them for smoke tests), so two
commits measured on the same seed do identical work.  All workloads
run in one process with no threads, jobs=1 and no result cache.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(name, why)`` in run order; mirrors BENCHMARK.json.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "sweep-fig7",
        "The paper's Figure 7 grid (101 cells, batch, one client): "
        "planning and span replay dominate, library and workload "
        "build barely run.",
    ),
    (
        "sweep-prefetch",
        "PREFETCH on h264 and on adversarial phases: the speculative "
        "port lane and double planning, the slowest scheduler path.",
    ),
    (
        "sweep-traced",
        "HEF and SJF with every event recorded and exported as JSON: "
        "the only workload where the obs layer runs.",
    ),
    (
        "service-soak",
        "Open-loop overload soak with journal and snapshots: 99% "
        "answer-memo hits, so the arbiter loop, journal and snapshots "
        "dominate and cells barely run.",
    ),
    (
        "service-miss",
        "Open-loop service where answers almost never repeat: every "
        "request executes a cell, so library and workload build "
        "dominate and the event loop barely runs.",
    ),
)

WORKLOAD_NAMES: Tuple[str, ...] = tuple(name for name, _ in WORKLOADS)

#: Deterministic counters every run reports, with their units.  Each
#: is 0 on workloads that do not exercise it.
COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("sim.cycles", "cycles"),
    ("sim.loads_started", "count"),
    ("sim.evictions", "count"),
    ("sim.bus_busy_cycles", "cycles"),
    ("prefetch.issued", "count"),
    ("prefetch.hits", "count"),
    ("prefetch.hit_ratio", "fraction"),
    ("obs.events", "count"),
    ("service.submitted", "count"),
    ("service.latency_samples", "count"),
    ("service.memo_hit_ratio", "fraction"),
    ("service.preemptions", "count"),
    ("service.degraded", "count"),
    ("service.breaker_trips", "count"),
    ("service.journal_bytes", "bytes"),
    ("service.p50_ticks", "ticks"),
    ("service.p99_ticks", "ticks"),
    ("service.shed_rate", "fraction"),
)

# Full-scale sizes.  One pass over all five takes about 20 s on a
# 2-vCPU x86-64 VM, each workload at least 3 s.
FIG7_FRAMES = 6
PREFETCH_FRAMES = 24
PREFETCH_ACS = (4, 6, 8, 10, 12, 16, 20)
TRACED_FRAMES = 12
TRACED_ACS = tuple(range(4, 25, 2))
SOAK_TICKS = 200_000
SOAK_SNAPSHOT_EVERY = 25_000
MISS_TICKS = 100_000


@dataclass
class Outcome:
    """What one execution produced, reduced to comparable values."""

    #: Output items attempted: sweep cells, or service requests.
    items: int
    #: One fingerprint per sweep cell (with its event log, if traced)
    #: or per service tenant.
    fingerprints: Dict[str, str]
    #: How many items each fingerprint covers.
    weights: Dict[str, int]
    #: Fingerprint keys whose outputs broke an invariant, with why.
    problems: Dict[str, str]
    counters: Dict[str, float]


@dataclass
class Prepared:
    """A workload's inputs, its timed call and its digest."""

    call: Callable[[], Any]
    digest: Callable[[Any], Outcome]
    #: Items the call will attempt, when known before it runs.
    items: int = 1


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _scaled(value: int, scale: float) -> int:
    return max(1, round(value * scale))


def _counters(values: Dict[str, float]) -> Dict[str, float]:
    counters: Dict[str, float] = {name: 0 for name, _ in COUNTERS}
    unknown = set(values) - set(counters)
    if unknown:
        raise KeyError(f"unknown counters {sorted(unknown)}")
    counters.update(values)
    return counters


# -- sweeps -----------------------------------------------------------------


def _cell_key(cell: Any) -> str:
    key = cell.label
    if cell.workload.generator != "h264":
        key += f"/{cell.workload.generator}"
    return key


def _sweep_digest(
    cells: List[Any], traces: Dict[str, Any], report: Any
) -> Outcome:
    """Fingerprint every cell and its event log; check cell invariants.

    A traced cell's event log must replay, through the independent
    interpreter in ``repro.obs.replay``, to the cycle total the run
    reported.
    """
    from repro.obs.replay import replay_total_cycles

    fingerprints: Dict[str, str] = {}
    weights: Dict[str, int] = {}
    problems: Dict[str, str] = {}
    results = report.results
    if len(results) != len(cells):
        problems["cells"] = f"{len(results)} results for {len(cells)} cells"
    events = 0
    for cell, result in zip(cells, results):
        key = _cell_key(cell)
        payload = json.dumps(result.to_json_dict(), sort_keys=True).encode()
        if key in traces:
            payload += b"\n" + traces[key][0].read_bytes()
        fingerprints[key] = _sha(payload)
        weights[key] = 1
        if sum(result.per_frame_cycles) != result.total_cycles:
            problems[key] = "per-frame cycles do not sum to the total"
        elif result.loads_completed > result.loads_started:
            problems[key] = "more loads completed than started"
        elif result.prefetch_issued != (
            result.prefetch_hits + result.prefetch_wasted
        ):
            problems[key] = "prefetch issued != hits + wasted"
        if key not in traces:
            continue
        recorded = traces[key][1]
        events += len(recorded)
        replayed = replay_total_cycles(recorded, cell.workload.build())
        if replayed != result.total_cycles:
            problems[key] = (
                f"event log replays to {replayed} cycles, the run "
                f"reported {result.total_cycles}"
            )
    issued = sum(r.prefetch_issued for r in results)
    hits = sum(r.prefetch_hits for r in results)
    return Outcome(
        items=len(cells),
        fingerprints=fingerprints,
        weights=weights,
        problems=problems,
        counters=_counters(
            {
                "sim.cycles": sum(r.total_cycles for r in results),
                "sim.loads_started": sum(r.loads_started for r in results),
                "sim.evictions": sum(r.evictions for r in results),
                "sim.bus_busy_cycles": sum(
                    r.bus_busy_cycles for r in results
                ),
                "prefetch.issued": issued,
                "prefetch.hits": hits,
                "prefetch.hit_ratio": hits / issued if issued else 0.0,
                "obs.events": events,
            }
        ),
    )


def _sweep(
    cells: List[Any], traces: Optional[Dict[str, Any]] = None, **kwargs: Any
) -> Prepared:
    import repro.exec.runner

    # Entry points are looked up at call time, so the layer-timed run
    # sees the wrapped binding.
    return Prepared(
        call=lambda: repro.exec.runner.run_sweep(
            cells, jobs=1, cache=None, **kwargs
        ),
        digest=functools.partial(
            _sweep_digest, cells, {} if traces is None else traces
        ),
        items=len(cells),
    )


def sweep_fig7(seed: int, scale: float, tmp: Path) -> Prepared:
    from repro.analysis.experiments import ExperimentScale, fig7_spec

    spec = fig7_spec(
        ExperimentScale(frames=_scaled(FIG7_FRAMES, scale), seed=seed)
    )
    return _sweep(spec.cells())


def sweep_prefetch(seed: int, scale: float, tmp: Path) -> Prepared:
    from repro.exec.spec import SweepSpec, WorkloadSpec

    frames = _scaled(PREFETCH_FRAMES, scale)
    cells: List[Any] = []
    for workload in (
        WorkloadSpec(frames=frames, seed=seed),
        WorkloadSpec(
            frames=frames, seed=seed, generator="adversarial", flip_rate=0.5
        ),
    ):
        cells += SweepSpec(
            schedulers=("PREFETCH",), ac_counts=PREFETCH_ACS, workload=workload
        ).cells()
    return _sweep(cells)


def sweep_traced(seed: int, scale: float, tmp: Path) -> Prepared:
    import repro.obs.export
    from repro.exec.spec import SweepSpec, WorkloadSpec
    from repro.obs.tracer import RecordingTracer

    cells = SweepSpec(
        schedulers=("HEF", "SJF"),
        ac_counts=TRACED_ACS,
        workload=WorkloadSpec(frames=_scaled(TRACED_FRAMES, scale), seed=seed),
    ).cells()
    traces: Dict[str, Any] = {}

    def on_trace(cell: Any, tracer: Any) -> None:
        path = tmp / f"{cell.scheduler}-{cell.num_acs}.json"
        repro.obs.export.export_events(tracer.events, path, "json")
        traces[_cell_key(cell)] = (path, tracer.events)

    return _sweep(
        cells,
        traces,
        tracer_factory=lambda cell: RecordingTracer(),
        on_trace=on_trace,
    )


# -- service ----------------------------------------------------------------


def _service_digest(journal: Optional[Path], report: Any) -> Outcome:
    """Fingerprint every tenant's answers; check the never-drop ledger.

    A journal on disk must hash to the digest the run reported.
    """
    data = report.to_json_dict()
    fingerprints: Dict[str, str] = {}
    weights: Dict[str, int] = {}
    problems: Dict[str, str] = {}
    journal_bytes = 0
    journal_ok = True
    if journal is not None:
        raw = journal.read_bytes()
        journal_bytes = len(raw)
        journal_ok = hashlib.sha256(raw).hexdigest() == data["journal_digest"]
    for name, tenant in data["tenants"].items():
        fingerprints[name] = tenant["digest"][:16]
        weights[name] = tenant["submitted"]
        if tenant["submitted"] != (
            tenant["admitted"]
            + tenant["cache_hits"]
            + sum(tenant["shed"].values())
        ):
            problems[name] = "submitted != admitted + memo hits + shed"
        elif tenant["completed"] != tenant["admitted"]:
            problems[name] = "an admitted request was dropped"
        elif not journal_ok:
            problems[name] = "journal bytes do not match its digest"
    submitted = data["submitted"]
    return Outcome(
        items=submitted,
        fingerprints=fingerprints,
        weights=weights,
        problems=problems,
        counters=_counters(
            {
                "service.submitted": submitted,
                "service.latency_samples": len(report.latencies()),
                "service.memo_hit_ratio": (
                    data["cache_hits"] / submitted if submitted else 0.0
                ),
                "service.preemptions": data["preemptions"],
                "service.degraded": data["degraded"],
                "service.breaker_trips": data["breaker_trips"],
                "service.journal_bytes": journal_bytes,
                "service.p50_ticks": data["p50_latency"],
                "service.p99_ticks": data["p99_latency"],
                "service.shed_rate": report.shed_rate,
            }
        ),
    )


def _service(fleet: Any, config: Any, journal: Optional[Path] = None) -> Prepared:
    import repro.service

    return Prepared(
        call=lambda: repro.service.run_service(
            fleet, config=config, cache=None, journal_path=journal
        ),
        digest=functools.partial(_service_digest, journal),
    )


def service_soak(seed: int, scale: float, tmp: Path) -> Prepared:
    from repro.service import ServiceConfig, make_tenant_fleet

    fleet = make_tenant_fleet(8, seed=seed, mean_gap=90, deadline_slack=500)
    config = ServiceConfig(
        num_acs=6,
        duration=_scaled(SOAK_TICKS, scale),
        seed=seed,
        fault_ticks=(1000, 1020, 1040),
        snapshot_every=_scaled(SOAK_SNAPSHOT_EVERY, scale),
    )
    return _service(fleet, config, journal=tmp / "service.jsonl")


def service_miss(seed: int, scale: float, tmp: Path) -> Prepared:
    from repro.service import ServiceConfig, make_tenant_fleet

    fleet = make_tenant_fleet(8, seed=seed, mean_gap=400, variants=100_000)
    config = ServiceConfig(
        num_acs=8, duration=_scaled(MISS_TICKS, scale), seed=seed
    )
    return _service(fleet, config)


PREPARE: Dict[str, Callable[[int, float, Path], Prepared]] = {
    "sweep-fig7": sweep_fig7,
    "sweep-prefetch": sweep_prefetch,
    "sweep-traced": sweep_traced,
    "service-soak": service_soak,
    "service-miss": service_miss,
}
