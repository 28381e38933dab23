"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro table1            # SI inventory (Table 1)
    python -m repro table2            # speedup table (Table 2)
    python -m repro table3            # scheduler hardware (Table 3)
    python -m repro fig2              # upgrade motivation (Figure 2)
    python -m repro fig4              # schedule example (Figure 4)
    python -m repro fig7              # scheduler sweep (Figure 7)
    python -m repro fig8              # HEF detail (Figure 8)
    python -m repro all               # everything above (paper experiments)

    python -m repro simulate          # one run, fault injection optional
    python -m repro sweep             # AC sweep, fault injection optional

    python -m repro lint              # static-analysis gate (RL001-RL007)
    python -m repro serve             # multi-tenant fabric service soak

``serve`` runs the multi-tenant fabric arbitration service
(:mod:`repro.service`): a synthetic tenant fleet submits deadline-tagged
hot-spot requests into a deterministic virtual-clock arbiter with
admission control, overload shedding, priority preemption and
circuit-breaker degradation.  It has its own flag set (``--tenants``,
``--duration``, ``--service-acs``, ``--kills``, ``--journal``, ...) —
see ``python -m repro serve --help``.  Two invocations with identical
flags and a cold cache produce bit-identical journals and digests.

``lint`` is the repository's AST-based invariant analyzer
(:mod:`repro.lint`): determinism, tracer guards, hygiene, event-schema
drift and division-free HEF comparisons.  It takes its own flags
(``--format json``, ``--select``, ``--write-fingerprint``, ...) — see
``python -m repro lint --help`` — and exits nonzero on findings.

The ``simulate`` and ``sweep`` commands accept ``--fault-rate``,
``--fault-seed`` and ``--max-retries`` to exercise the fabric's
fault-injection and graceful-degradation path; their reports include the
fault/retry counters.

Sweep-shaped commands (``sweep``, ``fig2``, ``fig7``, ``fig8``,
``table2``) execute through the sweep engine: ``--jobs N`` runs the
cells on N long-lived worker processes, ``--cache-dir PATH`` enables the
content-addressed result cache (repeated or resumed invocations skip
completed cells), and ``--no-cache`` forces fresh simulation.  Parallel
results are bit-identical to serial ones.

``sweep`` additionally supports *supervised* execution
(:mod:`repro.exec.supervise`): ``--timeout SECONDS`` kills and retries
cells that hang, ``--max-attempts N`` bounds the retries before a cell
is quarantined, ``--journal PATH`` appends a JSONL journal of cell
outcomes, ``--resume JOURNAL`` replays a killed/interrupted sweep
bit-identically and re-runs only what is missing, and ``--chaos SPEC``
injects worker failures for testing (``<label-glob>:<mode>[:<attempts>]``
with modes ``hang``/``crash``/``raise``).  Supervised exit codes: ``0``
clean, ``1`` error, ``3`` completed with quarantined cells, ``4``
interrupted (SIGINT/SIGTERM) after draining in-flight cells.

The environment variables ``REPRO_FRAMES`` (workload frames; default 40,
paper 140), ``REPRO_JOBS`` (default worker count),
``REPRO_CACHE_DIR`` (default cache location), ``REPRO_TIMEOUT`` /
``REPRO_MAX_ATTEMPTS`` (supervision for any sweep-shaped command,
including the figure drivers) and ``REPRO_CHAOS`` (chaos spec)
configure the same knobs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .analysis import (
    ascii_plot_fig7,
    format_fig7_table,
    format_figure2,
    format_figure4,
    format_figure8,
    format_table1,
    format_table2,
    format_table3,
    run_figure2,
    run_figure4,
    run_figure7,
    run_figure8,
)
from .analysis.experiments import ExperimentScale, default_scale
from .core.schedulers import available_schedulers, get_scheduler
from .exec import (
    ResultCache,
    SupervisorPolicy,
    SweepSpec,
    WorkloadSpec,
    cache_from_env,
    chaos_from_env,
    default_jobs,
    parse_chaos_spec,
    policy_from_env,
    run_sweep,
)
from .errors import ObservabilityError, RisppError, ServiceError, SweepError
from .fabric.faults import BernoulliLoadFaults, FaultModel, RetryPolicy
from .h264.silibrary import h264_platform
from .obs import TRACE_FORMATS, RecordingTracer, export_events
from .sim.rispp import RisppSimulator
from .workload.adversarial import generate_adversarial_workload
from .workload.model import generate_workload

__all__ = ["main"]


def _probability(text: str) -> float:
    """argparse type: a float in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be within [0, 1], got {text}"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type: a float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _ac_count_list(text: str) -> List[int]:
    """argparse type: comma-separated positive AC counts."""
    counts = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = int(part)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer AC count: {part!r}"
            )
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"AC count must be >= 0, got {part}"
            )
        counts.append(value)
    if not counts:
        raise argparse.ArgumentTypeError("empty AC-count list")
    return counts


def _engine_setup(args: argparse.Namespace):
    """(jobs, cache) from the CLI flags, falling back to the env."""
    jobs = args.jobs if args.jobs else default_jobs()
    if args.no_cache:
        cache = None
    elif args.cache_dir:
        cache = ResultCache(args.cache_dir)
    else:
        cache = cache_from_env()
    return jobs, cache


def _supervision_setup(args: argparse.Namespace):
    """(policy, journal_path, resume_from, chaos) from flags/env.

    All four are ``None`` when nothing asks for supervision: the sweep
    then runs in-process, or on unsupervised worker slots under
    ``--jobs``.
    """
    chaos = parse_chaos_spec(args.chaos) if args.chaos else chaos_from_env()
    policy: Optional[SupervisorPolicy] = None
    if args.timeout or args.max_attempts:
        policy = SupervisorPolicy(
            timeout=args.timeout if args.timeout else None,
            max_attempts=args.max_attempts if args.max_attempts else 3,
        )
    elif not (args.journal or args.resume):
        policy = policy_from_env()
    return policy, args.journal or None, args.resume or None, chaos or None


def _fault_setup(args: argparse.Namespace):
    """Fault model + retry policy from the CLI flags (None when perfect)."""
    fault_model: Optional[FaultModel] = None
    if args.fault_rate > 0.0:
        fault_model = BernoulliLoadFaults(
            args.fault_rate, seed=args.fault_seed
        )
    retry_policy = RetryPolicy(max_retries=args.max_retries)
    return fault_model, retry_policy


def _fault_report(result) -> str:
    return (
        f"  loads: {result.loads_started} started, "
        f"{result.loads_completed} completed, "
        f"{result.loads_failed} failed, {result.loads_retried} retried, "
        f"{result.loads_abandoned} abandoned\n"
        f"  dead ACs: {result.dead_containers}   "
        f"degraded: {result.degraded_cycles:,} cycles "
        f"({result.degraded_fraction:.1%} of the run)"
    )


def _trace_cell_path(base: str, label: str) -> Path:
    """Per-cell trace path: ``out.json`` -> ``out.<label>.json``."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", label)
    path = Path(base)
    return path.with_name(f"{path.stem}.{slug}{path.suffix or '.json'}")


def _scheduler_kwargs(args: argparse.Namespace) -> dict:
    """Per-scheduler constructor knobs from the CLI namespace."""
    if args.scheduler == "PREFETCH":
        return {
            "confidence": args.prefetch_confidence,
            "budget": args.prefetch_budget,
        }
    return {}


def _build_workload(args: argparse.Namespace, frames: int):
    """The simulate-command workload for the selected generator."""
    if args.workload == "adversarial":
        return generate_adversarial_workload(
            num_phases=frames * 3, seed=2008, flip_rate=args.flip_rate
        )
    return generate_workload(num_frames=frames, seed=2008)


def _cmd_simulate(args: argparse.Namespace) -> str:
    registry, library = h264_platform()
    frames = args.frames if args.frames else default_scale().frames
    workload = _build_workload(args, frames)
    fault_model, retry_policy = _fault_setup(args)
    tracer = RecordingTracer() if args.trace_out else None
    sim = RisppSimulator(
        library,
        registry,
        get_scheduler(args.scheduler, **_scheduler_kwargs(args)),
        args.acs,
        fault_model=fault_model,
        retry_policy=retry_policy,
        tracer=tracer,
    )
    result = sim.run(workload)
    lines = [
        f"Simulation: {result.summary()}",
        f"  workload: {frames} frames, fault rate {args.fault_rate}, "
        f"fault seed {args.fault_seed}, max retries {args.max_retries}",
        _fault_report(result),
    ]
    if result.prefetch_issued:
        lines.append(
            f"  prefetch: {result.prefetch_issued} issued, "
            f"{result.prefetch_hits} hits, {result.prefetch_wasted} "
            f"wasted ({result.prefetch_wasted_bus_cycles} bus cycles)"
        )
    if tracer is not None:
        export_events(list(tracer), args.trace_out, args.trace_format)
        lines.append(
            f"  trace: {len(tracer)} events -> {args.trace_out} "
            f"({args.trace_format})"
        )
    return "\n".join(lines)


def _cmd_sweep(args: argparse.Namespace) -> str:
    frames = args.frames if args.frames else default_scale().frames
    if args.ac_list is not None:
        ac_counts = args.ac_list
    else:
        ac_counts = list(default_scale().ac_counts)
    spec = SweepSpec(
        schedulers=(args.scheduler,),
        ac_counts=tuple(ac_counts),
        workload=WorkloadSpec(
            frames=frames,
            seed=2008,
            generator=args.workload,
            flip_rate=args.flip_rate,
        ),
        fault_rate=args.fault_rate,
        fault_seed=args.fault_seed,
        max_retries=args.max_retries,
        prefetch_confidence=args.prefetch_confidence,
        prefetch_budget=args.prefetch_budget,
    )
    jobs, cache = _engine_setup(args)
    policy, journal_path, resume_from, chaos = _supervision_setup(args)
    trace_lines: List[str] = []

    # Per-cell traces force a serial in-process run (tracers cannot
    # cross process boundaries, and a cache hit would skip events).
    def _tracer_factory(cell):
        return RecordingTracer()

    def _on_trace(cell, tracer):
        path = _trace_cell_path(args.trace_out, cell.label)
        export_events(list(tracer), path, args.trace_format)
        trace_lines.append(
            f"  trace: {len(tracer)} events -> {path} ({args.trace_format})"
        )

    report = run_sweep(
        spec,
        jobs=jobs,
        cache=cache,
        tracer_factory=_tracer_factory if args.trace_out else None,
        on_trace=_on_trace,
        policy=policy,
        journal_path=journal_path,
        resume_from=resume_from,
        chaos=chaos,
        fsync=args.fsync,
    )
    lines = [
        f"AC sweep ({args.scheduler}, {frames} frames, fault rate "
        f"{args.fault_rate}, seed {args.fault_seed}, max retries "
        f"{args.max_retries}, {jobs} jobs, cache "
        f"{'off' if cache is None else cache.root})",
        f"{'ACs':>4s} {'Mcycles':>10s} {'failed':>7s} {'retried':>8s} "
        f"{'abandoned':>10s} {'dead':>5s} {'degraded':>9s} "
        f"{'wall':>9s} {'source':>6s}",
    ]
    for outcome in report:
        result = outcome.result
        lines.append(
            f"{outcome.cell.num_acs:>4d} {result.total_mcycles:>10.2f} "
            f"{result.loads_failed:>7d} {result.loads_retried:>8d} "
            f"{result.loads_abandoned:>10d} {result.dead_containers:>5d} "
            f"{result.degraded_fraction:>9.1%} "
            f"{outcome.wall_time * 1e3:>7.1f}ms "
            f"{'cache' if outcome.cache_hit else 'run':>6s}"
        )
    lines.extend(trace_lines)
    for quarantined in report.quarantined:
        lines.append(
            f"QUARANTINED {quarantined.label}: {quarantined.failure} "
            f"after {quarantined.attempts} attempt(s) — "
            f"{quarantined.message}"
        )
    if report.interrupted:
        lines.append(
            "INTERRUPTED: sweep drained after SIGINT/SIGTERM; "
            "re-run with --resume to finish the remaining cells"
        )
    if journal_path and (report.quarantined or report.interrupted):
        failures_path = Path(str(journal_path) + ".failures.json")
        failures_path.write_text(
            json.dumps(report.failure_report(), indent=1, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        lines.append(f"  failure report -> {failures_path}")
    if report.quarantined:
        args._exit_code = 3
    elif report.interrupted:
        args._exit_code = 4
    lines.append(report.summary())
    return "\n".join(lines)


def _cmd_prefetch(args: argparse.Namespace) -> str:
    from .analysis.experiments import run_prefetch_comparison

    frames = args.frames if args.frames else default_scale().frames
    if args.ac_list is not None:
        ac_counts = tuple(args.ac_list)
    else:
        ac_counts = (4, 6, 10, 16)
    jobs, cache = _engine_setup(args)
    result = run_prefetch_comparison(
        ac_counts=ac_counts,
        scale=ExperimentScale(frames=frames),
        confidence=args.prefetch_confidence,
        budget=args.prefetch_budget,
        workload_generator=args.workload,
        flip_rate=args.flip_rate,
        jobs=jobs,
        cache=cache,
    )
    return result.summary()


def _cmd_table1(args: argparse.Namespace) -> str:
    return format_table1(h264_platform()[1])


def _cmd_table3(args: argparse.Namespace) -> str:
    return format_table3()


def _cmd_fig2(args: argparse.Namespace) -> str:
    jobs, cache = _engine_setup(args)
    return format_figure2(
        run_figure2(num_acs=args.acs, jobs=jobs, cache=cache)
    )


def _cmd_fig4(args: argparse.Namespace) -> str:
    return format_figure4(run_figure4())


def _cmd_fig8(args: argparse.Namespace) -> str:
    jobs, cache = _engine_setup(args)
    return format_figure8(
        run_figure8(num_acs=args.acs, jobs=jobs, cache=cache)
    )


class _SweepCache:
    """Figure 7 feeds both fig7 and table2; run it at most once."""

    def __init__(self) -> None:
        self.result = None

    def get(self, args: argparse.Namespace, progress: bool = True):
        if self.result is None:
            jobs, cache = _engine_setup(args)
            self.result = run_figure7(
                scale=default_scale(), progress=progress,
                jobs=jobs, cache=cache,
            )
        return self.result


_SWEEP = _SweepCache()


def _fig7_footer(result) -> str:
    if result.report is None:
        return ""
    return "\n\nsweep: " + result.report.summary()


def _cmd_fig7(args: argparse.Namespace) -> str:
    result = _SWEEP.get(args)
    return (
        format_fig7_table(result) + "\n\n" + ascii_plot_fig7(result)
        + _fig7_footer(result)
    )


def _cmd_table2(args: argparse.Namespace) -> str:
    return format_table2(_SWEEP.get(args))


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the multi-tenant fabric arbitration service: a "
            "deterministic virtual-clock soak of N tenants sharing the "
            "reconfigurable fabric through admission control, priority "
            "arbitration, overload shedding and circuit-breaker "
            "degradation."
        ),
    )
    parser.add_argument(
        "--tenants",
        type=_non_negative_int,
        default=8,
        help="synthetic fleet size (default 8)",
    )
    parser.add_argument(
        "--duration",
        type=_non_negative_int,
        default=20_000,
        help="virtual ticks of request arrivals (default 20000; the "
        "run then drains every admitted request)",
    )
    parser.add_argument(
        "--service-acs",
        type=_non_negative_int,
        default=8,
        help="Atom Containers of the shared fabric (default 8)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=2008,
        help="service seed: fleet shape, request streams and backoff "
        "jitter (default 2008)",
    )
    parser.add_argument(
        "--mean-gap",
        type=_non_negative_int,
        default=160,
        help="mean per-tenant inter-arrival gap in ticks (default 160; "
        "lower it to push the fleet past fabric capacity)",
    )
    parser.add_argument(
        "--deadline-slack",
        type=_non_negative_int,
        default=600,
        help="request deadline offset in ticks (default 600)",
    )
    parser.add_argument(
        "--variants",
        type=_non_negative_int,
        default=4,
        help="distinct workload variants per tenant (default 4; higher "
        "means fewer repeated requests and fewer cache hits)",
    )
    parser.add_argument(
        "--kills",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="inject N permanent container faults (a fault storm; "
        "default 0)",
    )
    parser.add_argument(
        "--kill-at",
        type=_non_negative_int,
        default=0,
        metavar="TICK",
        help="first fault's tick (default: duration // 4)",
    )
    parser.add_argument(
        "--kill-spacing",
        type=_non_negative_int,
        default=20,
        metavar="TICKS",
        help="gap between storm faults (default 20; keep it inside the "
        "breaker window so the storm actually trips the breaker)",
    )
    parser.add_argument(
        "--journal",
        default="",
        metavar="PATH",
        help="write the canonical JSONL service journal to PATH",
    )
    parser.add_argument(
        "--snapshot-every",
        type=_non_negative_int,
        default=0,
        metavar="TICKS",
        help="write a recovery snapshot every N virtual ticks "
        "(sidecar files under <journal>.snap/; default 0 = disabled; "
        "needs --journal)",
    )
    parser.add_argument(
        "--recover",
        action="store_true",
        help="resume a crashed run from --journal (and its snapshots) "
        "instead of starting fresh; every other flag must match the "
        "crashed invocation",
    )
    parser.add_argument(
        "--fsync",
        action="store_true",
        help="fsync every journal line and snapshot to stable storage "
        "(survives power loss, not just process death)",
    )
    parser.add_argument(
        "--reconfig-at",
        action="append",
        default=[],
        metavar="TICK:ACTION[:ARG]",
        help="schedule a live reconfiguration (repeatable): "
        "TICK:tenant_join:NAME, TICK:tenant_leave:NAME, "
        "TICK:ac_add[:COUNT], TICK:ac_remove[:COUNT]",
    )
    parser.add_argument(
        "--chaos-kill-at",
        type=_non_negative_int,
        default=0,
        metavar="TICK",
        help="chaos harness: SIGKILL the process just before the first "
        "event at or after TICK (0 = disabled; recover afterwards "
        "with --recover)",
    )
    parser.add_argument(
        "--report-json",
        default="",
        metavar="PATH",
        help="write the full structured report (per-tenant stats, shed "
        "taxonomy, digests) as JSON to PATH",
    )
    parser.add_argument(
        "--cache-dir",
        default="",
        help="content-addressed result cache directory (default: "
        "REPRO_CACHE_DIR; a warm cache turns repeats into "
        "admission-free hits)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore any configured result cache (in-run answer reuse "
        "still applies)",
    )
    parser.add_argument(
        "--digest-only",
        action="store_true",
        help="print only the service digest (for determinism checks)",
    )
    return parser


def serve_main(argv: List[str]) -> int:
    """``repro serve``: run the fabric service and report; exit 0/1."""
    import dataclasses as _dataclasses

    from .obs.metrics import MetricsRegistry
    from .service import (
        ServiceConfig,
        derive_join_tenant,
        make_tenant_fleet,
        parse_reconfig_spec,
        recover_service,
        run_service,
    )

    args = _serve_parser().parse_args(argv)
    if args.no_cache:
        cache = None
    elif args.cache_dir:
        cache = ResultCache(args.cache_dir)
    else:
        cache = cache_from_env()
    kill_at = args.kill_at if args.kill_at else args.duration // 4
    fault_ticks = tuple(
        kill_at + index * args.kill_spacing for index in range(args.kills)
    )
    metrics = MetricsRegistry()
    try:
        if (args.recover or args.chaos_kill_at) and not args.journal:
            raise ServiceError(
                "--recover and --chaos-kill-at need --journal"
            )
        control_events = []
        for text in args.reconfig_at:
            event = parse_reconfig_spec(text)
            if event.action == "tenant_join":
                event = _dataclasses.replace(
                    event,
                    spec=derive_join_tenant(event.name, args.seed),
                )
            control_events.append(event)
        fleet = make_tenant_fleet(
            args.tenants,
            seed=args.seed,
            mean_gap=args.mean_gap,
            deadline_slack=args.deadline_slack,
            variants=args.variants,
        )
        config = ServiceConfig(
            num_acs=args.service_acs,
            duration=args.duration,
            seed=args.seed,
            fault_ticks=fault_ticks,
            snapshot_every=args.snapshot_every,
        )
        if args.recover:
            report = recover_service(
                fleet,
                config,
                cache=cache,
                metrics=metrics,
                journal_path=args.journal,
                control_events=control_events,
                fsync=args.fsync,
            )
        else:
            report = run_service(
                fleet,
                config,
                cache=cache,
                metrics=metrics,
                journal_path=args.journal or None,
                control_events=control_events,
                crash_at_tick=args.chaos_kill_at or None,
                fsync=args.fsync,
            )
    except RisppError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.digest_only:
        print(report.service_digest())
    else:
        print(report.summary())
        if args.journal:
            print(f"  journal -> {args.journal}")
    if args.report_json:
        Path(args.report_json).write_text(
            json.dumps(report.to_json_dict(), indent=1, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        if not args.digest_only:
            print(f"  report -> {args.report_json}")
    return 0


_COMMANDS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "fig2": _cmd_fig2,
    "fig4": _cmd_fig4,
    "fig7": _cmd_fig7,
    "fig8": _cmd_fig8,
}

#: Commands outside the paper-reproduction set; not part of ``all``.
_EXTRA_COMMANDS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "prefetch": _cmd_prefetch,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the tables and figures of 'Run-time System for "
            "an Extensible Embedded Processor with Dynamic Instruction "
            "Set' (DATE 2008)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(_COMMANDS) + sorted(_EXTRA_COMMANDS) + ["all"],
        help="which experiments to regenerate",
    )
    parser.add_argument(
        "--acs",
        type=_non_negative_int,
        default=10,
        help="Atom-Container count for fig2/fig8/simulate (default 10)",
    )
    parser.add_argument(
        "--scheduler",
        default="HEF",
        choices=sorted(available_schedulers()),
        help="atom scheduler for simulate/sweep (default HEF)",
    )
    parser.add_argument(
        "--frames",
        type=_non_negative_int,
        default=0,
        help="workload frames for simulate/sweep (default: REPRO_FRAMES)",
    )
    parser.add_argument(
        "--ac-list",
        type=_ac_count_list,
        default=None,
        help="comma-separated AC counts for sweep (default: paper sweep)",
    )
    parser.add_argument(
        "--jobs",
        type=_non_negative_int,
        default=0,
        help="worker processes for sweep-shaped commands "
        "(default: REPRO_JOBS or 1; parallel runs are bit-identical "
        "to serial ones)",
    )
    parser.add_argument(
        "--cache-dir",
        default="",
        help="content-addressed result cache directory (default: "
        "REPRO_CACHE_DIR; repeated sweeps skip completed cells)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore any configured result cache and simulate fresh",
    )
    parser.add_argument(
        "--trace-out",
        default="",
        metavar="PATH",
        help="write a run trace for simulate/sweep; sweep writes one "
        "file per cell (PATH gets a cell-label suffix) and runs "
        "serially in-process",
    )
    parser.add_argument(
        "--trace-format",
        default="json",
        choices=TRACE_FORMATS,
        help="trace output format: versioned JSON event log, Chrome "
        "trace-event JSON (chrome://tracing / Perfetto), or a plain-"
        "text timeline (default json)",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=0.0,
        metavar="SECONDS",
        help="supervised sweep: per-cell wall-clock budget; a cell past "
        "its deadline is killed and retried (default: REPRO_TIMEOUT "
        "or none)",
    )
    parser.add_argument(
        "--max-attempts",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="supervised sweep: attempts per cell before quarantine "
        "(default: REPRO_MAX_ATTEMPTS or 3)",
    )
    parser.add_argument(
        "--journal",
        default="",
        metavar="PATH",
        help="supervised sweep: append a JSONL journal of cell outcomes "
        "(feeds --resume; failures also land in PATH.failures.json)",
    )
    parser.add_argument(
        "--resume",
        default="",
        metavar="JOURNAL",
        help="supervised sweep: replay completed cells from a previous "
        "journal bit-identically and run only what is missing",
    )
    parser.add_argument(
        "--fsync",
        action="store_true",
        help="supervised sweep: fsync every journal commit line "
        "(completed/quarantined/interrupted) to stable storage",
    )
    parser.add_argument(
        "--chaos",
        default="",
        metavar="SPEC",
        help="supervised sweep: inject worker failures for testing — "
        "comma-separated '<label-glob>:<mode>[:<attempts>]' with modes "
        "hang/crash/raise (default: REPRO_CHAOS)",
    )
    parser.add_argument(
        "--prefetch-confidence",
        type=_probability,
        default=0.6,
        help="PREFETCH scheduler: transition-predictor confidence "
        "required before speculating; 0 disables speculation and makes "
        "PREFETCH behave exactly like HEF (default 0.6)",
    )
    parser.add_argument(
        "--prefetch-budget",
        type=_non_negative_int,
        default=4,
        help="PREFETCH scheduler: maximum speculative atom loads per "
        "hot spot; 0 disables speculation (default 4)",
    )
    parser.add_argument(
        "--workload",
        default="h264",
        choices=("h264", "adversarial"),
        help="trace generator for simulate/sweep: the calibrated H.264 "
        "model, or seeded phase-misprediction traces that stress the "
        "PREFETCH transition predictor (default h264)",
    )
    parser.add_argument(
        "--flip-rate",
        type=_probability,
        default=0.25,
        help="adversarial workload: per-phase probability that the next "
        "hot spot deviates from the dominant ME->EE->LF cycle "
        "(default 0.25)",
    )
    parser.add_argument(
        "--fault-rate",
        type=_probability,
        default=0.0,
        help="transient bitstream-load failure probability (default 0)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=2008,
        help="seed of the fault schedule (default 2008)",
    )
    parser.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=3,
        help="retry budget per failed load (default 3)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # The lint gate has its own flag set and exit-code contract;
        # dispatch before the experiment parser sees the arguments.
        from .lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "serve":
        # Same early dispatch for the fabric service: its flag set is
        # disjoint from the experiment commands.
        return serve_main(argv[1:])
    args = build_parser().parse_args(argv)
    names: List[str] = []
    for name in args.experiments:
        if name == "all":
            names.extend(sorted(_COMMANDS))
        else:
            names.append(name)
    seen = set()
    for name in names:
        if name in seen:
            continue
        seen.add(name)
        command = _COMMANDS.get(name) or _EXTRA_COMMANDS[name]
        try:
            print(command(args))
        except (ObservabilityError, SweepError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print()
    # Supervised sweeps flag degraded-but-successful completion through
    # the namespace: 3 = quarantined cells present, 4 = interrupted.
    return getattr(args, "_exit_code", 0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
