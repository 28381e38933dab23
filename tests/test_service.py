"""Multi-tenant fabric arbitration service (:mod:`repro.service`).

Unit tests for the building blocks (tenant specs, token bucket, circuit
breaker, admission gates, AC lease ledger, leased planning,
cache read-through) plus integration tests of the arbiter: overload
shedding taxonomy, the never-drop invariant, priority preemption,
degraded service under fault storms, answer reuse, and bit-identical
determinism of reruns — the overload soak of ISSUE 6's acceptance
criteria.
"""

from __future__ import annotations

import filecmp
import json

import pytest

from repro.core.runtime import RuntimeManager
from repro.core.schedulers import get_scheduler
from repro.errors import CapacityError, FabricError, ServiceError
from repro.exec.cache import ResultCache
from repro.exec.spec import WorkloadSpec
from repro.h264.silibrary import HOT_SPOT_SIS
from repro.obs import RecordingTracer
from repro.obs.events import (
    BreakerTransition,
    DegradedServed,
    RequestCompleted,
    RequestShed,
)
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    PRIORITY_CLASSES,
    SHED_REASONS,
    AdmissionController,
    CircuitBreaker,
    ServiceConfig,
    TenantSpec,
    TokenBucket,
    generate_requests,
    make_tenant_fleet,
    run_service,
)
from repro.service.state import LeaseLedger


def small_fleet(num=8, mean_gap=60, deadline_slack=400):
    """An overloaded fleet: ~2x the 6-AC fabric's service capacity."""
    return make_tenant_fleet(
        num, mean_gap=mean_gap, deadline_slack=deadline_slack
    )


# -- tenant specs ----------------------------------------------------------


class TestTenantSpec:
    def test_fleet_is_deterministic(self):
        assert make_tenant_fleet(4) == make_tenant_fleet(4)

    def test_fleet_mixes_priorities(self):
        fleet = make_tenant_fleet(8)
        assert {t.priority for t in fleet} == set(PRIORITY_CLASSES)

    def test_priority_rank_orders_classes(self):
        spec = lambda p: TenantSpec(  # noqa: E731
            name="t", workload=WorkloadSpec(frames=1), priority=p
        )
        ranks = [spec(p).priority_rank for p in PRIORITY_CLASSES]
        assert ranks == sorted(ranks)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"priority": "platinum"},
            {"lease_acs": -1},
            {"lease_acs": 4, "atom_budget": 3},
            {"max_in_flight": 0},
            {"rate_interval": 0},
            {"burst": 0},
            {"mean_gap": 0},
            {"deadline_slack": 0},
            {"hot_spots": ()},
            {"variants": 0},
        ],
    )
    def test_malformed_spec_rejected(self, kwargs):
        base = dict(name="t0", workload=WorkloadSpec(frames=1))
        base.update(kwargs)
        with pytest.raises(ServiceError):
            TenantSpec(**base)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ServiceError):
            make_tenant_fleet(0)


# -- request generation ----------------------------------------------------


class TestRequestStream:
    def test_stream_is_deterministic(self):
        fleet = small_fleet(4)
        assert generate_requests(fleet, 2000, 7) == (
            generate_requests(fleet, 2000, 7)
        )

    def test_adding_a_tenant_preserves_other_streams(self):
        fleet = small_fleet(4)
        bigger = small_fleet(5)
        base = generate_requests(fleet, 2000, 7)
        grown = generate_requests(bigger, 2000, 7)

        def key(r):
            return (r.tenant, r.request_id, r.arrival, r.hot_spot)

        old = {key(r) for r in base}
        new = {
            key(r) for r in grown if r.tenant != bigger[4].name
        }
        assert old == new

    def test_global_seq_is_arrival_ordered(self):
        requests = generate_requests(small_fleet(4), 2000, 7)
        arrivals = [r.arrival for r in requests]
        assert arrivals == sorted(arrivals)
        assert [r.seq for r in requests] == list(range(len(requests)))

    def test_deadlines_follow_slack(self):
        fleet = small_fleet(4, deadline_slack=123)
        for request in generate_requests(fleet, 2000, 7):
            assert request.deadline == request.arrival + 123


# -- token bucket ----------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_starve(self):
        bucket = TokenBucket(capacity=2, interval=10)
        assert bucket.try_take(0)
        assert bucket.try_take(0)
        assert not bucket.try_take(5)

    def test_refills_one_per_interval(self):
        bucket = TokenBucket(capacity=2, interval=10)
        bucket.try_take(0), bucket.try_take(0)
        assert not bucket.try_take(9)
        assert bucket.try_take(10)
        assert not bucket.try_take(19)
        assert bucket.try_take(20)

    def test_idle_time_does_not_overfill(self):
        bucket = TokenBucket(capacity=2, interval=10)
        assert bucket.try_take(1000)
        assert bucket.try_take(1000)
        assert not bucket.try_take(1000)

    def test_validation(self):
        with pytest.raises(ServiceError):
            TokenBucket(0, 10)
        with pytest.raises(ServiceError):
            TokenBucket(1, 0)


# -- circuit breaker -------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_on_fault_storm(self):
        breaker = CircuitBreaker(threshold=3, window=100, cooldown=200)
        assert breaker.on_fault(10) is None
        assert breaker.on_fault(20) is None
        assert breaker.on_fault(30) == "open"
        assert breaker.is_open(31)
        assert breaker.trips == 1

    def test_spread_faults_do_not_trip(self):
        breaker = CircuitBreaker(threshold=3, window=100, cooldown=200)
        for tick in (10, 200, 400):
            assert breaker.on_fault(tick) is None
        assert not breaker.is_open(401)

    def test_half_open_then_close_on_success(self):
        breaker = CircuitBreaker(threshold=2, window=100, cooldown=50)
        breaker.on_fault(0), breaker.on_fault(1)
        assert breaker.is_open(10)
        assert breaker.poll(51) == "half_open"
        assert breaker.on_success(52) == "closed"
        assert breaker.state == "closed"

    def test_half_open_reopens_on_fault(self):
        breaker = CircuitBreaker(threshold=2, window=100, cooldown=50)
        breaker.on_fault(0), breaker.on_fault(1)
        breaker.poll(51)
        assert breaker.on_fault(52) == "open"
        assert breaker.trips == 2

    def test_validation(self):
        with pytest.raises(ServiceError):
            CircuitBreaker(threshold=0)


# -- admission controller --------------------------------------------------


def _tenant(**kwargs):
    base = dict(
        name="t0",
        workload=WorkloadSpec(frames=1),
        lease_acs=2,
        atom_budget=4,
        max_in_flight=2,
        rate_interval=10,
        burst=8,
        mean_gap=50,
        deadline_slack=100,
    )
    base.update(kwargs)
    return TenantSpec(**base)


def _request(tenant, arrival=0, deadline=100, seq=0):
    from repro.service import ServiceRequest

    return ServiceRequest(
        tenant=tenant.name,
        request_id=f"{tenant.name}-r{seq:04d}",
        hot_spot="EE",
        variant=0,
        arrival=arrival,
        deadline=deadline,
        lease_acs=tenant.lease_acs,
        priority=tenant.priority_rank,
        seq=seq,
    )


class TestAdmission:
    def test_admits_and_charges(self):
        tenant = _tenant()
        ctl = AdmissionController([tenant], queue_limit=8)
        assert ctl.admit(_request(tenant), 0, 0, 0, 3) is None
        ledger = ctl.ledgers[tenant.name]
        assert ledger.in_flight == 1
        assert ledger.leased_atoms == tenant.lease_acs

    def test_rate_limited(self):
        tenant = _tenant(burst=1, rate_interval=100)
        ctl = AdmissionController([tenant], queue_limit=8)
        assert ctl.admit(_request(tenant, seq=0), 0, 0, 0, 3) is None
        assert (
            ctl.admit(_request(tenant, seq=1), 1, 0, 0, 3)
            == "rate_limited"
        )

    def test_in_flight_cap(self):
        tenant = _tenant(max_in_flight=1, atom_budget=8)
        ctl = AdmissionController([tenant], queue_limit=8)
        assert ctl.admit(_request(tenant, seq=0), 0, 0, 0, 3) is None
        assert (
            ctl.admit(_request(tenant, seq=1), 0, 0, 0, 3)
            == "in_flight_cap"
        )

    def test_atom_budget(self):
        tenant = _tenant(lease_acs=2, atom_budget=3, max_in_flight=8)
        ctl = AdmissionController([tenant], queue_limit=8)
        assert ctl.admit(_request(tenant, seq=0), 0, 0, 0, 3) is None
        assert (
            ctl.admit(_request(tenant, seq=1), 0, 0, 0, 3)
            == "atom_budget"
        )

    def test_queue_full(self):
        tenant = _tenant()
        ctl = AdmissionController([tenant], queue_limit=2)
        assert (
            ctl.admit(_request(tenant), 0, 2, 0, 3) == "queue_full"
        )

    def test_deadline_triage(self):
        tenant = _tenant()
        ctl = AdmissionController([tenant], queue_limit=8)
        ctl.seed_estimate(tenant.name, 50)
        late = _request(tenant, arrival=0, deadline=40)
        assert ctl.admit(late, 0, 0, 0, 3) == "deadline"

    def test_backlog_feeds_deadline_gate(self):
        tenant = _tenant()
        ctl = AdmissionController([tenant], queue_limit=8)
        ctl.seed_estimate(tenant.name, 10)
        request = _request(tenant, arrival=0, deadline=50)
        # 300 backlog ticks over 3 slots = 100 ticks of queue wait.
        assert ctl.admit(request, 0, 1, 300, 3) == "deadline"
        assert ctl.admit(request, 0, 1, 30, 3) is None

    def test_release_refunds(self):
        tenant = _tenant(max_in_flight=1)
        ctl = AdmissionController([tenant], queue_limit=8)
        request = _request(tenant)
        assert ctl.admit(request, 0, 0, 0, 3) is None
        ctl.release(request)
        assert ctl.admit(_request(tenant, seq=1), 0, 0, 0, 3) is None

    def test_release_underflow_raises(self):
        tenant = _tenant()
        ctl = AdmissionController([tenant], queue_limit=8)
        with pytest.raises(ServiceError):
            ctl.release(_request(tenant))

    def test_ewma_converges_toward_actuals(self):
        tenant = _tenant()
        ctl = AdmissionController([tenant], queue_limit=8)
        ctl.seed_estimate(tenant.name, 100)
        for _ in range(20):
            ctl.observe_service_ticks(tenant.name, 10)
        assert ctl.estimate(tenant.name) <= 12

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ServiceError):
            AdmissionController(
                [_tenant(), _tenant()], queue_limit=8
            )


# -- AC lease ledger -------------------------------------------------------


class TestFabricLeases:
    """The service's AC lease ledger (leases count containers)."""

    def test_reserve_release_cycle(self):
        leases = LeaseLedger(4)
        leases.reserve(3)
        assert leases.reserved == 3
        assert leases.free == 1
        leases.release(2)
        assert leases.free == 3

    def test_over_reservation_rejected(self):
        leases = LeaseLedger(2)
        leases.reserve(2)
        with pytest.raises(CapacityError):
            leases.reserve(1)

    def test_release_underflow_rejected(self):
        leases = LeaseLedger(2)
        with pytest.raises(FabricError):
            leases.release(1)

    def test_container_death_shrinks_free_capacity(self):
        leases = LeaseLedger(3)
        leases.reserve(3)
        assert leases.kill_lowest() == 0
        assert leases.usable == 2
        assert leases.overcommitted == 1
        leases.release(1)
        assert leases.overcommitted == 0
        assert leases.free == 0

    def test_full_release_clears_reservations(self):
        leases = LeaseLedger(2)
        leases.reserve(2)
        leases.release(2)
        assert leases.reserved == 0
        assert leases.free == 2


# -- leased planning -------------------------------------------------------


class TestPlanWithLease:
    def test_zero_lease_is_pure_software(self, h264_library):
        manager = RuntimeManager(
            h264_library, get_scheduler("HEF"), num_acs=8
        )
        empty = h264_library.space.molecule({})
        plan = manager.plan_with_lease(
            "EE", HOT_SPOT_SIS["EE"], empty, 0
        )
        assert plan.num_scheduled_atoms == 0

    def test_lease_caps_the_plan(self, h264_library):
        manager = RuntimeManager(
            h264_library, get_scheduler("HEF"), num_acs=8
        )
        empty = h264_library.space.molecule({})
        small = manager.plan_with_lease(
            "EE", HOT_SPOT_SIS["EE"], empty, 2
        )
        large = manager.plan_with_lease(
            "EE", HOT_SPOT_SIS["EE"], empty, 8
        )
        assert 0 < small.num_scheduled_atoms <= large.num_scheduled_atoms
        assert small.num_scheduled_atoms <= 2

    def test_negative_lease_rejected(self, h264_library):
        manager = RuntimeManager(
            h264_library, get_scheduler("HEF"), num_acs=8
        )
        empty = h264_library.space.molecule({})
        with pytest.raises(Exception):
            manager.plan_with_lease("EE", HOT_SPOT_SIS["EE"], empty, -1)


# -- cache read-through ----------------------------------------------------


class TestReadThrough:
    def test_miss_computes_then_hit_serves(self, tmp_path):
        from repro.exec.spec import SweepCell

        cache = ResultCache(tmp_path)
        cell = SweepCell(
            system="Software",
            num_acs=0,
            workload=WorkloadSpec(frames=1, max_traces=1),
        )
        calls = []

        def compute():
            calls.append(1)
            return {"total_cycles": 42}

        payload, hit = cache.read_through(cell, compute)
        assert (payload, hit) == ({"total_cycles": 42}, False)
        payload, hit = cache.read_through(cell, compute)
        assert (payload, hit) == ({"total_cycles": 42}, True)
        assert len(calls) == 1


# -- the arbiter: config validation ----------------------------------------


class TestServiceConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_acs": 0},
            {"duration": 0},
            {"queue_limit": 0},
            {"cycles_per_tick": 0},
            {"max_preemptions": -1},
            {"backoff_base": 0.0},
            {"backoff_factor": 0.5},
            {"backoff_jitter": 1.5},
            {"fault_ticks": (-1,)},
        ],
    )
    def test_malformed_config_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            ServiceConfig(**kwargs)

    def test_duplicate_tenants_rejected(self):
        fleet = small_fleet(2)
        with pytest.raises(ServiceError):
            run_service(
                list(fleet) + [fleet[0]],
                ServiceConfig(num_acs=4, duration=100),
            )


# -- the arbiter: integration ----------------------------------------------

SOAK_CONFIG = dict(num_acs=6, duration=4000, seed=2008)
SOAK_FAULTS = (900, 920, 940)


@pytest.fixture(scope="module")
def soak():
    """One overloaded soak run with a fault storm, shared read-only."""
    tracer = RecordingTracer()
    metrics = MetricsRegistry()
    report = run_service(
        small_fleet(8),
        ServiceConfig(fault_ticks=SOAK_FAULTS, **SOAK_CONFIG),
        tracer=tracer,
        metrics=metrics,
    )
    return report, tracer, metrics


class TestArbiterSoak:
    def test_fleet_oversubscribes_the_fabric(self, soak):
        report, _, _ = soak
        # The soak only proves anything if offered load beats capacity:
        # with everything admitted there would be nothing to shed.
        assert report.shed_total > 0
        assert report.submitted > 2 * report.completed

    def test_never_drops_an_admitted_request(self, soak):
        report, _, _ = soak
        assert report.dropped_admitted == 0
        for stats in report.tenants.values():
            assert stats.dropped_admitted == 0

    def test_shed_reasons_are_taxonomy_only(self, soak):
        report, _, _ = soak
        assert report.shed_total > 0
        assert set(report.shed_taxonomy()) <= set(SHED_REASONS)

    def test_accounting_balances(self, soak):
        report, _, _ = soak
        assert report.submitted == (
            report.admitted + report.cache_hits + report.shed_total
        )

    def test_fault_storm_trips_breaker_and_degrades(self, soak):
        report, tracer, _ = soak
        assert report.faults == len(SOAK_FAULTS)
        assert report.breaker_trips >= 1
        assert report.degraded > 0
        kinds = [type(e).__name__ for e in tracer.events]
        assert "BreakerTransition" in kinds
        assert "DegradedServed" in kinds

    def test_degraded_served_while_breaker_open(self, soak):
        _, tracer, _ = soak
        opened = [
            e.cycle
            for e in tracer.events
            if isinstance(e, BreakerTransition) and e.state == "open"
        ]
        half = [
            e.cycle
            for e in tracer.events
            if isinstance(e, BreakerTransition)
            and e.state == "half_open"
        ]
        assert opened and half
        window = (opened[0], half[0])
        degraded_in_window = [
            e
            for e in tracer.events
            if isinstance(e, DegradedServed)
            and window[0] <= e.cycle < window[1]
        ]
        assert degraded_in_window

    def test_critical_tenants_shed_least(self, soak):
        report, _, _ = soak
        by_class = {}
        for stats in report.tenants.values():
            rates = by_class.setdefault(stats.priority, [])
            rates.append(stats.shed_total / max(1, stats.submitted))
        critical = sum(by_class["critical"]) / len(by_class["critical"])
        batch = sum(by_class["batch"]) / len(by_class["batch"])
        assert critical < batch

    def test_events_and_metrics_agree(self, soak):
        report, tracer, metrics = soak
        shed_events = [
            e for e in tracer.events if isinstance(e, RequestShed)
        ]
        assert len(shed_events) == report.shed_total
        completed_events = [
            e for e in tracer.events if isinstance(e, RequestCompleted)
        ]
        assert len(completed_events) == (
            report.completed + report.cache_hits
        )
        assert metrics.counter("service.admitted").value == (
            report.admitted
        )
        assert metrics.counter("service.completed").value == (
            report.completed
        )

    def test_latencies_recorded_for_all_completions(self, soak):
        report, _, _ = soak
        assert len(report.latencies()) == (
            report.completed + report.cache_hits
        )


class TestDeterminism:
    def test_soak_reruns_bit_identical(self, tmp_path):
        fleet = small_fleet(8)
        config = ServiceConfig(fault_ticks=SOAK_FAULTS, **SOAK_CONFIG)
        digests = []
        for run in range(2):
            report = run_service(
                fleet,
                config,
                journal_path=tmp_path / f"run{run}.jsonl",
            )
            assert report.dropped_admitted == 0
            digests.append(
                {
                    "service": report.service_digest(),
                    "tenants": {
                        name: stats.digest()
                        for name, stats in report.tenants.items()
                    },
                }
            )
        assert digests[0] == digests[1]
        assert filecmp.cmp(
            tmp_path / "run0.jsonl",
            tmp_path / "run1.jsonl",
            shallow=False,
        )

    def test_seed_changes_the_run(self):
        fleet = small_fleet(4)
        base = run_service(
            fleet, ServiceConfig(num_acs=6, duration=1500, seed=1)
        )
        other = run_service(
            fleet, ServiceConfig(num_acs=6, duration=1500, seed=2)
        )
        assert base.service_digest() != other.service_digest()

    def test_warm_cache_serves_admission_free_hits(self, tmp_path):
        fleet = small_fleet(4)
        config = ServiceConfig(num_acs=6, duration=1500)
        cache = ResultCache(tmp_path / "cache")
        cold = run_service(fleet, config, cache=cache)
        warm = run_service(fleet, config, cache=cache)
        assert warm.cache_hits > cold.cache_hits
        assert warm.dropped_admitted == 0
        # Same answers either way: per-request digests line up.
        for name in cold.tenants:
            cold_digests = {
                c["request"]: c["digest"]
                for c in cold.tenants[name].completions
            }
            warm_digests = {
                c["request"]: c["digest"]
                for c in warm.tenants[name].completions
            }
            shared = set(cold_digests) & set(warm_digests)
            assert shared
            for request_id in shared:
                assert cold_digests[request_id] == (
                    warm_digests[request_id]
                )


class TestDegradedFleet:
    def test_zero_lease_tenant_is_always_software(self):
        tenant = TenantSpec(
            name="cisa",
            workload=WorkloadSpec(frames=1, max_traces=2),
            lease_acs=0,
            atom_budget=0,
            mean_gap=300,
            deadline_slack=900,
        )
        report = run_service(
            [tenant], ServiceConfig(num_acs=4, duration=2000)
        )
        stats = report.tenants["cisa"]
        assert stats.completed > 0
        assert stats.degraded == stats.completed
        assert report.preemptions == 0

    def test_storm_killing_most_containers_still_serves(self):
        fleet = small_fleet(4, mean_gap=120)
        config = ServiceConfig(
            num_acs=4,
            duration=2500,
            fault_ticks=(500, 520, 540),
        )
        report = run_service(fleet, config)
        assert report.faults == 3
        assert report.dropped_admitted == 0
        assert report.degraded > 0

    def test_journal_and_report_json_round_trip(self, tmp_path):
        fleet = small_fleet(4)
        report = run_service(
            fleet,
            ServiceConfig(num_acs=6, duration=1200),
            journal_path=tmp_path / "svc.jsonl",
        )
        lines = (
            (tmp_path / "svc.jsonl").read_text().strip().split("\n")
        )
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["tenants"] == sorted(report.tenants)
        kinds = {json.loads(line)["kind"] for line in lines[1:]}
        assert kinds <= {
            "admit",
            "shed",
            "hit",
            "preempt",
            "fault",
            "breaker",
            "complete",
            "degraded",
        }
        payload = report.to_json_dict()
        assert payload["journal_digest"] == report.journal_digest
        assert payload["dropped_admitted"] == 0
