"""Admission control: token buckets, per-tenant caps, deadline triage.

Every shedding decision the service ever makes happens *here*, at
admission time, and is tagged with one of :data:`SHED_REASONS`.  Once a
request is admitted it is never dropped — overload later in its life
shows up as preemption-and-requeue or a degraded answer, not as loss.

All arithmetic is integer arithmetic on the virtual clock: the
controller is a pure function of the request stream, so reruns shed
exactly the same requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..errors import ServiceError
from .request import ServiceRequest
from .tenant import TenantSpec

__all__ = [
    "SHED_REASONS",
    "TokenBucket",
    "TenantLedger",
    "AdmissionController",
]

#: The shedding taxonomy.  ``draining`` is checked first (a leaving
#: tenant's new arrivals are refused outright); then the gates in
#: order: ``rate_limited`` / ``in_flight_cap`` / ``atom_budget`` /
#: ``queue_full`` are the over-budget reasons; ``deadline`` sheds
#: requests that could not finish in time even if admitted (per the
#: backlog estimate).
SHED_REASONS = (
    "draining",
    "rate_limited",
    "in_flight_cap",
    "atom_budget",
    "queue_full",
    "deadline",
)


@dataclass
class TokenBucket:
    """Integer token bucket on the virtual clock: one token per
    ``interval`` ticks, at most ``capacity`` banked."""

    capacity: int
    interval: int
    #: Banked tokens; a bucket created without a count starts full.
    tokens: int = -1
    #: Tick up to which refills have been credited.
    last: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1 or self.interval < 1:
            raise ServiceError(
                f"token bucket needs capacity >= 1 and interval >= 1, "
                f"got capacity={self.capacity} interval={self.interval}"
            )
        if self.tokens < 0:
            self.tokens = self.capacity

    def _refill(self, now: int) -> None:
        gained = (now - self.last) // self.interval
        if gained > 0:
            self.tokens = min(self.capacity, self.tokens + gained)
            self.last += gained * self.interval
            if self.tokens == self.capacity:
                # Full bucket: credit no partial interval from idle time.
                self.last = now

    def try_take(self, now: int) -> bool:
        """Consume one token if available; refills first."""
        self._refill(now)
        if self.tokens > 0:
            self.tokens -= 1
            return True
        return False


@dataclass
class TenantLedger:
    """Per-tenant admission bookkeeping (part of the arbiter state)."""

    bucket: TokenBucket
    #: The tenant's caps, copied from its :class:`TenantSpec`.
    max_in_flight: int
    atom_budget: int
    in_flight: int = 0
    leased_atoms: int = 0
    #: EWMA of observed fabric service times, scaled — see
    #: :meth:`AdmissionController.observe_service_ticks`.
    est_ticks: int = 0


class AdmissionController:
    """The service's single admission gate.

    ``admit`` applies the gates in :data:`SHED_REASONS` order and
    returns the shed reason, or ``None`` when the request is admitted
    (after charging the tenant's ledger).  ``release`` refunds the
    ledger when an admitted request completes.
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        queue_limit: int,
        default_est_ticks: int = 24,
        ledgers: Optional[Dict[str, TenantLedger]] = None,
    ) -> None:
        if queue_limit < 1:
            raise ServiceError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        if len({t.name for t in tenants}) != len(tenants):
            raise ServiceError("tenant names must be unique")
        self.queue_limit = int(queue_limit)
        self.default_est_ticks = int(default_est_ticks)
        #: The ledgers this controller books into — the arbiter passes
        #: its run state's dict; tenants without a ledger get a fresh one.
        self.ledgers: Dict[str, TenantLedger] = (
            {} if ledgers is None else ledgers
        )
        for tenant in tenants:
            if tenant.name not in self.ledgers:
                self.add_tenant(tenant)

    def add_tenant(self, spec: TenantSpec) -> None:
        """Open a fresh ledger for a tenant joining mid-run."""
        if spec.name in self.ledgers:
            raise ServiceError(
                f"tenant {spec.name!r} already has an admission ledger"
            )
        self.ledgers[spec.name] = TenantLedger(
            bucket=TokenBucket(spec.burst, spec.rate_interval),
            max_in_flight=spec.max_in_flight,
            atom_budget=spec.atom_budget,
            est_ticks=self.default_est_ticks,
        )

    def estimate(self, tenant: str) -> int:
        """Current service-time estimate (ticks) for one tenant."""
        return self.ledgers[tenant].est_ticks

    def observe_service_ticks(self, tenant: str, actual: int) -> None:
        """Fold an observed fabric service time into the estimate
        (integer EWMA, weight 1/4 on the new observation)."""
        ledger = self.ledgers[tenant]
        ledger.est_ticks = max(1, (3 * ledger.est_ticks + actual) // 4)

    def seed_estimate(self, tenant: str, est: int) -> None:
        """Install a planning-derived initial estimate (pre-traffic)."""
        self.ledgers[tenant].est_ticks = max(1, int(est))

    def admit(
        self,
        request: ServiceRequest,
        now: int,
        queue_depth: int,
        backlog_ticks: int,
        capacity_slots: int,
    ) -> Optional[str]:
        """Apply the admission gates; charge the ledger on admission.

        ``backlog_ticks`` is the summed service estimate of the queued
        requests ahead, ``capacity_slots`` how many requests the fabric
        serves concurrently — together they estimate this request's
        start tick for the deadline gate.
        """
        ledger = self.ledgers[request.tenant]
        reason: Optional[str] = None
        if not ledger.bucket.try_take(now):
            reason = "rate_limited"
        elif ledger.in_flight >= ledger.max_in_flight:
            reason = "in_flight_cap"
        elif ledger.leased_atoms + request.lease_acs > ledger.atom_budget:
            reason = "atom_budget"
        elif queue_depth >= self.queue_limit:
            reason = "queue_full"
        else:
            wait = backlog_ticks // max(1, capacity_slots)
            if now + wait + ledger.est_ticks > request.deadline:
                reason = "deadline"
        if reason is not None:
            return reason
        ledger.in_flight += 1
        ledger.leased_atoms += request.lease_acs
        return None

    def release(self, request: ServiceRequest) -> None:
        """Refund one admitted request's ledger charges (completion)."""
        ledger = self.ledgers[request.tenant]
        if ledger.in_flight <= 0:
            raise ServiceError(
                f"ledger underflow for tenant {request.tenant!r}: "
                f"release without a matching admit"
            )
        ledger.in_flight -= 1
        ledger.leased_atoms -= request.lease_acs
