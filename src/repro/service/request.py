"""Requests and their life-cycle records.

A :class:`ServiceRequest` is one tenant's ask: "schedule and simulate
hot spot X of my workload, answer by tick D".  Streams are generated
*up front* from per-tenant seeded generators — the arrival pattern is a
pure function of the fleet and the service seed, never of execution
interleaving, which is what makes two soak runs bit-identical.

The mutable :class:`RequestRecord` tracks one served request through
the arbiter, queued → running, with preemption count, backoff gate and
the delivered answer's digest, until the request completes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .tenant import TenantSpec

__all__ = ["ServiceRequest", "RequestRecord", "generate_requests"]


@dataclass(frozen=True)
class ServiceRequest:
    """One immutable tenant request."""

    tenant: str
    request_id: str
    hot_spot: str
    #: Workload-variant index (seed offset) — the cache-identity knob.
    variant: int
    arrival: int
    deadline: int
    lease_acs: int
    #: Denormalised :attr:`TenantSpec.priority_rank` for arbitration keys.
    priority: int
    #: Global arrival sequence number — the deterministic tie-breaker.
    seq: int


@dataclass
class RequestRecord:
    """Mutable life-cycle state of one *admitted* request.

    ``epoch`` increments every time the request is (re-)dispatched; a
    completion event carries the request's ``seq`` and the epoch it was
    scheduled under, so a preempted dispatch's stale completion is
    recognised and ignored.  A record lives in the arbiter's queue or
    running list until its request completes, and is dropped then.
    """

    request: ServiceRequest
    #: ``queued`` | ``running``.
    status: str = "queued"
    #: False for admission-free cache hits (no ledger charge to refund).
    admitted: bool = True
    #: Estimated fabric service time (ticks) at admission.
    est_ticks: int = 0
    #: Earliest tick the request may be (re-)dispatched.
    not_before: int = 0
    preemptions: int = 0
    epoch: int = 0
    started: int = -1
    degraded: bool = False
    cache_hit: bool = False
    #: Whether the current dispatch holds a fabric lease.
    holds_lease: bool = False
    service_ticks: int = 0
    #: Short content digest of the delivered result payload.
    digest: str = ""
    #: Degradation reason when served by the software path.
    degrade_reason: str = field(default="")


def generate_requests(
    tenants: Sequence[TenantSpec],
    duration: int,
    seed: int,
    start: int = 0,
    first_seq: int = 0,
) -> Tuple[ServiceRequest, ...]:
    """The deterministic request stream of ``tenants`` from ``start``
    until ``duration``, numbered from ``first_seq``.

    Each tenant gets its own generator seeded from ``seed`` and the
    tenant *name* (not its fleet position), so adding a tenant never
    perturbs the other tenants' streams — the initial fleet's stream
    (``start=0``) and a tenant joining mid-run (``start`` = the join
    tick, ``first_seq`` = the requests generated so far) come from this
    one function.  Arrival gaps are uniform in
    ``[mean_gap/2, 3*mean_gap/2]``; the merged stream is ordered by
    ``(arrival, tenant, per-tenant counter)`` and numbered globally.
    """
    raw: List[Tuple[int, str, int, str, int, int, int]] = []
    for tenant in tenants:
        rng = random.Random(f"{seed}:{tenant.name}")
        low = max(1, tenant.mean_gap // 2)
        high = max(low, tenant.mean_gap * 3 // 2)
        tick = start + low + rng.randrange(high - low + 1)
        counter = 0
        while tick < duration:
            hot_spot = tenant.hot_spots[
                rng.randrange(len(tenant.hot_spots))
            ]
            variant = rng.randrange(tenant.variants)
            raw.append(
                (
                    tick,
                    tenant.name,
                    counter,
                    hot_spot,
                    variant,
                    tick + tenant.deadline_slack,
                    tenant.lease_acs,
                )
            )
            counter += 1
            tick += low + rng.randrange(high - low + 1)
    raw.sort(key=lambda item: (item[0], item[1], item[2]))
    ranks = {tenant.name: tenant.priority_rank for tenant in tenants}
    requests: List[ServiceRequest] = []
    for seq, item in enumerate(raw, start=first_seq):
        arrival, name, counter, hot_spot, variant, deadline, lease = item
        requests.append(
            ServiceRequest(
                tenant=name,
                request_id=f"{name}-r{counter:04d}",
                hot_spot=hot_spot,
                variant=variant,
                arrival=arrival,
                deadline=deadline,
                lease_acs=lease,
                priority=ranks[name],
                seq=seq,
            )
        )
    return tuple(requests)
