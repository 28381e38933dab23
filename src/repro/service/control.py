"""Deterministic live-reconfiguration control events.

A control event changes the *shape* of a running service — the tenant
fleet or the fabric AC pool — at a fixed virtual tick:

* ``tenant_join``  — a new tenant (with a full :class:`TenantSpec`)
  starts submitting; its request stream is seeded from the service seed
  and the tenant *name*, so joining never perturbs anyone else's
  arrivals.
* ``tenant_leave`` — the tenant drains gracefully: queued and in-flight
  work finishes normally, new arrivals are shed as ``draining``, and a
  ``drained`` journal line marks the tick its last request completed.
* ``ac_add``       — ``count`` fresh containers grow the fabric.
* ``ac_remove``    — ``count`` containers are retired (highest live
  index first); over-committed leases are preempted through the normal
  preemption path with reason ``retire``.

Control events are part of the run's *identity*: they enter the config
fingerprint and the journal, so a recovery must be invoked with the
same control schedule and a rerun with the same schedule is
bit-identical.  The CLI surface is ``--reconfig-at TICK:ACTION[:ARG]``
(repeatable), parsed by :func:`parse_reconfig_spec`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ServiceError
from ..exec.spec import WorkloadSpec
from .tenant import TenantSpec

__all__ = [
    "CONTROL_ACTIONS",
    "ControlEvent",
    "parse_reconfig_spec",
    "derive_join_tenant",
    "ordered_controls",
    "validate_control_events",
]

#: The live-reconfiguration vocabulary.
CONTROL_ACTIONS: Tuple[str, ...] = (
    "tenant_join",
    "tenant_leave",
    "ac_add",
    "ac_remove",
)


@dataclass(frozen=True)
class ControlEvent:
    """One scheduled reconfiguration of the running service.

    ``name`` is the tenant for the ``tenant_*`` actions (and must match
    ``spec.name`` on a join); ``count`` is the container delta for the
    ``ac_*`` actions.  ``spec`` is required for ``tenant_join`` — the
    joining tenant's full specification.
    """

    tick: int
    action: str
    name: str = ""
    count: int = 1
    spec: Optional[TenantSpec] = None

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ServiceError(
                f"control event tick must be >= 0, got {self.tick}"
            )
        if self.action not in CONTROL_ACTIONS:
            raise ServiceError(
                f"unknown control action {self.action!r}; known: "
                f"{list(CONTROL_ACTIONS)}"
            )
        if self.action in ("tenant_join", "tenant_leave"):
            if not self.name:
                raise ServiceError(
                    f"{self.action} at tick {self.tick} needs a tenant "
                    f"name"
                )
        if self.action == "tenant_join":
            if self.spec is not None and self.spec.name != self.name:
                raise ServiceError(
                    f"tenant_join at tick {self.tick}: spec name "
                    f"{self.spec.name!r} != event name {self.name!r}"
                )
        if self.action in ("ac_add", "ac_remove") and self.count < 1:
            raise ServiceError(
                f"{self.action} at tick {self.tick} needs count >= 1, "
                f"got {self.count}"
            )

    def to_json_dict(self) -> Dict[str, Any]:
        """Canonical form — feeds the config fingerprint."""
        doc: Dict[str, Any] = {
            "tick": self.tick,
            "action": self.action,
        }
        if self.name:
            doc["name"] = self.name
        if self.action in ("ac_add", "ac_remove"):
            doc["count"] = self.count
        if self.spec is not None:
            doc["spec"] = dataclasses.asdict(self.spec)
        return doc


def parse_reconfig_spec(text: str) -> ControlEvent:
    """Parse one ``--reconfig-at`` value: ``TICK:ACTION[:ARG]``.

    ``ARG`` is the tenant name for ``tenant_join``/``tenant_leave`` and
    the (optional, default 1) container count for ``ac_add``/
    ``ac_remove``.  A join parsed from the CLI carries no spec yet —
    the caller derives one (:func:`derive_join_tenant`) and attaches it
    with :func:`dataclasses.replace`.
    """
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ServiceError(
            f"malformed --reconfig-at {text!r}; expected "
            f"TICK:ACTION[:ARG]"
        )
    try:
        tick = int(parts[0])
    except ValueError:
        raise ServiceError(
            f"malformed --reconfig-at {text!r}: tick {parts[0]!r} is "
            f"not an integer"
        ) from None
    action = parts[1]
    if action not in CONTROL_ACTIONS:
        raise ServiceError(
            f"malformed --reconfig-at {text!r}: unknown action "
            f"{action!r}; known: {list(CONTROL_ACTIONS)}"
        )
    if action in ("tenant_join", "tenant_leave"):
        if len(parts) != 3 or not parts[2]:
            raise ServiceError(
                f"malformed --reconfig-at {text!r}: {action} needs a "
                f"tenant name (TICK:{action}:NAME)"
            )
        return ControlEvent(tick=tick, action=action, name=parts[2])
    count = 1
    if len(parts) == 3:
        try:
            count = int(parts[2])
        except ValueError:
            raise ServiceError(
                f"malformed --reconfig-at {text!r}: count {parts[2]!r} "
                f"is not an integer"
            ) from None
    return ControlEvent(tick=tick, action=action, count=count)


def derive_join_tenant(
    name: str,
    seed: int,
    mean_gap: int = 160,
    deadline_slack: int = 600,
    variants: int = 4,
) -> TenantSpec:
    """A deterministic spec for a CLI-named joining tenant.

    Joining tenants from the CLI get the fleet defaults (HEF,
    ``standard`` priority, 2-AC lease) with a workload seeded from the
    service seed and the tenant *name* — the same arguments always
    derive the identical spec, so a recovery re-derives it exactly.
    """
    name_salt = sum(ord(ch) for ch in name)
    return TenantSpec(
        name=name,
        workload=WorkloadSpec(
            frames=1, seed=seed + name_salt, max_traces=2
        ),
        scheduler="HEF",
        priority="standard",
        lease_acs=2,
        mean_gap=mean_gap,
        deadline_slack=deadline_slack,
        variants=variants,
    )


def ordered_controls(events: Sequence[ControlEvent]) -> List[ControlEvent]:
    """Control events in processing order: by tick, then by position in
    the caller's list (the sort is stable)."""
    return sorted(events, key=lambda event: event.tick)


def validate_control_events(
    initial_tenants: Sequence[str],
    events: Sequence[ControlEvent],
) -> None:
    """Reject structurally impossible control schedules up front.

    Checks the fleet-membership story end to end: joins need a spec and
    a fresh name (never one from the initial fleet, an earlier join, or
    a departed tenant — request IDs and stats are keyed by name);
    leaves need a currently-active tenant.  Raises
    :class:`ServiceError` on the first violation.
    """
    active = set(initial_tenants)
    ever = set(initial_tenants)
    for event in ordered_controls(events):
        if event.action == "tenant_join":
            if event.spec is None:
                raise ServiceError(
                    f"tenant_join {event.name!r} at tick {event.tick} "
                    f"has no TenantSpec attached"
                )
            if event.name in ever:
                raise ServiceError(
                    f"tenant_join at tick {event.tick}: name "
                    f"{event.name!r} is already taken (names are never "
                    f"reused — stats and request IDs key on them)"
                )
            active.add(event.name)
            ever.add(event.name)
        elif event.action == "tenant_leave":
            if event.name not in active:
                raise ServiceError(
                    f"tenant_leave at tick {event.tick}: {event.name!r} "
                    f"is not an active tenant"
                )
            active.discard(event.name)
