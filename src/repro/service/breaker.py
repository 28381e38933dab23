"""The service circuit breaker: fault storms trip it, answers degrade.

The breaker watches permanent container faults (the hard-fault storms
:mod:`repro.fabric.faults` models) on the virtual clock.  When
``threshold`` faults land within ``window`` ticks it *opens*: the
arbiter stops dispatching onto the fabric and serves cISA-only software
answers instead of failing requests.  After ``cooldown`` ticks it moves
to *half-open* — the next fabric completion closes it, the next fault
re-opens it immediately.

Pure integer state machine: no wall clock, no randomness.  It is a
dataclass because it is part of the arbiter's declared run state
(:mod:`repro.service.state`): every field is snapshotted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import ServiceError

__all__ = ["CircuitBreaker"]


@dataclass
class CircuitBreaker:
    """CLOSED / OPEN / HALF_OPEN over a sliding fault window."""

    threshold: int = 3
    window: int = 400
    cooldown: int = 800
    trips: int = 0
    #: ``closed`` | ``open`` | ``half_open``.
    state: str = "closed"
    #: Tick at which an open breaker turns half-open.
    open_until: int = -1
    #: Fault ticks inside the sliding window.
    faults: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.threshold < 1 or self.window < 1 or self.cooldown < 1:
            raise ServiceError(
                f"breaker needs threshold/window/cooldown >= 1, got "
                f"{self.threshold}/{self.window}/{self.cooldown}"
            )

    def is_open(self, now: int) -> bool:
        self.poll(now)
        return self.state == "open"

    def faults_in_window(self, now: int) -> int:
        return sum(1 for t in self.faults if t > now - self.window)

    def poll(self, now: int) -> Optional[str]:
        """Advance time; returns ``"half_open"`` on that transition."""
        if self.state == "open" and now >= self.open_until:
            self.state = "half_open"
            return "half_open"
        return None

    def on_fault(self, now: int) -> Optional[str]:
        """Record a container fault; returns ``"open"`` when tripping."""
        self.poll(now)
        self.faults = [t for t in self.faults if t > now - self.window]
        self.faults.append(now)
        if self.state == "half_open" or (
            self.state == "closed" and len(self.faults) >= self.threshold
        ):
            self.state = "open"
            self.open_until = now + self.cooldown
            self.trips += 1
            return "open"
        return None

    def on_success(self, now: int) -> Optional[str]:
        """Record a fabric success; closes a half-open breaker."""
        self.poll(now)
        if self.state == "half_open":
            self.state = "closed"
            self.faults.clear()
            return "closed"
        return None
