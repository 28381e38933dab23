"""Cross-hot-spot prefetch scheduling (PREFETCH).

All four paper schedulers react only *at* the hot-spot switch, so every
phase change pays the full reconfiguration latency of its load schedule.
Following the hybrid prefetch idea of Resano et al. (hide the
reconfiguration overhead by starting loads *before* the jump that needs
them), PREFETCH keeps HEF's per-hot-spot schedule bit-for-bit — it
subclasses :class:`~repro.core.schedulers.hef.HEFScheduler` and inherits
its ``_run`` — and adds a speculative side channel driven by the
monitor's hot-spot transition predictor
(:meth:`~repro.core.monitor.ExecutionMonitor.predict_next`):

* while the current phase executes and the reconfiguration bus is idle,
  atom loads for the *predicted* next phase's selection are issued
  through the port's speculative lane,
* speculation fires only when the transition confidence reaches
  ``confidence`` and issues at most ``budget`` atoms per phase,
* speculative loads fill empty containers or evict only *stale* atoms
  (never anything the current selection needs — the same victim rule
  normal loads obey), are never retried on a fault, and are settled —
  hit or wasted — at the next switch.

A misprediction therefore costs at most the wasted bus cycles of the
started speculative loads; the resulting schedule is never worse than
plain HEF by more than that (the never-worse invariant the differential
tests pin).  With ``confidence = 0.0`` or ``budget = 0`` speculation is
disabled and PREFETCH is field-identical to HEF.

The speculation itself is orchestrated by the simulator
(:class:`~repro.sim.rispp.RisppSimulator`), which owns the monitor and
the port; this class carries the knobs and the identity "schedules like
HEF".
"""

from __future__ import annotations

from typing import Tuple

from ...errors import CalibrationError
from .base import register_scheduler
from .hef import HEFScheduler

__all__ = ["PrefetchScheduler"]


@register_scheduler
class PrefetchScheduler(HEFScheduler):
    """HEF plus cross-hot-spot speculative prefetching.

    Parameters
    ----------
    confidence:
        Transition-predictor score in [0, 1] required before speculating
        on a predicted next hot spot; ``0.0`` disables speculation (the
        scheduler then behaves exactly like HEF).
    budget:
        Maximum speculative atom loads issued per phase; ``0`` disables
        speculation.
    """

    name = "PREFETCH"

    def __init__(self, confidence: float = 0.6, budget: int = 4) -> None:
        if not 0.0 <= confidence <= 1.0:
            raise CalibrationError(
                f"prefetch confidence must be in [0, 1], got {confidence}"
            )
        if budget < 0:
            raise CalibrationError(
                f"prefetch budget must be >= 0, got {budget}"
            )
        self.confidence = float(confidence)
        self.budget = int(budget)

    def plan_key(self) -> Tuple[type, float, int]:
        return (type(self), self.confidence, self.budget)

    @property
    def speculates(self) -> bool:
        """Whether speculation is enabled at all under these knobs."""
        return self.confidence > 0.0 and self.budget > 0

    def __repr__(self) -> str:
        return (
            f"PrefetchScheduler(confidence={self.confidence}, "
            f"budget={self.budget})"
        )
