"""Random scheduler (ablation baseline, not in the paper).

Schedules valid upgrade steps in a uniformly random (seeded) order.  It
still respects the candidate cleaning of equation (4) — it never loads a
molecule that would not improve its SI — so it measures the value of the
*ordering* heuristics in isolation: any scheduler worth its silicon has
to beat this one.
"""

from __future__ import annotations

import random

from .base import AtomScheduler, SchedulerState, register_scheduler

__all__ = ["RandomScheduler"]


@register_scheduler
class RandomScheduler(AtomScheduler):
    """Uniformly random valid upgrade order (seeded, reproducible)."""

    name = "RANDOM"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def __repr__(self) -> str:
        return f"RandomScheduler(seed={self.seed})"

    def plan_key(self) -> None:
        # The RNG advances on every schedule: never memoised.
        return None

    def reseed(self, seed: int) -> None:
        """Restart the generator from a new seed."""
        self.seed = int(seed)
        self.reset()

    def reset(self) -> None:
        """Rewind the generator to its seed (between simulator runs)."""
        self._rng.seed(self.seed)

    def _run(self, state: SchedulerState) -> None:
        while True:
            candidates = state.cleaned_candidates()
            if not candidates:
                return
            state.commit(self._rng.choice(candidates))
