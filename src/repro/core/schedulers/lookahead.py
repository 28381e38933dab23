"""Bounded-lookahead scheduler (extension, not in the paper).

The paper notes that an *optimal* schedule would require precise future
knowledge of which SI executes when; HEF approximates it with a greedy
benefit metric.  This module adds a beam-search scheduler that evaluates
whole molecule-step *sequences* under a simple cost model, as an upper
bound on what smarter scheduling can buy (used by the ablation
benchmarks).

Cost model
----------
Loading one atom occupies the reconfiguration port for a fixed time R.
While ``w`` atoms are being loaded, every SI keeps executing at a rate
proportional to its expected executions, paying its *current* best
latency per execution.  The cost of a schedule is therefore::

    sum over steps s:  atoms(s) * sum_si expected[si] * bestLatency[si](before s)

which is exactly the quantity a schedule can influence (the final
latencies and the total atom count are fixed by the selection).  Beam
search with width ``beam_width`` keeps the cheapest partial sequences;
``beam_width`` large enough makes the search exhaustive on small molecule
sets.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..candidates import clean_candidates
from ..molecule import Molecule
from ..si import MoleculeImpl
from .base import AtomScheduler, SchedulerState, register_scheduler

__all__ = ["LookaheadScheduler"]


class _Node:
    """A partial schedule in the beam."""

    __slots__ = ("available", "best_latency", "steps", "cost")

    def __init__(
        self,
        available: Molecule,
        best_latency: Dict[str, int],
        steps: Tuple[MoleculeImpl, ...],
        cost: float,
    ) -> None:
        self.available = available
        self.best_latency = best_latency
        self.steps = steps
        self.cost = cost


@register_scheduler
class LookaheadScheduler(AtomScheduler):
    """Beam search over molecule-step sequences.

    Parameters
    ----------
    beam_width:
        Number of partial sequences kept per depth level.  Width 1
        degenerates to a greedy scheduler; widths beyond the number of
        distinct candidate orderings make the search exhaustive.
    """

    name = "LOOKAHEAD"

    def __init__(self, beam_width: int = 8) -> None:
        if beam_width < 1:
            raise ValueError(f"beam width must be >= 1, got {beam_width}")
        self.beam_width = int(beam_width)

    def __repr__(self) -> str:
        return f"LookaheadScheduler(beam_width={self.beam_width})"

    def plan_key(self) -> Tuple[type, int]:
        return (type(self), self.beam_width)

    def _step_cost(
        self, state: SchedulerState, node: _Node, impl: MoleculeImpl
    ) -> float:
        atoms = node.available.missing(impl.atoms).determinant
        rate_cost = sum(
            state.expected[si_name] * node.best_latency[si_name]
            for si_name in state.selection
        )
        return atoms * rate_cost

    def _expand(
        self, state: SchedulerState, node: _Node
    ) -> List[Tuple[MoleculeImpl, _Node]]:
        candidates = clean_candidates(
            state.candidates, node.available, node.best_latency
        )
        successors: List[Tuple[MoleculeImpl, _Node]] = []
        for cand in candidates:
            cost = node.cost + self._step_cost(state, node, cand)
            best_latency = dict(node.best_latency)
            if cand.latency < best_latency[cand.si_name]:
                best_latency[cand.si_name] = cand.latency
            successors.append(
                (
                    cand,
                    _Node(
                        node.available | cand.atoms,
                        best_latency,
                        node.steps + (cand,),
                        cost,
                    ),
                )
            )
        return successors

    def _run(self, state: SchedulerState) -> None:
        root = _Node(
            state.available, dict(state.best_latency), (), 0.0
        )
        beam: List[_Node] = [root]
        finished: List[_Node] = []
        while beam:
            next_level: List[_Node] = []
            for node in beam:
                successors = self._expand(state, node)
                if not successors:
                    finished.append(node)
                    continue
                next_level.extend(succ for _, succ in successors)
            next_level.sort(
                key=lambda n: (n.cost, tuple(s.name for s in n.steps))
            )
            beam = next_level[: self.beam_width]
        if finished:
            best = min(
                finished,
                key=lambda n: (n.cost, tuple(s.name for s in n.steps)),
            )
            for impl in best.steps:
                state.commit(impl)
        # Condition (2): every selected molecule must end up fully
        # composed.  The cleaning step (equation 4) drops a selected
        # molecule that does not improve on what is already available,
        # so a finished sequence can leave selection entries uncovered —
        # and an exhausted beam used to fall through to an *empty*
        # schedule here.  Commit the stragglers directly, most-important
        # SI first (the same closing rule upgrade_si_fully applies).
        for si_name in state.sis_by_importance():
            if not state.is_complete(si_name):
                state.commit(state.selection[si_name])
