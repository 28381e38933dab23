"""Scheduler interface and shared machinery.

An atom scheduler receives

* the **selection** ``M`` — one molecule per Special Instruction, chosen
  by the molecule-selection step for the upcoming hot spot,
* the SIs themselves (for candidate molecules and latency queries),
* the currently **available** atoms ``a`` (the fabric state),
* the **expected executions** per SI from the online monitor,

and produces a :class:`~repro.core.schedule.Schedule`: the order in which
the missing atoms of ``sup(M)`` are pushed into the reconfiguration port,
annotated with the molecule-level upgrade steps.

All four paper schedulers (and the extensions) share the bookkeeping in
:class:`SchedulerState`: the virtual availability ``a`` (loaded *or
already scheduled* atoms, updated as ``a <- a ∪ m`` per Figure 6 line 27)
and the ``bestLatency`` array (line 28).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple, Type

from ...errors import InvalidScheduleError, UnknownSpecialInstructionError
from ..candidates import best_latency_map, clean_candidates, expand_candidates
from ..molecule import Molecule, sup
from ..schedule import Schedule
from ..si import MoleculeImpl, SpecialInstruction

__all__ = [
    "SchedulerState",
    "AtomScheduler",
    "register_scheduler",
    "get_scheduler",
    "available_schedulers",
]


class SchedulerState:
    """Mutable bookkeeping shared by all scheduling strategies."""

    def __init__(
        self,
        selection: Mapping[str, MoleculeImpl],
        sis: Mapping[str, SpecialInstruction],
        available: Molecule,
        expected: Mapping[str, float],
    ) -> None:
        if not selection:
            raise InvalidScheduleError("cannot schedule an empty selection")
        for si_name in selection:
            if si_name not in sis:
                raise UnknownSpecialInstructionError(
                    f"selection references unknown SI {si_name!r}"
                )
        self.selection: Dict[str, MoleculeImpl] = dict(selection)
        self.sis: Dict[str, SpecialInstruction] = dict(sis)
        self.space = available.space
        #: Virtual availability ``a``: loaded or already-scheduled atoms.
        self.available: Molecule = available
        #: Expected executions per SI (missing SIs default to 0).
        self.expected: Dict[str, float] = {
            si_name: float(expected.get(si_name, 0.0)) for si_name in selection
        }
        #: Figure 6 lines 6-9: fastest available latency per SI.
        self.best_latency: Dict[str, int] = best_latency_map(
            selection, sis, available
        )
        #: Equation (3): the full candidate list M'.
        self.candidates: List[MoleculeImpl] = expand_candidates(selection, sis)
        self.schedule = Schedule(self.space)

    # -- queries -----------------------------------------------------------

    def cleaned_candidates(
        self, si_name: Optional[str] = None
    ) -> List[MoleculeImpl]:
        """Equation (4) applied to the current state.

        With ``si_name`` given, only candidates of that SI are returned.
        """
        pool = (
            self.candidates
            if si_name is None
            else [c for c in self.candidates if c.si_name == si_name]
        )
        return clean_candidates(pool, self.available, self.best_latency)

    def additional_atoms(self, impl: MoleculeImpl) -> int:
        """``|a ⊖ m|`` — atoms still missing for ``impl``."""
        return self.available.missing(impl.atoms).determinant

    def improvement(self, impl: MoleculeImpl) -> int:
        """Latency gain of ``impl`` over the SI's current best."""
        return self.best_latency[impl.si_name] - impl.latency

    def importance(self, si_name: str) -> float:
        """The FSFR/ASF ordering criterion: expected executions times the
        potential improvement of the *selected* molecule."""
        selected = self.selection[si_name]
        return self.expected[si_name] * max(
            0, self.best_latency[si_name] - selected.latency
        )

    def sis_by_importance(self) -> List[str]:
        """Selection SIs ordered most-important first (ties by name)."""
        return sorted(
            self.selection,
            key=lambda si_name: (-self.importance(si_name), si_name),
        )

    def is_complete(self, si_name: str) -> bool:
        """True once the selected molecule of ``si_name`` is covered."""
        return self.additional_atoms(self.selection[si_name]) == 0

    def smallest_step(
        self, candidates: List[MoleculeImpl]
    ) -> Optional[MoleculeImpl]:
        """The candidate with the fewest additional atoms.

        Ties are broken towards the bigger performance improvement (as
        the SJF description in Section 4.4 prescribes), then by molecule
        name for determinism.  Lives on the state so accelerated states
        can answer from their cached arrays.
        """
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda c: (
                self.additional_atoms(c),
                -self.improvement(c),
                c.si_name,
                c.name,
            ),
        )

    # -- mutation ----------------------------------------------------------

    def commit(self, impl: MoleculeImpl) -> None:
        """Schedule ``impl`` as the next upgrade step (Figure 6, 26-28).

        Appends the atoms ``a ⊖ m`` to the schedule, updates the virtual
        availability ``a <- a ∪ m`` and the SI's best latency.
        """
        new_atoms = self.available.missing(impl.atoms)
        self.schedule.append_step(
            impl, new_atoms, latency_before=self.best_latency[impl.si_name]
        )
        self.available = self.available | impl.atoms
        if impl.latency < self.best_latency[impl.si_name]:
            self.best_latency[impl.si_name] = impl.latency
        # Equation (4) measures improvements against the fastest molecule
        # available under ``a`` — loading shared atoms for one SI can
        # implicitly accelerate another, so refresh every entry.
        for si_name in self.selection:
            latency = self.sis[si_name].available_latency(self.available)
            if latency < self.best_latency[si_name]:
                self.best_latency[si_name] = latency

    def finalize(self) -> Schedule:
        """Ensure condition (2) and return the finished schedule.

        The molecule-step strategies terminate when no candidate improves
        any latency.  In degenerate cases (a selected molecule whose
        latency equals an already-scheduled smaller molecule's) that can
        leave atoms of ``sup(M)`` unscheduled; they are appended here as
        unattributed completeness loads so the schedule always satisfies
        condition (2).
        """
        for si_name in sorted(self.selection):
            selected = self.selection[si_name]
            missing = self.available.missing(selected.atoms)
            if missing.determinant:
                # Attribute the loads to the selected molecule: it becomes
                # available once they finish.
                self.schedule.append_step(
                    selected, missing,
                    latency_before=self.best_latency[si_name],
                )
                self.available = self.available | selected.atoms
                if selected.latency < self.best_latency[si_name]:
                    self.best_latency[si_name] = selected.latency
        target = sup(
            (impl.atoms for impl in self.selection.values()), self.space
        )
        leftover = self.available.missing(target)
        if leftover.determinant:  # pragma: no cover - defensive
            self.schedule.append_completion(leftover)
            self.available = self.available | target
        return self.schedule


class AtomScheduler(ABC):
    """Base class of all atom-scheduling strategies.

    Subclasses implement :meth:`_run` on a prepared
    :class:`SchedulerState`; the public :meth:`schedule` wraps state
    construction and finalisation so every scheduler produces a valid
    (condition-(2)-satisfying) schedule.
    """

    #: Short name used in result tables and the registry.
    name: str = "abstract"

    def schedule(
        self,
        selection: Mapping[str, MoleculeImpl],
        sis: Mapping[str, SpecialInstruction],
        available: Molecule,
        expected: Mapping[str, float],
    ) -> Schedule:
        """Compute the atom loading sequence for one hot-spot switch."""
        state = SchedulerState(selection, sis, available, expected)
        self._run(state)
        return state.finalize()

    @abstractmethod
    def _run(self, state: SchedulerState) -> None:
        """Schedule molecule upgrade steps via ``state.commit``."""

    def reset(self) -> None:
        """Restore the state of a fresh instance (start of a run).

        Configuration-free strategies have nothing to restore; one that
        carries state from schedule to schedule (the RANDOM baseline's
        generator) overrides this, so that repeated simulator runs
        reproduce a fresh simulator's run.
        """

    def plan_key(self) -> Optional[Hashable]:
        """This scheduler's part of the Run-Time Manager's plan-memo key.

        It must cover every setting a schedule depends on; ``None``
        means "never memoise", which stateful strategies must return.
        The default suits configuration-free strategies: an instance
        with any attribute gets ``None`` unless its class overrides
        this with its configuration.
        """
        return None if vars(self) else (type(self),)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    # -- shared strategy fragments ------------------------------------------

    @staticmethod
    def smallest_step(
        state: SchedulerState, candidates: List[MoleculeImpl]
    ) -> Optional[MoleculeImpl]:
        """The candidate with the fewest additional atoms.

        Delegates to :meth:`SchedulerState.smallest_step` (kept as a
        static helper for the strategies' call sites).
        """
        return state.smallest_step(candidates)

    @classmethod
    def load_smallest_molecule_per_si(cls, state: SchedulerState) -> None:
        """Phase 1 of ASF and SJF: one accelerating molecule for every SI.

        "Avoid Software First" means exactly that: get every SI out of the
        trap path as soon as possible.  Following the paper's small-jobs
        idea, the SIs are served smallest first — the SI whose cheapest
        accelerating molecule needs the fewest additional atoms is loaded
        first (ties broken towards the more important SI, then by name).
        SIs that already have a hardware molecule available skip the phase.
        """
        pending = {
            si_name
            for si_name in state.selection
            if state.best_latency[si_name]
            >= state.sis[si_name].software_latency
        }
        while pending:
            best_si = None
            best_step = None
            best_key = None
            for si_name in pending:
                step = cls.smallest_step(
                    state, state.cleaned_candidates(si_name)
                )
                if step is None:
                    continue
                key = (
                    state.additional_atoms(step),
                    -state.importance(si_name),
                    si_name,
                )
                if best_key is None or key < best_key:
                    best_si, best_step, best_key = si_name, step, key
            if best_step is None:
                return
            state.commit(best_step)
            pending.discard(best_si)
            # Shared atoms may have pulled other SIs out of software too.
            pending = {
                si_name
                for si_name in pending
                if state.best_latency[si_name]
                >= state.sis[si_name].software_latency
            }

    @classmethod
    def upgrade_si_fully(cls, state: SchedulerState, si_name: str) -> None:
        """Walk one SI's upgrade path up to its selected molecule.

        This is the inner loop of FSFR (and of the second phase of ASF):
        repeatedly schedule the smallest remaining upgrade step of this SI
        until the selected molecule is composed.
        """
        guard = 0
        while not state.is_complete(si_name):
            candidates = state.cleaned_candidates(si_name)
            step = cls.smallest_step(state, candidates)
            if step is None:
                # No candidate improves the latency anymore, but the
                # selected molecule is not fully loaded yet; commit it
                # directly so condition (2) holds.
                state.commit(state.selection[si_name])
                return
            state.commit(step)
            guard += 1
            if guard > 10_000:  # pragma: no cover - defensive
                raise InvalidScheduleError(
                    f"upgrade path of SI {si_name} does not terminate"
                )


_REGISTRY: Dict[str, Type[AtomScheduler]] = {}


def register_scheduler(cls: Type[AtomScheduler]) -> Type[AtomScheduler]:
    """Class decorator adding a scheduler to the global registry."""
    if not issubclass(cls, AtomScheduler):
        raise TypeError(f"{cls!r} is not an AtomScheduler")
    key = cls.name.upper()
    if key in _REGISTRY:
        raise ValueError(f"duplicate scheduler name {cls.name!r}")
    _REGISTRY[key] = cls
    return cls


def get_scheduler(name: str, **kwargs: Any) -> AtomScheduler:
    """Instantiate a scheduler by its registry name (case-insensitive)."""
    try:
        cls = _REGISTRY[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)


def available_schedulers() -> Tuple[str, ...]:
    """Registry names of all known schedulers."""
    return tuple(sorted(_REGISTRY))
