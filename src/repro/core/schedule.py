"""The scheduling function SF — equations (1) and (2) of the paper.

A schedule is a loading sequence of single atoms (unit molecules)::

    SF: [1, k] -> UM = {u_1, ..., u_n}            (1)

subject to the completeness condition that every atom of ``sup(M)`` is
loaded in the correct multiplicity::

    for all i in [1, n]:  |{ j | SF(j) = u_i }| = x_i                (2)

where ``sup(M) = (x_1, ..., x_n)``.  When atoms are already available at
scheduling time, the schedulers only load the *missing* part
``a_0 ⊖ sup(M)``; :func:`validate_schedule` checks exactly that.

Besides the raw atom sequence, a :class:`Schedule` records the
molecule-level **upgrade steps** that produced it: which molecule becomes
available after which load.  The simulators use the step annotations for
reporting (Figure 8's latency step-downs), while correctness only depends
on the atom sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from ..errors import InvalidScheduleError
from .molecule import AtomSpace, Molecule, sup
from .si import MoleculeImpl

__all__ = ["AtomLoad", "UpgradeStep", "Schedule", "validate_schedule"]


@dataclass(frozen=True)
class AtomLoad:
    """One entry of the scheduling function: load a single atom.

    Attributes
    ----------
    atom_type:
        The atom type to load (identifies the unit molecule ``u_i``).
    si_name / molecule_name:
        The upgrade step on whose behalf this atom is loaded, for
        reporting.  ``None`` for completeness loads that no molecule step
        claimed.
    """

    atom_type: str
    si_name: Optional[str] = None
    molecule_name: Optional[str] = None


@dataclass(frozen=True)
class UpgradeStep:
    """A molecule-level upgrade step of a schedule.

    The step says: after the loads ``first_load .. last_load`` (inclusive,
    0-based indices into :attr:`Schedule.loads`) have finished, molecule
    ``impl`` becomes available, improving its SI's best latency from
    ``latency_before`` to ``impl.latency``.  Steps with
    ``first_load > last_load`` (no new atoms) do not occur — a step always
    loads at least one atom.
    """

    impl: MoleculeImpl
    first_load: int
    last_load: int
    latency_before: int

    @property
    def num_loads(self) -> int:
        return self.last_load - self.first_load + 1

    @property
    def improvement(self) -> int:
        return self.latency_before - self.impl.latency


class Schedule:
    """An atom loading sequence with molecule-step annotations."""

    def __init__(
        self,
        space: AtomSpace,
        loads: Sequence[AtomLoad] = (),
        steps: Sequence[UpgradeStep] = (),
    ) -> None:
        self._space = space
        self._loads: List[AtomLoad] = list(loads)
        self._steps: List[UpgradeStep] = list(steps)

    @property
    def space(self) -> AtomSpace:
        return self._space

    @property
    def loads(self) -> Tuple[AtomLoad, ...]:
        return tuple(self._loads)

    @property
    def steps(self) -> Tuple[UpgradeStep, ...]:
        return tuple(self._steps)

    def __len__(self) -> int:
        return len(self._loads)

    def __bool__(self) -> bool:
        # A schedule with zero loads is still a schedule; avoid the
        # surprising len()-based truthiness.
        return True

    # -- construction helpers used by the schedulers -----------------------

    def append_step(self, impl: MoleculeImpl, new_atoms: Molecule,
                    latency_before: int) -> None:
        """Record an upgrade step that loads ``new_atoms`` (= ``a ⊖ impl``)."""
        self.append_counts(
            impl,
            [(p, c) for p, c in enumerate(new_atoms.counts) if c],
            latency_before,
        )

    def append_counts(self, impl: MoleculeImpl,
                      new_atoms: Sequence[Tuple[int, int]],
                      latency_before: int) -> None:
        """:meth:`append_step` with ``new_atoms`` given as its non-zero
        ``(position, count)`` pairs, in position order."""
        if not new_atoms:
            raise InvalidScheduleError(
                f"upgrade step for {impl.si_name}/{impl.name} loads no atoms"
            )
        first = len(self._loads)
        loads = self._loads
        names = self._space.names
        # One AtomLoad per atom *type*, reused per instance: the loads
        # are frozen value-compared records, so instances of the same
        # type within one step are interchangeable objects.
        for position, count in new_atoms:
            load = AtomLoad(names[position], si_name=impl.si_name,
                            molecule_name=impl.name)
            loads.extend([load] * count)
        self._steps.append(
            UpgradeStep(
                impl=impl,
                first_load=first,
                last_load=len(self._loads) - 1,
                latency_before=latency_before,
            )
        )

    def append_completion(self, atoms: Molecule) -> None:
        """Append loads not attributed to any molecule step (completeness
        loads that restore condition (2) when no step claimed them)."""
        for atom_type in atoms.iter_atom_instances():
            self._loads.append(AtomLoad(atom_type))

    # -- derived views ------------------------------------------------------

    def loaded_molecule(self) -> Molecule:
        """The multiset of all loaded atoms as a molecule vector."""
        counts = [0] * self._space.size
        for load in self._loads:
            counts[self._space.index(load.atom_type)] += 1
        return Molecule(self._space, counts)

    def atom_sequence(self) -> Tuple[str, ...]:
        """The bare SF output: atom-type names in loading order."""
        return tuple(load.atom_type for load in self._loads)

    def availability_after(self, initial: Molecule, num_loads: int) -> Molecule:
        """Available atoms after the first ``num_loads`` loads finished."""
        counts = list(initial.counts)
        for load in self._loads[:num_loads]:
            counts[self._space.index(load.atom_type)] += 1
        return Molecule(self._space, counts)

    def __repr__(self) -> str:
        return (
            f"Schedule({len(self._loads)} atom loads, "
            f"{len(self._steps)} upgrade steps)"
        )


def validate_schedule(
    schedule: Schedule,
    selection: Mapping[str, MoleculeImpl],
    initial_available: Optional[Molecule] = None,
) -> None:
    """Check conditions (1) and (2) for a schedule.

    The multiset of loaded atoms must equal ``a_0 ⊖ sup(M)`` — exactly the
    atoms needed to complete all selected molecules given the initially
    available atoms ``a_0`` (``a_0 = 0`` when omitted, which recovers the
    paper's original condition (2)).

    Additionally the step annotations must be consistent: each step's
    molecule must be fully available after its last load.

    Raises
    ------
    InvalidScheduleError
        If the schedule violates any of the conditions.
    """
    space = schedule.space
    a0 = initial_available if initial_available is not None else space.zero()
    target = sup((impl.atoms for impl in selection.values()), space)
    required = a0.missing(target)
    loaded = schedule.loaded_molecule()
    if loaded != required:
        raise InvalidScheduleError(
            f"schedule loads {loaded.as_dict()} but condition (2) requires "
            f"{required.as_dict()} (sup(M)={target.as_dict()}, "
            f"initially available {a0.as_dict()})"
        )
    for step in schedule.steps:
        after = schedule.availability_after(a0, step.last_load + 1)
        if not (step.impl.atoms <= after):
            raise InvalidScheduleError(
                f"step {step.impl.si_name}/{step.impl.name} is annotated as "
                f"available after load {step.last_load} but atoms "
                f"{step.impl.atoms.as_dict()} exceed availability "
                f"{after.as_dict()}"
            )
