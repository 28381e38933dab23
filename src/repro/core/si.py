"""Special Instructions and their molecule implementations.

A **Special Instruction (SI)** is an instruction-set extension (e.g. the
``SATD`` sum of absolute transformed differences of the H.264 motion
estimation).  Each SI owns

* a *software* implementation: the trap-activated execution on the base
  processor's instruction set (the all-zero molecule — always available),
* a set of *hardware molecules*: alternative implementations that trade
  atom instances against latency.

The :class:`SILibrary` bundles the SIs of an application over one shared
:class:`~repro.core.molecule.AtomSpace`; it is the static input to
molecule selection and atom scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from ..errors import (
    InvalidMoleculeError,
    UnknownSpecialInstructionError,
)
from .molecule import AtomSpace, Molecule

__all__ = ["MoleculeImpl", "SpecialInstruction", "SILibrary"]


@dataclass(frozen=True)
class MoleculeImpl:
    """One implementation alternative of a Special Instruction.

    Attributes
    ----------
    si_name:
        Name of the SI this molecule implements (``getSI()`` in the
        paper's pseudo code).
    name:
        A human-readable identifier, unique within the SI.
    atoms:
        The atom-count vector.  The all-zero vector denotes the software
        implementation.
    latency:
        Cycles for one execution of the SI with this implementation.
    """

    si_name: str
    name: str
    atoms: Molecule
    latency: int

    def __post_init__(self) -> None:
        if self.latency <= 0:
            raise InvalidMoleculeError(
                f"molecule {self.si_name}/{self.name}: latency must be positive, "
                f"got {self.latency}"
            )

    @property
    def is_software(self) -> bool:
        """True for the trap-based base-ISA implementation."""
        return self.atoms.is_zero

    @property
    def determinant(self) -> int:
        """``|m|`` — total atom instances of this implementation."""
        return self.atoms.determinant

    def get_si(self) -> str:
        """Paper-pseudocode alias for :attr:`si_name` (``m.getSI()``)."""
        return self.si_name

    def get_latency(self) -> int:
        """Paper-pseudocode alias for :attr:`latency` (``m.getLatency()``)."""
        return self.latency

    def __repr__(self) -> str:
        kind = "sw" if self.is_software else f"|{self.determinant}|"
        return f"MoleculeImpl({self.si_name}/{self.name}, {kind}, {self.latency}cyc)"


class SpecialInstruction:
    """A Special Instruction with its implementation alternatives.

    Parameters
    ----------
    name:
        The SI mnemonic (unique within a library).
    space:
        The shared atom space.
    software_latency:
        Cycles of one trap-based execution on the base ISA (excluding the
        trap entry/exit overhead, which the base-processor model adds).
    molecules:
        The hardware molecules.  All must use at least one atom, have
        unique names and vectors, and be *faster* than the software
        implementation (a hardware implementation slower than software
        would never be selected nor built).

    Instances are immutable: there are no mutators, and there must never
    be any.  One frozen library is shared by every simulator of a
    process (:func:`~repro.h264.silibrary.h264_platform`), and the
    scoring tables and plan memo of :mod:`repro.core` key on SI identity.
    """

    def __init__(
        self,
        name: str,
        space: AtomSpace,
        software_latency: int,
        molecules: Iterable[MoleculeImpl],
    ) -> None:
        if not name:
            raise InvalidMoleculeError("SI name must be non-empty")
        if software_latency <= 0:
            raise InvalidMoleculeError(
                f"SI {name}: software latency must be positive, got {software_latency}"
            )
        self._name = name
        self._space = space
        self._software = MoleculeImpl(
            si_name=name,
            name="software",
            atoms=space.zero(),
            latency=int(software_latency),
        )
        mols: List[MoleculeImpl] = []
        seen_names = {"software"}
        seen_vectors = set()
        for impl in molecules:
            if impl.si_name != name:
                raise InvalidMoleculeError(
                    f"molecule {impl.name} declares SI {impl.si_name!r}, "
                    f"expected {name!r}"
                )
            if impl.atoms.space != space:
                raise InvalidMoleculeError(
                    f"molecule {name}/{impl.name} uses a different atom space"
                )
            if impl.atoms.is_zero:
                raise InvalidMoleculeError(
                    f"molecule {name}/{impl.name}: hardware molecules must use "
                    f"at least one atom"
                )
            if impl.name in seen_names:
                raise InvalidMoleculeError(
                    f"duplicate molecule name {name}/{impl.name}"
                )
            if impl.atoms in seen_vectors:
                raise InvalidMoleculeError(
                    f"duplicate molecule vector {impl.atoms!r} in SI {name}"
                )
            if impl.latency >= software_latency:
                raise InvalidMoleculeError(
                    f"molecule {name}/{impl.name}: hardware latency "
                    f"{impl.latency} is not faster than software "
                    f"({software_latency})"
                )
            seen_names.add(impl.name)
            seen_vectors.add(impl.atoms)
            mols.append(impl)
        if not mols:
            raise InvalidMoleculeError(f"SI {name} has no hardware molecules")
        # Stable order: by determinant, then latency, then name — useful for
        # deterministic scheduling tie-breaks.
        mols.sort(key=lambda m: (m.determinant, m.latency, m.name))
        self._molecules: Tuple[MoleculeImpl, ...] = tuple(mols)
        self._by_name: Dict[str, MoleculeImpl] = {m.name: m for m in mols}

    # -- accessors ---------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def space(self) -> AtomSpace:
        return self._space

    @property
    def software(self) -> MoleculeImpl:
        """The always-available trap implementation (zero molecule)."""
        return self._software

    @property
    def software_latency(self) -> int:
        return self._software.latency

    @property
    def molecules(self) -> Tuple[MoleculeImpl, ...]:
        """The hardware molecules (sorted by determinant, latency, name)."""
        return self._molecules

    @property
    def implementations(self) -> Tuple[MoleculeImpl, ...]:
        """Software implementation followed by all hardware molecules."""
        return (self._software,) + self._molecules

    @property
    def atom_types(self) -> Tuple[str, ...]:
        """Atom types used by at least one molecule of this SI."""
        used = [False] * self._space.size
        for impl in self._molecules:
            for i, c in enumerate(impl.atoms.counts):
                if c:
                    used[i] = True
        return tuple(
            name for name, flag in zip(self._space.names, used) if flag
        )

    @property
    def num_atom_types(self) -> int:
        """Number of distinct atom types (Table 1, column 2)."""
        return len(self.atom_types)

    @property
    def num_molecules(self) -> int:
        """Number of hardware molecules (Table 1, column 3)."""
        return len(self._molecules)

    @property
    def fastest(self) -> MoleculeImpl:
        """The molecule with the globally lowest latency."""
        return min(self.implementations, key=lambda m: m.latency)

    def molecule(self, name: str) -> MoleculeImpl:
        """Look a hardware molecule up by name (or ``"software"``)."""
        if name == "software":
            return self._software
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownSpecialInstructionError(
                f"SI {self._name} has no molecule {name!r}"
            ) from None

    def __iter__(self) -> Iterator[MoleculeImpl]:
        return iter(self._molecules)

    def __repr__(self) -> str:
        return (
            f"SpecialInstruction({self._name}, {self.num_atom_types} atom types, "
            f"{self.num_molecules} molecules, sw={self.software_latency}cyc)"
        )

    # -- availability queries ------------------------------------------------

    def fastest_available(self, available: Molecule) -> MoleculeImpl:
        """The fastest implementation whose atoms are all available.

        The paper's ``getFastestAvailableMolecule(a)``: among all
        implementations ``m`` with ``m <= a`` (the software one always
        qualifies) the one with minimal latency is returned; ties are
        broken towards fewer atoms, then by name, for determinism.
        """
        best = self._software
        for impl in self._molecules:
            if impl.atoms <= available and (
                impl.latency < best.latency
                or (
                    impl.latency == best.latency
                    and (impl.determinant, impl.name)
                    < (best.determinant, best.name)
                )
            ):
                best = impl
        return best

    def available_latency(self, available: Molecule) -> int:
        """Latency of the fastest available implementation."""
        return self.fastest_available(available).latency


class SILibrary:
    """The Special Instructions of one application over a shared atom space.

    The library is the static description the run-time system works with:
    molecule selection, candidate expansion and atom scheduling all take
    the library (or a per-hot-spot subset of its SIs) as input.  Like its
    SIs it is immutable, with no mutators, so one instance can be shared
    process-wide.
    """

    def __init__(self, space: AtomSpace, sis: Iterable[SpecialInstruction]) -> None:
        self._space = space
        self._sis: Dict[str, SpecialInstruction] = {}
        for si in sis:
            if si.space != space:
                raise InvalidMoleculeError(
                    f"SI {si.name} uses a different atom space than the library"
                )
            if si.name in self._sis:
                raise InvalidMoleculeError(f"duplicate SI name {si.name!r}")
            self._sis[si.name] = si
        if not self._sis:
            raise InvalidMoleculeError("an SI library needs at least one SI")

    @property
    def space(self) -> AtomSpace:
        return self._space

    @property
    def si_names(self) -> Tuple[str, ...]:
        return tuple(self._sis)

    def __len__(self) -> int:
        return len(self._sis)

    def __iter__(self) -> Iterator[SpecialInstruction]:
        return iter(self._sis.values())

    def __contains__(self, name: object) -> bool:
        return name in self._sis

    def get(self, name: str) -> SpecialInstruction:
        try:
            return self._sis[name]
        except KeyError:
            raise UnknownSpecialInstructionError(
                f"unknown SI {name!r}; known: {list(self._sis)}"
            ) from None

    def subset(self, names: Sequence[str]) -> List[SpecialInstruction]:
        """The SIs of one hot spot, in the given order."""
        return [self.get(name) for name in names]

    def inventory(self) -> List[Tuple[str, int, int]]:
        """(SI name, #atom types, #molecules) rows — the paper's Table 1."""
        return [
            (si.name, si.num_atom_types, si.num_molecules) for si in self
        ]

    def __repr__(self) -> str:
        return f"SILibrary({len(self._sis)} SIs over {self._space.size} atom types)"
