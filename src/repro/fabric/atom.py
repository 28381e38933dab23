"""Atom types and their physical properties.

An **atom** is an elementary data path that can be re-loaded at run time
into an Atom Container.  Physically it is a partial FPGA bitstream; the
paper reports an average size of 60,488 bytes, loaded at 66 MB/s through
the SelectMap/ICAP port, for an average reconfiguration time of
874.03 microseconds (Section 5, Table 3: average atom 421 slices).

The :class:`AtomRegistry` maps atom-type names to their properties and
derives the :class:`~repro.core.molecule.AtomSpace` all molecules of the
application live in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Tuple

from ..calibration import (
    BITSTREAM_BYTES_AVG,
    RECONFIG_CYCLES_PER_ATOM,
    bitstream_bytes_to_cycles,
)
from ..core.molecule import AtomSpace
from ..errors import InvalidMoleculeError, UnknownAtomTypeError

__all__ = ["AtomType", "AtomRegistry"]


@dataclass(frozen=True)
class AtomType:
    """Physical description of one atom type.

    Attributes
    ----------
    name:
        The atom-type mnemonic (e.g. ``"TRANSFORM"``).
    bitstream_bytes:
        Size of the partial bitstream; determines the reconfiguration
        latency.  Defaults to the paper's average.
    slices:
        FPGA slices the atom occupies (must fit one Atom Container).
    description:
        Human-readable summary of the data path.
    """

    name: str
    bitstream_bytes: int = BITSTREAM_BYTES_AVG
    slices: int = 421
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidMoleculeError("atom-type name must be non-empty")
        if self.bitstream_bytes <= 0:
            raise InvalidMoleculeError(
                f"atom {self.name}: bitstream size must be positive"
            )
        if self.slices <= 0:
            raise InvalidMoleculeError(
                f"atom {self.name}: slice count must be positive"
            )

    @property
    def reconfig_cycles(self) -> int:
        """Cycles the configuration port needs to load this atom."""
        return bitstream_bytes_to_cycles(self.bitstream_bytes)


class AtomRegistry:
    """Ordered registry of the application's atom types.

    Immutable (no mutators, and there must never be any): one registry
    is shared by every simulator of a process, see
    :func:`~repro.h264.silibrary.h264_platform`.  That is what lets it
    convert every bitstream size to port cycles once, at construction.
    """

    def __init__(self, atom_types: Iterable[AtomType]):
        self._types: Dict[str, AtomType] = {}
        for atom_type in atom_types:
            if atom_type.name in self._types:
                raise InvalidMoleculeError(
                    f"duplicate atom type {atom_type.name!r}"
                )
            self._types[atom_type.name] = atom_type
        if not self._types:
            raise InvalidMoleculeError("registry needs at least one atom type")
        self._space = AtomSpace(tuple(self._types))
        self._cycles: Dict[str, int] = {
            name: atom_type.reconfig_cycles
            for name, atom_type in self._types.items()
        }

    @classmethod
    def uniform(cls, names: Iterable[str],
                bitstream_bytes: int = BITSTREAM_BYTES_AVG) -> "AtomRegistry":
        """Registry in which every atom has the same bitstream size."""
        return cls(AtomType(name, bitstream_bytes) for name in names)

    @property
    def space(self) -> AtomSpace:
        """The molecule atom space induced by this registry."""
        return self._space

    @property
    def names(self) -> Tuple[str, ...]:
        return self._space.names

    def __len__(self) -> int:
        return len(self._types)

    def __iter__(self) -> Iterator[AtomType]:
        return iter(self._types.values())

    def __contains__(self, name: object) -> bool:
        return name in self._types

    def get(self, name: str) -> AtomType:
        try:
            return self._types[name]
        except KeyError:
            raise UnknownAtomTypeError(
                f"unknown atom type {name!r}; known: {list(self._types)}"
            ) from None

    def reconfig_cycles(self, name: str) -> int:
        """Reconfiguration latency of one atom type, in cycles."""
        cycles = self._cycles.get(name)
        if cycles is None:
            return self.get(name).reconfig_cycles  # raises: unknown name
        return cycles

    def average_reconfig_cycles(self) -> float:
        """Mean reconfiguration latency over all atom types.

        The H.264 registry is calibrated so this is close to the paper's
        874.03 us (87,403 cycles at 100 MHz).
        """
        return sum(t.reconfig_cycles for t in self._types.values()) / len(
            self._types
        )

    def __repr__(self) -> str:
        return (
            f"AtomRegistry({len(self._types)} atom types, "
            f"avg {self.average_reconfig_cycles():.0f} cycles/reconfig)"
        )


#: Convenience: the paper's average reconfiguration latency in cycles.
AVERAGE_RECONFIG_CYCLES = RECONFIG_CYCLES_PER_ATOM
