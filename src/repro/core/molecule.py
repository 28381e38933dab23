"""The molecule lattice of Section 4.1.

The paper models every Special-Instruction implementation as a vector over
the ``n`` available atom types: a **molecule** ``m = (m_1, ..., m_n)`` where
``m_i`` is the number of instances of atom type ``i`` that the
implementation uses.  On the set of all such vectors the paper defines

* a union ``m ∪ o`` with ``p_i = max(m_i, o_i)`` — the *meta-molecule*
  containing the atoms required to implement both operands,
* an intersection ``m ∩ o`` with ``p_i = min(m_i, o_i)``,
* the partial order ``m <= o  iff  m_i <= o_i for all i``,
* the determinant ``|m| = sum_i m_i`` — the total number of atoms,
* the operator ``a ⊖ m`` ("missing") with ``p_i = max(0, m_i - a_i)`` — the
  minimum set of atoms that additionally have to be loaded to implement
  ``m`` when the atoms of ``a`` are already available.

``(N^n, ∪)`` and ``(N^n, ∩)`` are Abelian semi-groups and ``(N^n, <=)`` is
a complete lattice: every non-empty set of molecules has a well-defined
supremum (:func:`sup`) and infimum (:func:`inf`).  All of that structure is
implemented here on immutable, hashable :class:`Molecule` values bound to a
shared :class:`AtomSpace`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from ..errors import (
    AtomSpaceMismatchError,
    InvalidMoleculeError,
    UnknownAtomTypeError,
)

__all__ = ["AtomSpace", "Molecule", "sup", "inf"]


class AtomSpace:
    """An ordered, immutable registry of atom-type names.

    Molecules are count vectors whose positions are defined by an atom
    space; two molecules may only be combined when they share the same
    space instance (or an equal one — equality is by name tuple).

    Parameters
    ----------
    atom_names:
        The atom-type names, in vector order.  Names must be unique and
        non-empty.
    """

    __slots__ = ("_names", "_index", "_zero")

    def __init__(self, atom_names: Sequence[str]) -> None:
        names = tuple(atom_names)
        if not names:
            raise InvalidMoleculeError("an atom space needs at least one atom type")
        if len(set(names)) != len(names):
            raise InvalidMoleculeError(f"duplicate atom-type names in {names!r}")
        if any(not isinstance(n, str) or not n for n in names):
            raise InvalidMoleculeError("atom-type names must be non-empty strings")
        self._names: Tuple[str, ...] = names
        self._index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        #: Molecules are immutable, so one zero serves every caller.
        self._zero = Molecule._make(self, (0,) * len(names))

    @property
    def names(self) -> Tuple[str, ...]:
        """The atom-type names in vector order."""
        return self._names

    @property
    def size(self) -> int:
        """The dimensionality ``n`` of the molecule vectors."""
        return len(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AtomSpace):
            return NotImplemented
        return self._names == other._names

    def __hash__(self) -> int:
        return hash(self._names)

    def __repr__(self) -> str:
        return f"AtomSpace({list(self._names)!r})"

    def index(self, name: str) -> int:
        """Return the vector position of atom type ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAtomTypeError(
                f"unknown atom type {name!r}; known: {list(self._names)}"
            ) from None

    def name(self, position: int) -> str:
        """Return the atom-type name at vector ``position``."""
        try:
            return self._names[position]
        except IndexError:
            raise UnknownAtomTypeError(
                f"atom position {position} out of range 0..{len(self._names) - 1}"
            ) from None

    # -- molecule constructors -------------------------------------------

    def zero(self) -> "Molecule":
        """The neutral element of ``∪``: the all-zero molecule.

        This is also how the paper models the pure-software implementation
        of an SI — it needs no atoms at all.  Every call returns the
        same (immutable) instance.
        """
        return self._zero

    #: Stand-in for the paper's "maxInt" components of the top molecule.
    MAXINT = 2 ** 30

    def top(self, count: int = MAXINT) -> "Molecule":
        """The neutral element of ``∩``: ``(maxInt, ..., maxInt)``.

        A finite stand-in (2**30 per component by default) is used so the
        value stays an ordinary integer vector.
        """
        return Molecule(self, (count,) * self.size)

    def unit(self, name: str) -> "Molecule":
        """The unit molecule ``u_i`` for atom type ``name``.

        Unit molecules represent the loading of one single atom; they are
        the codomain of the scheduling function SF (equation (1)).
        """
        counts = [0] * self.size
        counts[self.index(name)] = 1
        return Molecule(self, tuple(counts))

    def units(self) -> Tuple["Molecule", ...]:
        """All ``n`` unit molecules, in vector order."""
        return tuple(self.unit(name) for name in self._names)

    def molecule(self, counts: Union[Mapping[str, int], Sequence[int]]) -> "Molecule":
        """Build a molecule either from a name->count mapping or a full
        count vector.

        >>> space = AtomSpace(["A", "B"])
        >>> space.molecule({"B": 3}).counts
        (0, 3)
        >>> space.molecule([2, 1]).counts
        (2, 1)
        """
        if isinstance(counts, Mapping):
            vector = [0] * self.size
            for name, count in counts.items():
                vector[self.index(name)] = count
            return Molecule(self, tuple(vector))
        return Molecule(self, tuple(counts))


class Molecule:
    """An immutable atom-count vector over an :class:`AtomSpace`.

    Supports the full Section-4.1 algebra:

    ``m | o``
        union / meta-molecule (component-wise max),
    ``m & o``
        intersection (component-wise min),
    ``m <= o`` / ``m < o`` / ``m >= o`` / ``m > o``
        the lattice partial order (``<`` means ``<=`` and not equal; note
        that two distinct molecules may be *incomparable*),
    ``a.missing(m)`` (equivalently ``a ⊖ m``)
        the atoms still required for ``m`` given the available atoms ``a``,
    ``m.determinant``
        ``|m|``, the total atom count,
    ``m + o``
        plain component-wise addition (used by the fabric to accumulate
        loaded atom instances — not part of the paper's algebra but a
        convenient companion).
    """

    __slots__ = ("_space", "_counts", "_hash")

    def __init__(self, space: AtomSpace, counts: Sequence[int]) -> None:
        counts = tuple(int(c) for c in counts)
        if len(counts) != space.size:
            raise InvalidMoleculeError(
                f"molecule has {len(counts)} components but the atom space "
                f"defines {space.size} atom types"
            )
        if any(c < 0 for c in counts):
            raise InvalidMoleculeError(f"negative atom counts in {counts!r}")
        self._space = space
        self._counts = counts
        self._hash = hash((space.names, counts))

    @classmethod
    def _make(cls, space: AtomSpace, counts: Tuple[int, ...]) -> "Molecule":
        """Internal fast path: build from an already-valid count tuple.

        The lattice operators produce structurally valid vectors by
        construction, so they skip the public constructor's validation.
        """
        self = object.__new__(cls)
        self._space = space
        self._counts = counts
        self._hash = hash((space.names, counts))
        return self

    # -- basic accessors ---------------------------------------------------

    @property
    def space(self) -> AtomSpace:
        """The atom space this molecule is defined over."""
        return self._space

    @property
    def counts(self) -> Tuple[int, ...]:
        """The raw count vector."""
        return self._counts

    @property
    def determinant(self) -> int:
        """``|m|`` — the total number of atom instances the molecule uses."""
        return sum(self._counts)

    @property
    def is_zero(self) -> bool:
        """True for the all-zero (pure software) molecule."""
        # Counts are non-negative, so zero-ness is just emptiness under
        # any() — which runs at C speed on the tuple (this property sits
        # on simulator hot paths).
        return not any(self._counts)

    def count(self, name: str) -> int:
        """The number of instances of atom type ``name``."""
        return self._counts[self._space.index(name)]

    def as_dict(self, include_zero: bool = False) -> Dict[str, int]:
        """Return the molecule as a name->count mapping.

        By default only non-zero entries are included.
        """
        return {
            name: count
            for name, count in zip(self._space.names, self._counts)
            if include_zero or count
        }

    def atom_names(self) -> Tuple[str, ...]:
        """Names of the atom types used (count > 0), in vector order."""
        return tuple(
            name for name, count in zip(self._space.names, self._counts) if count
        )

    def iter_atom_instances(self) -> Iterator[str]:
        """Yield one atom-type name per required atom *instance*.

        A molecule ``(2, 1)`` over ``(A, B)`` yields ``A, A, B``.  This is
        the expansion a scheduler performs when it turns a molecule-level
        upgrade step into individual unit-molecule loads.
        """
        for name, count in zip(self._space.names, self._counts):
            for _ in range(count):
                yield name

    # -- lattice algebra ---------------------------------------------------

    def _check_space(self, other: "Molecule") -> None:
        if not isinstance(other, Molecule):
            raise TypeError(f"expected a Molecule, got {type(other).__name__}")
        if self._space != other._space:
            raise AtomSpaceMismatchError(
                f"molecules live in different atom spaces: "
                f"{self._space!r} vs {other._space!r}"
            )

    def union(self, other: "Molecule") -> "Molecule":
        """``m ∪ o`` — the meta-molecule implementing both operands."""
        self._check_space(other)
        return Molecule._make(
            self._space,
            tuple(map(max, self._counts, other._counts)),
        )

    def intersection(self, other: "Molecule") -> "Molecule":
        """``m ∩ o`` — the atoms collectively needed by both operands."""
        self._check_space(other)
        return Molecule._make(
            self._space,
            tuple(map(min, self._counts, other._counts)),
        )

    def missing(self, target: "Molecule") -> "Molecule":
        """``self ⊖ target`` — atoms still to be loaded for ``target``.

        ``self`` is interpreted as the *available* atoms; the result has
        ``p_i = max(0, target_i - self_i)``.  Consequently
        ``self.missing(target).determinant == 0`` iff ``target <= self``.
        """
        self._check_space(target)
        return Molecule._make(
            self._space,
            tuple(t - a if t > a else 0
                  for a, t in zip(self._counts, target._counts)),
        )

    def add(self, other: "Molecule") -> "Molecule":
        """Component-wise sum (fabric bookkeeping helper)."""
        self._check_space(other)
        return Molecule._make(
            self._space,
            tuple(a + b for a, b in zip(self._counts, other._counts)),
        )

    def saturating_sub(self, other: "Molecule") -> "Molecule":
        """Component-wise ``max(0, self_i - other_i)`` (fabric helper).

        Note the operand order is the transpose of :meth:`missing`:
        ``a.saturating_sub(b) == b.missing(a)``.
        """
        self._check_space(other)
        return Molecule._make(
            self._space,
            tuple(a - b if a > b else 0
                  for a, b in zip(self._counts, other._counts)),
        )

    # operator sugar

    def __or__(self, other: "Molecule") -> "Molecule":
        return self.union(other)

    def __and__(self, other: "Molecule") -> "Molecule":
        return self.intersection(other)

    def __add__(self, other: "Molecule") -> "Molecule":
        return self.add(other)

    def __le__(self, other: "Molecule") -> bool:
        self._check_space(other)
        return all(a <= b for a, b in zip(self._counts, other._counts))

    def __ge__(self, other: "Molecule") -> bool:
        self._check_space(other)
        return all(a >= b for a, b in zip(self._counts, other._counts))

    def __lt__(self, other: "Molecule") -> bool:
        return self <= other and self._counts != other._counts

    def __gt__(self, other: "Molecule") -> bool:
        return self >= other and self._counts != other._counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Molecule):
            return NotImplemented
        return self._space == other._space and self._counts == other._counts

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return NotImplemented
        return not eq

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={count}"
            for name, count in zip(self._space.names, self._counts)
            if count
        )
        return f"Molecule({inner or '0'})"


def sup(molecules: Iterable[Molecule], space: Optional[AtomSpace] = None) -> Molecule:
    """Supremum of a set of molecules: ``sup M = ∪_{m in M} m``.

    The result is the meta-molecule declaring all atoms needed to implement
    *any* molecule of ``M`` (``for all m in M: m <= sup M``).  For an empty
    iterable the neutral element of ``∪`` (the zero molecule) is returned,
    which requires ``space`` to be given.
    """
    result: Optional[Molecule] = None
    for molecule in molecules:
        result = molecule if result is None else result | molecule
    if result is None:
        if space is None:
            raise InvalidMoleculeError(
                "sup of an empty molecule set needs an explicit atom space"
            )
        return space.zero()
    return result


def inf(molecules: Iterable[Molecule], space: Optional[AtomSpace] = None) -> Molecule:
    """Infimum of a set of molecules: ``inf M = ∩_{m in M} m``.

    The result contains the atoms that are *collectively* needed by all
    molecules of ``M``.  For an empty iterable the neutral element of ``∩``
    (the top molecule) is returned, which requires ``space`` to be given.
    """
    result: Optional[Molecule] = None
    for molecule in molecules:
        result = molecule if result is None else result & molecule
    if result is None:
        if space is None:
            raise InvalidMoleculeError(
                "inf of an empty molecule set needs an explicit atom space"
            )
        return space.top()
    return result
