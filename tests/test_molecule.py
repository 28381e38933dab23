"""Unit tests for the Section 4.1 molecule lattice."""

import pytest

from repro import (
    AtomSpace,
    AtomSpaceMismatchError,
    InvalidMoleculeError,
    UnknownAtomTypeError,
    inf,
    sup,
)


class TestAtomSpace:
    def test_names_preserved_in_order(self):
        space = AtomSpace(["X", "Y", "Z"])
        assert space.names == ("X", "Y", "Z")

    def test_size_and_len(self, space):
        assert space.size == 3
        assert len(space) == 3

    def test_iteration_yields_names(self, space):
        assert list(space) == ["A", "B", "C"]

    def test_contains(self, space):
        assert "A" in space
        assert "Q" not in space

    def test_index_roundtrip(self, space):
        for i, name in enumerate(space.names):
            assert space.index(name) == i
            assert space.name(i) == name

    def test_index_unknown_raises(self, space):
        with pytest.raises(UnknownAtomTypeError):
            space.index("NOPE")

    def test_name_out_of_range_raises(self, space):
        with pytest.raises(UnknownAtomTypeError):
            space.name(99)

    def test_empty_space_rejected(self):
        with pytest.raises(InvalidMoleculeError):
            AtomSpace([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidMoleculeError):
            AtomSpace(["A", "A"])

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidMoleculeError):
            AtomSpace(["A", ""])

    def test_equality_by_names(self):
        assert AtomSpace(["A", "B"]) == AtomSpace(["A", "B"])
        assert AtomSpace(["A", "B"]) != AtomSpace(["B", "A"])

    def test_hashable(self):
        assert len({AtomSpace(["A"]), AtomSpace(["A"])}) == 1


class TestConstructors:
    def test_zero(self, space):
        assert space.zero().counts == (0, 0, 0)
        assert space.zero().is_zero

    def test_zero_is_one_cached_molecule(self, space):
        assert space.zero() is space.zero()
        assert space.zero().space is space
        assert space.zero() == space.molecule([0, 0, 0])
        assert hash(space.zero()) == hash(space.molecule([0, 0, 0]))

    def test_top_dominates_everything(self, space):
        top = space.top()
        assert space.molecule({"A": 999}) <= top

    def test_unit(self, space):
        assert space.unit("B").counts == (0, 1, 0)

    def test_units_cover_all_types(self, space):
        units = space.units()
        assert len(units) == 3
        assert sup(units).counts == (1, 1, 1)

    def test_molecule_from_mapping(self, space):
        assert space.molecule({"C": 2}).counts == (0, 0, 2)

    def test_molecule_from_sequence(self, space):
        assert space.molecule([1, 2, 3]).counts == (1, 2, 3)

    def test_wrong_arity_rejected(self, space):
        with pytest.raises(InvalidMoleculeError):
            space.molecule([1, 2])

    def test_negative_counts_rejected(self, space):
        with pytest.raises(InvalidMoleculeError):
            space.molecule([1, -1, 0])


class TestLatticeOperators:
    def test_union_is_componentwise_max(self, space):
        m = space.molecule([2, 0, 1])
        o = space.molecule([1, 3, 1])
        assert (m | o).counts == (2, 3, 1)

    def test_intersection_is_componentwise_min(self, space):
        m = space.molecule([2, 0, 1])
        o = space.molecule([1, 3, 1])
        assert (m & o).counts == (1, 0, 1)

    def test_union_neutral_element(self, space):
        m = space.molecule([2, 0, 1])
        assert (m | space.zero()) == m

    def test_intersection_neutral_element(self, space):
        m = space.molecule([2, 0, 1])
        assert (m & space.top()) == m

    def test_partial_order_le(self, space):
        assert space.molecule([1, 1, 0]) <= space.molecule([1, 2, 0])
        assert not space.molecule([2, 0, 0]) <= space.molecule([1, 2, 0])

    def test_incomparable_molecules(self, space):
        m = space.molecule([2, 0, 0])
        o = space.molecule([0, 2, 0])
        assert not m <= o and not o <= m

    def test_strict_order(self, space):
        assert space.molecule([1, 0, 0]) < space.molecule([1, 1, 0])
        assert not space.molecule([1, 0, 0]) < space.molecule([1, 0, 0])

    def test_ge_gt(self, space):
        assert space.molecule([2, 2, 2]) >= space.molecule([1, 2, 2])
        assert space.molecule([2, 2, 2]) > space.molecule([1, 2, 2])

    def test_determinant(self, space):
        assert space.molecule([1, 2, 3]).determinant == 6

    def test_missing_operator(self, space):
        available = space.molecule([2, 0, 1])
        target = space.molecule([1, 3, 2])
        assert available.missing(target).counts == (0, 3, 1)

    def test_missing_zero_iff_le(self, space):
        a = space.molecule([2, 3, 1])
        t = space.molecule([1, 3, 0])
        assert a.missing(t).determinant == 0
        assert t <= a

    def test_add(self, space):
        assert (
            space.molecule([1, 0, 2]) + space.molecule([0, 1, 1])
        ).counts == (1, 1, 3)

    def test_saturating_sub_transpose_of_missing(self, space):
        a = space.molecule([2, 0, 1])
        b = space.molecule([1, 3, 1])
        assert a.saturating_sub(b) == b.missing(a)

    def test_cross_space_operations_rejected(self, space):
        other = AtomSpace(["X", "Y", "Z"])
        with pytest.raises(AtomSpaceMismatchError):
            space.zero() | other.zero()

    def test_cross_space_compare_rejected(self, space):
        other = AtomSpace(["X", "Y", "Z"])
        with pytest.raises(AtomSpaceMismatchError):
            space.zero() <= other.zero()

    def test_non_molecule_operand_rejected(self, space):
        with pytest.raises(TypeError):
            space.zero() | 3


class TestMoleculeViews:
    def test_count_by_name(self, space):
        m = space.molecule({"B": 4})
        assert m.count("B") == 4
        assert m.count("A") == 0

    def test_as_dict_skips_zeros(self, space):
        assert space.molecule({"B": 4}).as_dict() == {"B": 4}

    def test_as_dict_include_zero(self, space):
        d = space.molecule({"B": 4}).as_dict(include_zero=True)
        assert d == {"A": 0, "B": 4, "C": 0}

    def test_atom_names(self, space):
        assert space.molecule({"A": 1, "C": 2}).atom_names() == ("A", "C")

    def test_iter_atom_instances(self, space):
        m = space.molecule({"A": 2, "C": 1})
        assert list(m.iter_atom_instances()) == ["A", "A", "C"]

    def test_equality_and_hash(self, space):
        assert space.molecule([1, 2, 0]) == space.molecule([1, 2, 0])
        assert len({space.molecule([1, 2, 0]),
                    space.molecule([1, 2, 0])}) == 1

    def test_inequality(self, space):
        assert space.molecule([1, 2, 0]) != space.molecule([1, 2, 1])
        assert space.molecule([1, 2, 0]) != "not a molecule"

    def test_repr_mentions_nonzero(self, space):
        assert "B=2" in repr(space.molecule({"B": 2}))

    def test_repr_zero(self, space):
        assert "0" in repr(space.zero())


class TestSupInf:
    def test_sup_of_set(self, space):
        ms = [space.molecule([1, 0, 2]), space.molecule([0, 3, 1])]
        assert sup(ms).counts == (1, 3, 2)

    def test_sup_dominates_members(self, space):
        ms = [space.molecule([1, 0, 2]), space.molecule([0, 3, 1])]
        s = sup(ms)
        assert all(m <= s for m in ms)

    def test_inf_of_set(self, space):
        ms = [space.molecule([1, 2, 2]), space.molecule([2, 1, 2])]
        assert inf(ms).counts == (1, 1, 2)

    def test_inf_below_members(self, space):
        ms = [space.molecule([1, 2, 2]), space.molecule([2, 1, 2])]
        i = inf(ms)
        assert all(i <= m for m in ms)

    def test_sup_empty_needs_space(self, space):
        from repro import InvalidMoleculeError

        with pytest.raises(InvalidMoleculeError):
            sup([])
        assert sup([], space) == space.zero()

    def test_inf_empty_needs_space(self, space):
        from repro import InvalidMoleculeError

        with pytest.raises(InvalidMoleculeError):
            inf([])
        assert inf([], space) == space.top()

    def test_sup_singleton(self, space):
        m = space.molecule([1, 1, 1])
        assert sup([m]) == m
