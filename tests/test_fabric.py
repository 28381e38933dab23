"""Tests for the fabric substrate: atoms, containers, AC array."""

import pytest

from repro import (
    AtomRegistry,
    AtomType,
    CapacityError,
    Fabric,
    FabricError,
    InvalidMoleculeError,
)
from repro.calibration import bitstream_bytes_to_cycles
from repro.fabric.container import AtomContainer


class TestAtomType:
    def test_reconfig_cycles_from_bitstream(self):
        atom = AtomType("X", bitstream_bytes=66_000_000)
        # 66 MB at 66 MB/s = 1 s = 100M cycles at 100 MHz.
        assert atom.reconfig_cycles == 100_000_000

    def test_defaults_match_paper_average(self):
        atom = AtomType("X")
        assert atom.bitstream_bytes == 60_488

    def test_invalid_sizes_rejected(self):
        with pytest.raises(InvalidMoleculeError):
            AtomType("X", bitstream_bytes=0)
        with pytest.raises(InvalidMoleculeError):
            AtomType("X", slices=0)
        with pytest.raises(InvalidMoleculeError):
            AtomType("")


class TestAtomRegistry:
    def test_space_induced_in_order(self, toy_registry):
        assert toy_registry.space.names == ("A", "B", "C")

    def test_uniform_constructor(self):
        registry = AtomRegistry.uniform(["X", "Y"], bitstream_bytes=1000)
        assert all(t.bitstream_bytes == 1000 for t in registry)

    def test_duplicate_rejected(self):
        with pytest.raises(InvalidMoleculeError):
            AtomRegistry([AtomType("X"), AtomType("X")])

    def test_empty_rejected(self):
        with pytest.raises(InvalidMoleculeError):
            AtomRegistry([])

    def test_unknown_lookup(self, toy_registry):
        from repro import UnknownAtomTypeError

        with pytest.raises(UnknownAtomTypeError):
            toy_registry.get("NOPE")

    def test_average_reconfig_cycles(self):
        registry = AtomRegistry(
            [AtomType("X", bitstream_bytes=1_000),
             AtomType("Y", bitstream_bytes=3_000)]
        )
        expected = (
            bitstream_bytes_to_cycles(1_000)
            + bitstream_bytes_to_cycles(3_000)
        ) / 2
        assert registry.average_reconfig_cycles() == expected


class TestContainer:
    def test_lifecycle(self):
        ac = AtomContainer(0)
        assert ac.is_empty
        ac.begin_load("X", now=10)
        assert ac.is_loading and ac.atom_type == "X"
        ac.complete_load(now=110)
        assert ac.is_loaded and ac.loaded_at == 110
        ac.evict()
        assert ac.is_empty and ac.atom_type is None

    def test_begin_load_while_loading_rejected(self):
        ac = AtomContainer(0)
        ac.begin_load("X", now=0)
        with pytest.raises(FabricError):
            ac.begin_load("Y", now=1)

    def test_complete_without_loading_rejected(self):
        ac = AtomContainer(0)
        with pytest.raises(FabricError):
            ac.complete_load(now=0)

    def test_evict_empty_rejected(self):
        ac = AtomContainer(0)
        with pytest.raises(FabricError):
            ac.evict()

    def test_reload_overwrites_previous_atom(self):
        ac = AtomContainer(0)
        ac.begin_load("X", now=0)
        ac.complete_load(now=10)
        ac.begin_load("Y", now=20)
        # Partial reconfiguration overwrites: the old atom is unusable
        # the moment writing starts.
        assert ac.is_loading and ac.atom_type == "Y"


class TestFabric:
    def test_available_counts_only_loaded(self, toy_registry):
        fabric = Fabric(toy_registry, 3)
        fabric.begin_load("A", 0, fabric.space.zero())
        assert fabric.available().is_zero
        fabric.containers[0].complete_load(10)
        assert fabric.available() == fabric.space.unit("A")

    def test_prefers_empty_containers(self, toy_registry):
        fabric = Fabric(toy_registry, 2)
        c0 = fabric.begin_load("A", 0, fabric.space.zero())
        c0.complete_load(1)
        c1 = fabric.begin_load("B", 2, fabric.space.zero())
        assert c1.index != c0.index

    def test_evicts_stale_lru(self, toy_registry):
        fabric = Fabric(toy_registry, 2)
        space = fabric.space
        a = fabric.begin_load("A", 0, space.zero())
        a.complete_load(1)
        b = fabric.begin_load("B", 2, space.zero())
        b.complete_load(3)
        fabric.touch_atoms([("A", 1)], 10)  # A recently used
        retained = space.unit("A")  # plan keeps A, B is stale
        c = fabric.begin_load("C", 20, retained)
        assert c.index == b.index  # B was evicted
        assert fabric.num_evictions == 1

    def test_retained_atoms_not_evicted(self, toy_registry):
        fabric = Fabric(toy_registry, 1)
        space = fabric.space
        a = fabric.begin_load("A", 0, space.zero())
        a.complete_load(1)
        with pytest.raises(CapacityError):
            fabric.begin_load("B", 2, retained=space.unit("A"))

    def test_capacity_error_when_full_of_loading(self, toy_registry):
        fabric = Fabric(toy_registry, 1)
        fabric.begin_load("A", 0, fabric.space.zero())
        with pytest.raises(CapacityError):
            fabric.begin_load("B", 1, fabric.space.zero())

    def test_multiset_retention(self, toy_registry):
        # Two A atoms loaded, plan retains only one: the other is
        # evictable.
        fabric = Fabric(toy_registry, 2)
        space = fabric.space
        for now in (0, 1):
            fabric.begin_load("A", now, space.zero()).complete_load(now + 1)
        retained = space.unit("A")
        fabric.begin_load("B", 5, retained)
        assert fabric.loaded_count("A") == 1

    def test_occupancy_and_repr(self, toy_registry):
        fabric = Fabric(toy_registry, 3)
        fabric.begin_load("A", 0, fabric.space.zero()).complete_load(1)
        assert fabric.occupancy() == {"A": 1}
        assert "1 loaded" in repr(fabric)

    def test_reset(self, toy_registry):
        fabric = Fabric(toy_registry, 2)
        fabric.begin_load("A", 0, fabric.space.zero()).complete_load(1)
        fabric.reset()
        assert fabric.available().is_zero
        assert fabric.num_evictions == 0

    def test_negative_ac_count_rejected(self, toy_registry):
        with pytest.raises(FabricError):
            Fabric(toy_registry, -1)

    def test_unknown_atom_rejected(self, toy_registry):
        fabric = Fabric(toy_registry, 2)
        with pytest.raises(FabricError):
            fabric.begin_load("NOPE", 0, fabric.space.zero())
