"""The Atom-Container array with its placement/eviction policy.

The fabric tracks which atom sits in which container and answers the one
question the run-time system keeps asking: *which atoms are usable right
now* (as a molecule vector).  When the configuration port starts a load
it asks the fabric for a container; the fabric prefers empty containers
and otherwise evicts a *stale* atom — one whose loaded instance count
exceeds what the current hot-spot plan retains — least-recently-used
first.

Molecule selection guarantees ``NA <= #ACs``, so as long as the port only
loads atoms of the current plan a victim container always exists; a
:class:`~repro.errors.CapacityError` therefore indicates a scheduler or
selection bug, not an expected run-time condition.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.molecule import AtomSpace, Molecule
from ..errors import CapacityError, ContainerFaultError, FabricError
from ..obs.events import Eviction
from ..obs.tracer import NULL_TRACER, Tracer
from .atom import AtomRegistry
from .container import AtomContainer, ContainerState
from .eviction import EvictionPolicy, LRUEviction

__all__ = ["Fabric"]


class Fabric:
    """An array of Atom Containers.

    Parameters
    ----------
    registry:
        The atom-type registry (defines the atom space).
    num_acs:
        Number of Atom Containers.
    tracer:
        Observability sink for eviction events; no-op when omitted.
    """

    def __init__(
        self,
        registry: AtomRegistry,
        num_acs: int,
        eviction_policy: Optional[EvictionPolicy] = None,
        tracer: Optional[Tracer] = None,
    ):
        if num_acs < 0:
            raise FabricError(f"negative AC count: {num_acs}")
        self.registry = registry
        self.num_acs = int(num_acs)
        self.eviction_policy = (
            eviction_policy if eviction_policy is not None else LRUEviction()
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.containers: List[AtomContainer] = [
            AtomContainer(i) for i in range(self.num_acs)
        ]
        for container in self.containers:
            container.owner = self
        self._evictions = 0
        self._dead = 0
        #: Loaded containers grouped by atom type, kept current by the
        #: containers' owner notifications (so it stays exact even when
        #: containers are driven directly).  ``_loaded_ver`` bumps on
        #: every edge — an exact, cheap version stamp for availability
        #: snapshots.
        self._loaded_groups: Dict[str, List[AtomContainer]] = {}
        self._loaded_ver = 0
        #: Atom-space position per type and the loaded counts in vector
        #: order — the incrementally maintained :meth:`available` answer.
        self._pos: Dict[str, int] = registry.space._index
        self._avail_counts: List[int] = [0] * registry.space.size
        #: Indices of EMPTY containers (exact, owner-notified); the
        #: placement rule "first empty container" is ``min`` of this set.
        self._empty: Set[int] = {c.index for c in self.containers}

    # -- container owner notifications -----------------------------------------

    def _container_loaded(self, container: AtomContainer) -> None:
        atom_type = container.atom_type
        assert atom_type is not None
        group = self._loaded_groups.get(atom_type)
        if group is None:
            self._loaded_groups[atom_type] = [container]
        else:
            group.append(container)
        self._avail_counts[self._pos[atom_type]] += 1
        self._loaded_ver += 1

    def _container_unloaded(self, container: AtomContainer) -> None:
        atom_type = container.atom_type
        assert atom_type is not None
        self._loaded_groups[atom_type].remove(container)
        self._avail_counts[self._pos[atom_type]] -= 1
        self._loaded_ver += 1

    def _container_emptied(self, container: AtomContainer) -> None:
        self._empty.add(container.index)

    def _container_filled(self, container: AtomContainer) -> None:
        self._empty.discard(container.index)

    @property
    def space(self) -> AtomSpace:
        return self.registry.space

    @property
    def num_evictions(self) -> int:
        """How many loaded atoms were evicted so far (statistics)."""
        return self._evictions

    @property
    def empty_count(self) -> int:
        """Number of EMPTY containers right now."""
        return len(self._empty)

    @property
    def dead_count(self) -> int:
        """Number of permanently faulty (unusable) containers.

        Maintained as a counter (containers only die through
        :meth:`kill_container`) because the degradation checks sit on
        the simulators' per-span hot path.
        """
        return self._dead

    @property
    def usable_acs(self) -> int:
        """The *effective* AC budget: total minus dead containers.

        The Run-Time Manager plans molecule selections against this
        number, so plans keep fitting as containers die.
        """
        return self.num_acs - self.dead_count

    @property
    def is_degraded(self) -> bool:
        """Whether the fabric lost at least one container to a fault."""
        return self.dead_count > 0

    # -- availability ----------------------------------------------------------

    def available(self) -> Molecule:
        """The loaded (usable) atoms as a molecule vector.

        Atoms that are still being written do not count — an atom is
        usable on an as-soon-as-available basis, i.e. from the cycle its
        reconfiguration completes.
        """
        return Molecule._make(self.registry.space, tuple(self._avail_counts))

    def loaded_count(self, atom_type: str) -> int:
        """Number of usable instances of one atom type."""
        group = self._loaded_groups.get(atom_type)
        return len(group) if group is not None else 0

    def in_flight(self) -> Optional[str]:
        """The atom type currently being written, if any."""
        for container in self.containers:
            if container.is_loading:
                return container.atom_type
        return None

    def occupancy(self) -> Dict[str, int]:
        """Loaded atom-type counts (diagnostics)."""
        result: Dict[str, int] = {}
        for container in self.containers:
            if container.is_loaded:
                result[container.atom_type] = (
                    result.get(container.atom_type, 0) + 1
                )
        return result

    def container_states(self) -> str:
        """Compact per-container state listing (diagnostics)."""
        parts = []
        for c in self.containers:
            if c.atom_type is not None:
                parts.append(f"AC{c.index}={c.state.value}({c.atom_type})")
            else:
                parts.append(f"AC{c.index}={c.state.value}")
        return ", ".join(parts) if parts else "<no containers>"

    # -- faults ----------------------------------------------------------------

    def kill_container(self, index: int) -> None:
        """Permanently retire one container (hard-fault injection).

        A loading or loaded atom in the container is lost.  The fabric's
        :attr:`usable_acs` budget shrinks accordingly.

        Raises
        ------
        ContainerFaultError
            For an unknown index or an already-dead container.
        """
        if not 0 <= index < self.num_acs:
            raise ContainerFaultError(
                f"cannot kill AC{index}: fabric has {self.num_acs} "
                f"containers"
            )
        container = self.containers[index]
        if container.is_loading:
            container.fail_load()
        container.mark_faulty()
        self._dead += 1

    # -- placement / eviction ----------------------------------------------------

    def _pick_victim(self, retained: Molecule) -> Optional[AtomContainer]:
        """A loaded container whose atom exceeds the retained multiset.

        ``retained`` is the meta-molecule of atoms the current plan wants
        to keep (typically ``sup(M)`` of the active selection).  The
        configured eviction policy chooses among the stale candidates.
        """
        retained_counts = retained.counts
        pos = self._pos
        candidates: List[AtomContainer] = []
        for atom_type, group in self._loaded_groups.items():
            if group and len(group) > retained_counts[pos[atom_type]]:
                candidates.extend(group)
        if not candidates:
            return None
        # The loaded-group index only ever holds LOADED containers, so
        # the validation pass of EvictionPolicy.select (a re-filter plus
        # membership check, per eviction) is redundant here; go straight
        # to the policy's choice.
        return self.eviction_policy.choose(candidates)

    def begin_load(
        self, atom_type: str, now: int, retained: Molecule
    ) -> AtomContainer:
        """Allocate a container and start loading ``atom_type`` into it.

        Empty containers are used first; otherwise a stale atom (w.r.t.
        ``retained``) is evicted, LRU first.

        Raises
        ------
        CapacityError
            When neither a free nor an evictable container exists.
        """
        target = self.try_begin_load(atom_type, now, retained)
        if target is None:
            raise self.capacity_error(atom_type, retained)
        return target

    def try_begin_load(
        self, atom_type: str, now: int, retained: Molecule
    ) -> Optional[AtomContainer]:
        """:meth:`begin_load`, but None (and no change) when no room.

        For callers that expect a full fabric, such as the speculative
        prefetch lane: they skip building the :class:`CapacityError`
        message, which describes every container.
        """
        if atom_type not in self.registry:
            raise FabricError(f"unknown atom type {atom_type!r}")
        target: Optional[AtomContainer] = None
        if self._empty:
            # Placement rule: the first (lowest-index) empty container.
            target = self.containers[min(self._empty)]
        if target is None:
            target = self._pick_victim(retained)
            if target is None:
                return None
            if self.tracer.enabled:
                self.tracer.emit(
                    Eviction(
                        cycle=now,
                        atom_type=target.atom_type,
                        container_index=target.index,
                    )
                )
            target.evict()
            self._evictions += 1
        target.begin_load(atom_type, now)
        return target

    def capacity_error(
        self, atom_type: str, retained: Molecule
    ) -> CapacityError:
        """The error for a load of ``atom_type`` that found no room."""
        return CapacityError(
            f"no free or evictable AC for atom {atom_type!r}: "
            f"{self.usable_acs}/{self.num_acs} ACs usable "
            f"({self.dead_count} dead), retained meta-molecule "
            f"{retained.as_dict()}, per-container occupancy: "
            f"{self.container_states()}"
        )

    def touch_atoms(
        self, atoms: Iterable[Tuple[str, int]], now: int
    ) -> None:
        """Mark the loaded instances serving ``atoms`` as just used.

        ``atoms`` holds ``(atom type, count)`` pairs, one per atom type
        in use, so a span touches only the types its SIs run on.  Keeps
        the LRU eviction honest: atoms that execute SIs stay, leftovers
        from previous hot spots age out first.
        """
        groups = self._loaded_groups
        for atom_type, wanted in atoms:
            group = groups.get(atom_type)
            if not group:
                continue
            if len(group) > wanted:
                # Most-recently-used first; only the instances actually
                # serving the molecule are refreshed.
                group = sorted(group, key=lambda c: (-c.last_used, c.index))
                group = group[:wanted]
            for container in group:
                container.last_used = now
                container.use_count += 1

    def reset(self) -> None:
        """Clear all containers (cold fabric), in place.

        The fabric keeps its container objects; each returns to the
        state of a new one, and every index follows.  The version stamp
        still moves on, so no availability snapshot outlives a reset.
        """
        for container in self.containers:
            container.reset()
        self._evictions = 0
        self._dead = 0
        self._loaded_groups = {}
        self._avail_counts = [0] * self.registry.space.size
        self._empty = {c.index for c in self.containers}
        self._loaded_ver += 1

    def __repr__(self) -> str:
        loaded = sum(1 for c in self.containers if c.is_loaded)
        loading = sum(1 for c in self.containers if c.is_loading)
        dead = self.dead_count
        empty = self.num_acs - loaded - loading - dead
        desc = f"{loaded} loaded, {loading} loading, {empty} empty"
        if dead:
            desc += f", {dead} dead"
        return f"Fabric({self.num_acs} ACs: {desc})"
