"""Atom Containers — the reconfigurable regions of the fabric.

An **Atom Container (AC)** is a small reconfigurable region (1024 slices
in the prototype) that can be dynamically loaded with one atom.  A
container is either empty, currently being written by the configuration
port, or holding a loaded (usable) atom.
"""

from __future__ import annotations

import enum
from typing import Optional, Protocol

from ..errors import ContainerFaultError, FabricError, TransientLoadError

__all__ = ["ContainerState", "AtomContainer"]


class _ContainerOwner(Protocol):
    """What a container reports its state edges to."""

    def _container_loaded(self, container: "AtomContainer") -> None: ...

    def _container_unloaded(self, container: "AtomContainer") -> None: ...

    def _container_emptied(self, container: "AtomContainer") -> None: ...

    def _container_filled(self, container: "AtomContainer") -> None: ...


class ContainerState(enum.Enum):
    """Life cycle of an Atom Container."""

    EMPTY = "empty"
    LOADING = "loading"
    LOADED = "loaded"
    #: Permanently dead (hard fault / wear-out); never usable again.
    FAULTY = "faulty"


class AtomContainer:
    """State of a single Atom Container."""

    __slots__ = (
        "index", "state", "atom_type", "loaded_at", "last_used",
        "use_count", "owner",
    )

    def __init__(self, index: int):
        self.index = int(index)
        self.state = ContainerState.EMPTY
        #: Name of the atom currently loading/loaded, or None when empty.
        self.atom_type: Optional[str] = None
        #: Cycle at which the current atom finished loading.
        self.loaded_at: int = -1
        #: Cycle of the last SI execution that used this atom (LRU key).
        self.last_used: int = -1
        #: Number of uses since the atom was loaded (LFU key).
        self.use_count: int = 0
        #: The owning fabric, notified on loaded-set transitions so it
        #: can keep its per-type container index without rescanning.
        #: The notification sits here (not in the fabric methods)
        #: because containers are legitimately driven directly in tests
        #: and tools — every loaded/unloaded edge passes through these
        #: state methods.
        self.owner: Optional["_ContainerOwner"] = None

    def reset(self) -> None:
        """Return to the state of a new container (a fresh board: a
        dead container is repaired).  The owner is not notified; it
        resets its own index alongside."""
        self.state = ContainerState.EMPTY
        self.atom_type = None
        self.loaded_at = -1
        self.last_used = -1
        self.use_count = 0

    @property
    def is_empty(self) -> bool:
        return self.state is ContainerState.EMPTY

    @property
    def is_loaded(self) -> bool:
        return self.state is ContainerState.LOADED

    @property
    def is_loading(self) -> bool:
        return self.state is ContainerState.LOADING

    @property
    def is_faulty(self) -> bool:
        return self.state is ContainerState.FAULTY

    def begin_load(self, atom_type: str, now: int) -> None:
        """Start writing ``atom_type`` into this container.

        Any previously loaded atom is evicted at this moment — partial
        reconfiguration overwrites the region, so the old atom stops
        being usable as soon as the write begins.
        """
        if self.is_loading:
            raise FabricError(
                f"AC{self.index} is already being reconfigured "
                f"(with {self.atom_type})"
            )
        if self.is_faulty:
            raise ContainerFaultError(
                f"AC{self.index} is permanently faulty and cannot be loaded"
            )
        if self.owner is not None:
            if self.state is ContainerState.LOADED:
                self.owner._container_unloaded(self)
            elif self.state is ContainerState.EMPTY:
                self.owner._container_filled(self)
        self.state = ContainerState.LOADING
        self.atom_type = atom_type
        self.loaded_at = -1
        self.last_used = now
        self.use_count = 0

    def complete_load(self, now: int) -> None:
        """The configuration port finished writing this container."""
        if not self.is_loading:
            raise FabricError(
                f"AC{self.index} completed a load but was not loading"
            )
        self.state = ContainerState.LOADED
        self.loaded_at = now
        self.last_used = now
        if self.owner is not None:
            self.owner._container_loaded(self)

    def fail_load(self) -> None:
        """The write into this container failed transiently.

        The partial bitstream is garbage, so the container reverts to
        empty (the previous atom was already overwritten when the load
        began); the region itself stays healthy and re-loadable.
        """
        if not self.is_loading:
            raise TransientLoadError(
                f"AC{self.index} reported a load failure but was not loading"
            )
        self.state = ContainerState.EMPTY
        self.atom_type = None
        self.loaded_at = -1
        self.use_count = 0
        if self.owner is not None:
            self.owner._container_emptied(self)

    def mark_faulty(self) -> None:
        """Permanently retire this container (hard fault / wear-out)."""
        if self.is_faulty:
            raise ContainerFaultError(
                f"AC{self.index} is already marked faulty"
            )
        if self.owner is not None:
            if self.state is ContainerState.LOADED:
                self.owner._container_unloaded(self)
            elif self.state is ContainerState.EMPTY:
                self.owner._container_filled(self)
        self.state = ContainerState.FAULTY
        self.atom_type = None
        self.loaded_at = -1
        self.use_count = 0

    def evict(self) -> None:
        """Drop the loaded atom (bookkeeping-only; no port time needed)."""
        if not self.is_loaded:
            raise FabricError(f"cannot evict AC{self.index}: not loaded")
        if self.owner is not None:
            self.owner._container_unloaded(self)
        self.state = ContainerState.EMPTY
        self.atom_type = None
        self.loaded_at = -1
        self.use_count = 0
        if self.owner is not None:
            self.owner._container_emptied(self)

    def touch(self, now: int) -> None:
        """Record a use of the loaded atom (LRU/LFU eviction keys)."""
        self.last_used = now
        self.use_count += 1

    def __repr__(self) -> str:
        return (
            f"AtomContainer(#{self.index}, {self.state.value}"
            f"{', ' + self.atom_type if self.atom_type else ''})"
        )
