"""A bounded least-recently-used dict for process-wide memos.

The memos of :mod:`repro.core` (selection tables, plans), the sim
layer's dispatch rows and the exec layer's warm simulators share it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, TypeVar

__all__ = ["LruMemo"]

_V = TypeVar("_V")


class LruMemo(OrderedDict[Hashable, _V]):
    """A dict that keeps at most ``maxsize`` entries, evicting the least
    recently used.  The process-wide memos that use it only ever change
    speed, never a result.  Not synchronised: the package plans on one
    thread per process."""

    def __init__(self, maxsize: int) -> None:
        super().__init__()
        self.maxsize = maxsize

    def lookup(self, key: Hashable) -> Optional[_V]:
        """The stored value (now most recently used), or ``None``."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def store(self, key: Hashable, value: _V) -> None:
        self[key] = value
        if len(self) > self.maxsize:
            self.popitem(last=False)
