"""The arbiter's run state as declared data, and its snapshot codec.

Everything one service run changes while it executes is a field of
:class:`ArbiterState` or of a dataclass it holds: the virtual clock and
event heap, the queued and running records, per-tenant stats and
admission ledgers, the circuit breaker, the AC :class:`LeaseLedger`,
the backoff RNG, the answer memo, the fault count and the drain sets.
Beside it the arbiter keeps only wiring (config, tenant specs, the
request table, cache, tracer, metrics, journal, control schedule).

The state is *live* state: what the next decision needs, and nothing
that grows with the run.  The request table is re-derived from the
run's inputs, and the heap holds one pending arrival per request stream
(the next one is pushed when it pops), not every future arrival.  A
record leaves the state when its request completes, and the memo keeps
each answer's digest and cycle count, not the result.

History is not state.  Each tenant's ``completions`` and ``latencies``
feed the report only; their fields are marked
``metadata={"history": True}``, the codec skips them, and recovery
rebuilds them from the ``complete`` lines of the journal prefix a
snapshot anchors to (:func:`~repro.service.report.fold_history`).  So a
snapshot's size does not grow with the run.

A snapshot is therefore derived, not listed: :func:`encode_state` and
:func:`decode_state` walk the *declared field types*, so a field added
to any state dataclass is captured and restored with no codec edit.
The rules, by declared type:

* a dataclass becomes a dict of every field but its history fields
  (decoding leaves those at their defaults);
* JSON-native types — ``Any``, scalars, and lists or str-keyed dicts of
  them — pass through by reference (the answer memo is never copied);
* other lists and fixed-length tuples become lists; sets become sorted
  lists (RL009);
* ``random.Random`` becomes its ``getstate()``.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import random
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from ..errors import CapacityError, FabricError
from .admission import TenantLedger
from .breaker import CircuitBreaker
from .report import TenantStats
from .request import RequestRecord

__all__ = [
    "Clock",
    "LeaseLedger",
    "ArbiterState",
    "encode_state",
    "decode_state",
]

#: A heap entry: ``(tick, kind, order, a, b)``.
_Event = Tuple[int, int, int, int, int]


@dataclass
class Clock:
    """The virtual clock: the latest event tick and the pending events."""

    tick: int = 0
    heap: List[_Event] = field(default_factory=list)
    #: Push counter: events with equal ``(tick, kind)`` pop in push order.
    push_seq: int = 0

    def push(self, tick: int, kind: int, a: int = -1, b: int = -1) -> None:
        self.push_seq += 1
        heapq.heappush(self.heap, (tick, kind, self.push_seq, a, b))

    def push_arrival(self, tick: int, kind: int, seq: int, end: int) -> None:
        """Schedule request ``seq`` of the stream that ends before seq
        ``end``.  Arrivals at one tick pop in ``seq`` order, whenever
        they were pushed."""
        heapq.heappush(self.heap, (tick, kind, seq, seq, end))


@dataclass
class LeaseLedger:
    """The service's Atom-Container book-keeping.

    Leases count containers, they do not pin specific ones: they cap how
    many ACs concurrent tenants may plan against.  Containers are the
    indices ``0 .. num_acs-1``; a fault kills the lowest live index,
    ``ac_remove`` retires the highest live one and ``ac_add`` appends
    fresh indices.  Faults shrink :attr:`usable` below the granted
    leases, which shows up as :attr:`overcommitted`.
    """

    num_acs: int
    dead: Set[int] = field(default_factory=set)
    retired: Set[int] = field(default_factory=set)
    reserved: int = 0

    @property
    def usable(self) -> int:
        return self.num_acs - len(self.dead) - len(self.retired)

    @property
    def free(self) -> int:
        return max(0, self.usable - self.reserved)

    @property
    def overcommitted(self) -> int:
        return max(0, self.reserved - self.usable)

    def live(self) -> List[int]:
        return [
            index
            for index in range(self.num_acs)
            if index not in self.dead and index not in self.retired
        ]

    def kill_lowest(self) -> Optional[int]:
        """A hard fault: the lowest live container dies."""
        live = self.live()
        if not live:
            return None
        self.dead.add(live[0])
        return live[0]

    def retire_highest(self) -> Optional[int]:
        """An administrative shrink: the highest live container goes."""
        live = self.live()
        if not live:
            return None
        self.retired.add(live[-1])
        return live[-1]

    def reserve(self, count: int) -> None:
        if count > self.free:
            raise CapacityError(
                f"cannot lease {count} ACs: only {self.free} of "
                f"{self.usable} usable ACs are free ({self.reserved} "
                f"already leased)"
            )
        self.reserved += count

    def release(self, count: int) -> None:
        if count > self.reserved:
            raise FabricError(
                f"cannot release {count} ACs: only {self.reserved} leased"
            )
        self.reserved -= count


@dataclass
class ArbiterState:
    """One service run's complete mutable state."""

    breaker: CircuitBreaker
    leases: LeaseLedger
    #: Seeded backoff-jitter generator.
    rng: random.Random
    clock: Clock = field(default_factory=Clock)
    #: Admitted requests waiting for (re-)dispatch.
    queue: List[RequestRecord] = field(default_factory=list)
    #: Dispatched requests and in-flight cache hits, until they complete.
    running: List[RequestRecord] = field(default_factory=list)
    stats: Dict[str, TenantStats] = field(default_factory=dict)
    ledgers: Dict[str, TenantLedger] = field(default_factory=dict)
    #: Answer memo: cell key -> ``[digest, total_cycles]``.
    memo: Dict[str, List[Any]] = field(default_factory=dict)
    #: Container faults injected so far.
    faults: int = 0
    #: Tenants whose ``tenant_leave`` landed; arrivals shed as
    #: ``draining``.  ``drained`` ⊆ ``draining``: the subset whose
    #: admitted work has fully completed.
    draining: Set[str] = field(default_factory=set)
    drained: Set[str] = field(default_factory=set)


# -- the codec ---------------------------------------------------------------

#: An encoder or decoder; ``None`` stands for "written as it is", so
#: JSON-native values cost nothing.
_Fn = Optional[Callable[[Any], Any]]
_Pair = Tuple[_Fn, _Fn]

_NATIVE = (Any, int, str, bool, float, type(None))


def _apply(fn: _Fn, value: Any) -> Any:
    return value if fn is None else fn(value)


def _each(fn: _Fn) -> _Fn:
    if fn is None:
        return None
    return lambda value: [fn(item) for item in value]


def _optional(fn: _Fn) -> _Fn:
    if fn is None:
        return None
    return lambda value: None if value is None else fn(value)


def _values(fn: _Fn) -> _Fn:
    if fn is None:
        return None
    return lambda value: {k: fn(item) for k, item in value.items()}


def _rng_encode(rng: random.Random) -> List[Any]:
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def _rng_decode(raw: List[Any]) -> random.Random:
    rng = random.Random(0)
    rng.setstate((raw[0], tuple(raw[1]), raw[2]))
    return rng


@functools.lru_cache(maxsize=None)
def _field_hints(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """The declared ``(name, type)`` of every field but the history."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name])
        for f in dataclasses.fields(cls)
        if not f.metadata.get("history")
    )


@functools.lru_cache(maxsize=None)
def _pair(hint: Any) -> _Pair:
    """The ``(encoder, decoder)`` of one declared type."""
    if hint in _NATIVE:
        return None, None
    if hint is random.Random:
        return _rng_encode, _rng_decode
    if dataclasses.is_dataclass(hint):
        cls: Any = hint
        plan = [(name, *_pair(sub)) for name, sub in _field_hints(cls)]
        return (
            lambda value: {
                name: _apply(enc, getattr(value, name))
                for name, enc, _ in plan
            },
            lambda raw: cls(
                **{name: _apply(dec, raw[name]) for name, _, dec in plan}
            ),
        )
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        (inner,) = [arg for arg in args if arg is not type(None)]
        enc, dec = _pair(inner)
        return _optional(enc), _optional(dec)
    if origin is tuple:
        pairs = [_pair(arg) for arg in args]
        if not any(enc or dec for enc, dec in pairs):
            return list, tuple
        return (
            lambda v: [_apply(p[0], x) for x, p in zip(v, pairs)],
            lambda raw: tuple(_apply(p[1], x) for x, p in zip(raw, pairs)),
        )
    if origin is set:
        enc, dec = _pair(args[0])
        return (
            lambda v: sorted(_apply(enc, x) for x in v),
            lambda raw: {_apply(dec, x) for x in raw},
        )
    if origin is list:
        enc, dec = _pair(args[0])
        return _each(enc), _each(dec)
    if origin is dict and args[0] is str:
        enc, dec = _pair(args[1])
        return _values(enc), _values(dec)
    raise TypeError(f"the snapshot codec cannot handle {hint!r}")


def encode_state(state: Any) -> Dict[str, Any]:
    """The JSON-able form of a root state dataclass (an
    :class:`ArbiterState` in the service)."""
    encode = _pair(type(state))[0]
    assert encode is not None
    result: Dict[str, Any] = encode(state)
    return result


def decode_state(doc: Dict[str, Any], root: type = ArbiterState) -> Any:
    """Rebuild a ``root`` instance from :func:`encode_state` output.

    A structurally invalid document raises ``AttributeError``,
    ``KeyError``, ``IndexError``, ``TypeError`` or ``ValueError``.
    """
    decode = _pair(root)[1]
    assert decode is not None
    return decode(doc)
