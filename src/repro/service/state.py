"""The arbiter's run state as declared data, and its snapshot codec.

Everything one service run changes while it executes is a field of
:class:`ArbiterState` or of a dataclass it holds: the virtual clock and
event heap, the request and record tables with the queue and running
lists, per-tenant stats and admission ledgers, the circuit breaker, the
AC :class:`LeaseLedger`, the backoff RNG, the answer memo, the fault
count and the drain sets.  Beside it the arbiter keeps only wiring
(config, tenant specs, cache, tracer, metrics, journal, control
schedule).

A snapshot is therefore derived, not listed: :func:`encode_state` and
:func:`decode_state` walk the *declared field types*, so a field added
to any state dataclass is captured and restored with no codec edit.
The rules, by declared type:

* a dataclass becomes a dict of every field;
* JSON-native types — ``Any``, scalars, and lists or str-keyed dicts of
  them — pass through by reference (the answer memo is never copied);
* other lists and fixed-length tuples become lists; sets become sorted
  lists (RL009);
* ``random.Random`` becomes its ``getstate()``;
* a root field declared with ``metadata=_TABLE`` owns its element type:
  those objects are written in full there and as their table index
  everywhere else (record → request, queue/running → record), so
  shared references survive the round trip.
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
from .request import RequestRecord, ServiceRequest

__all__ = [
    "Clock",
    "LeaseLedger",
    "ArbiterState",
    "encode_state",
    "decode_state",
]

#: Field metadata marking a root-state list as the table that owns its
#: element type (see the module docstring).
_TABLE = {"table": True}

#: A heap entry: ``(tick, kind, push_seq, a, b)``.
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
    #: Every request generated so far, indexed by ``seq``.
    requests: List[ServiceRequest] = field(
        default_factory=list, metadata=_TABLE
    )
    #: Every served request's life cycle, indexed by ``index``.
    records: List[RequestRecord] = field(
        default_factory=list, metadata=_TABLE
    )
    queue: List[RequestRecord] = field(default_factory=list)
    running: List[RequestRecord] = field(default_factory=list)
    stats: Dict[str, TenantStats] = field(default_factory=dict)
    ledgers: Dict[str, TenantLedger] = field(default_factory=dict)
    #: Answer memo: cell key -> result payload (JSON-native).
    memo: Dict[str, Any] = field(default_factory=dict)
    #: Container faults injected so far.
    faults: int = 0
    #: Tenants whose ``tenant_leave`` landed; arrivals shed as
    #: ``draining``.  ``drained`` ⊆ ``draining``: the subset whose
    #: admitted work has fully completed.
    draining: Set[str] = field(default_factory=set)
    drained: Set[str] = field(default_factory=set)


# -- the codec ---------------------------------------------------------------

#: While encoding, ``ctx[element type][id(obj)]`` is the table index;
#: while decoding, ``ctx[element type]`` is the decoded table.  Encoders
#: and decoders share the shape ``fn(value, ctx)``; ``None`` stands for
#: "written as it is", so JSON-native values cost nothing.
_Fn = Optional[Callable[[Any, Dict[Any, Any]], Any]]
_Pair = Tuple[_Fn, _Fn]

_NATIVE = (Any, int, str, bool, float, type(None))


def _apply(fn: _Fn, value: Any, ctx: Dict[Any, Any]) -> Any:
    return value if fn is None else fn(value, ctx)


def _each(fn: _Fn) -> _Fn:
    if fn is None:
        return None
    return lambda value, ctx: [fn(item, ctx) for item in value]


def _optional(fn: _Fn) -> _Fn:
    if fn is None:
        return None
    return lambda value, ctx: None if value is None else fn(value, ctx)


def _values(fn: _Fn) -> _Fn:
    if fn is None:
        return None
    return lambda value, ctx: {k: fn(item, ctx) for k, item in value.items()}


def _rng_encode(rng: random.Random, ctx: Dict[Any, Any]) -> List[Any]:
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def _rng_decode(raw: List[Any], ctx: Dict[Any, Any]) -> random.Random:
    rng = random.Random(0)
    rng.setstate((raw[0], tuple(raw[1]), raw[2]))
    return rng


@functools.lru_cache(maxsize=None)
def _field_hints(cls: type) -> Tuple[Tuple[str, Any], ...]:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


class _Codec:
    """The encoder/decoder pair compiled from one root state class."""

    def __init__(self, root: type) -> None:
        self.root = root
        #: Element type -> name of the root field that owns it.
        self.tables = {
            typing.get_args(hint)[0]: f.name
            for f, (_, hint) in zip(
                dataclasses.fields(root), _field_hints(root)
            )
            if f.metadata.get("table")
        }
        self._pairs: Dict[Any, _Pair] = {}
        #: ``(field, encoder, decoder, owned element type or None)``,
        #: tables first so that references decode against them.
        self.plan: List[Tuple[str, _Fn, _Fn, Any]] = []
        for elem, name in self.tables.items():
            enc, dec = self._build(elem)
            self.plan.append((name, _each(enc), _each(dec), elem))
        for name, hint in _field_hints(root):
            if name not in self.tables.values():
                enc, dec = self._pair(hint)
                self.plan.append((name, enc, dec, None))

    def encode(self, state: Any) -> Dict[str, Any]:
        ctx = {
            elem: {id(obj): i for i, obj in enumerate(getattr(state, name))}
            for elem, name in self.tables.items()
        }
        return {
            name: _apply(encode, getattr(state, name), ctx)
            for name, encode, _, _ in self.plan
        }

    def decode(self, doc: Dict[str, Any]) -> Any:
        ctx: Dict[Any, Any] = {}
        values = {}
        for name, _, decode, elem in self.plan:
            values[name] = _apply(decode, doc[name], ctx)
            if elem is not None:
                ctx[elem] = values[name]
        return self.root(**values)

    def _pair(self, hint: Any) -> _Pair:
        if hint not in self._pairs:
            if hint in self.tables:
                self._pairs[hint] = (
                    lambda value, ctx: ctx[hint][id(value)],
                    lambda raw, ctx: ctx[hint][raw],
                )
            else:
                self._pairs[hint] = self._build(hint)
        return self._pairs[hint]

    def _build(self, hint: Any) -> _Pair:
        if hint in _NATIVE:
            return None, None
        if hint is random.Random:
            return _rng_encode, _rng_decode
        if dataclasses.is_dataclass(hint):
            cls: Any = hint
            plan = [(name, *self._pair(sub)) for name, sub in _field_hints(cls)]
            return (
                lambda value, ctx: {
                    name: getattr(value, name)
                    if enc is None
                    else enc(getattr(value, name), ctx)
                    for name, enc, _ in plan
                },
                lambda raw, ctx: cls(
                    **{
                        name: raw[name] if dec is None else dec(raw[name], ctx)
                        for name, _, dec in plan
                    }
                ),
            )
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        if origin is Union:
            (inner,) = [arg for arg in args if arg is not type(None)]
            enc, dec = self._pair(inner)
            return _optional(enc), _optional(dec)
        if origin is tuple:
            pairs = [self._pair(arg) for arg in args]
            if not any(enc or dec for enc, dec in pairs):
                return (lambda v, ctx: list(v)), (lambda raw, ctx: tuple(raw))
            return (
                lambda v, ctx: [_apply(p[0], x, ctx) for x, p in zip(v, pairs)],
                lambda raw, ctx: tuple(
                    _apply(p[1], x, ctx) for x, p in zip(raw, pairs)
                ),
            )
        if origin is set:
            enc, dec = self._pair(args[0])
            return (
                lambda v, ctx: sorted(_apply(enc, x, ctx) for x in v),
                lambda raw, ctx: {_apply(dec, x, ctx) for x in raw},
            )
        if origin is list:
            enc, dec = self._pair(args[0])
            return _each(enc), _each(dec)
        if origin is dict and args[0] is str:
            enc, dec = self._pair(args[1])
            return _values(enc), _values(dec)
        raise TypeError(f"the snapshot codec cannot handle {hint!r}")


@functools.lru_cache(maxsize=None)
def _codec(root: type) -> _Codec:
    return _Codec(root)


def encode_state(state: Any) -> Dict[str, Any]:
    """The JSON-able form of a root state dataclass (an
    :class:`ArbiterState` in the service)."""
    return _codec(type(state)).encode(state)


def decode_state(doc: Dict[str, Any], root: type = ArbiterState) -> Any:
    """Rebuild a ``root`` instance from :func:`encode_state` output.

    A structurally invalid document raises ``AttributeError``,
    ``KeyError``, ``IndexError``, ``TypeError`` or ``ValueError``.
    """
    return _codec(root).decode(doc)
