"""Service journal lines, written from one template per kind.

Every line the service journal holds is one row of :data:`JOURNAL_KINDS`:
its fields in sorted key order, each either a *slot* of a declared type
(``str``, ``int``, ``bool`` or ``List[str]``) or a constant that is part
of the template text.  Each kind compiles once, at import, into a
keyword-only writer (:data:`JOURNAL_LINE`) that type-checks its values
and fills them into the pre-encoded text, so a line costs no dict and no
pass through the generic JSON encoder.

The bytes are exactly ``canonical_json`` of the same record (sorted
keys, no whitespace, pure ASCII): ``str`` goes through
:func:`json.encoder.encode_basestring_ascii`, ``int`` through
``int.__repr__`` and ``bool`` becomes ``true``/``false`` — the choices
the C encoder makes.  A slot refuses every other runtime type, ``bool``
in an ``int`` slot included (``int.__repr__(True)`` is ``'1'``).
``tests/test_service_lines.py`` holds every kind to ``canonical_json``.
"""

from __future__ import annotations

import keyword
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["JOURNAL_KINDS", "JOURNAL_LINE"]

#: One field: ``(key, slot type)`` or ``(key, constant text)``.
_Field = Tuple[str, Any]

#: Every service journal line kind, fields in sorted key order.  The
#: four ``control`` shapes are separate kinds with a constant ``action``.
JOURNAL_KINDS: Dict[str, Tuple[_Field, ...]] = {
    "header": (
        ("duration", int),
        ("fingerprint", str),
        ("format", int),
        ("kind", "header"),
        ("num_acs", int),
        ("salt", str),
        ("seed", int),
        ("tenants", List[str]),
    ),
    "shed": (
        ("kind", "shed"),
        ("reason", str),
        ("request", str),
        ("tenant", str),
        ("tick", int),
    ),
    "hit": (
        ("kind", "hit"),
        ("request", str),
        ("tenant", str),
        ("tick", int),
    ),
    "admit": (
        ("deadline", int),
        ("hot_spot", str),
        ("kind", "admit"),
        ("request", str),
        ("tenant", str),
        ("tick", int),
    ),
    "fault": (
        ("container", int),
        ("kind", "fault"),
        ("tick", int),
    ),
    "tenant_join": (
        ("action", "tenant_join"),
        ("kind", "control"),
        ("tenant", str),
        ("tick", int),
    ),
    "tenant_leave": (
        ("action", "tenant_leave"),
        ("kind", "control"),
        ("tenant", str),
        ("tick", int),
    ),
    "ac_add": (
        ("action", "ac_add"),
        ("count", int),
        ("kind", "control"),
        ("num_acs", int),
        ("tick", int),
    ),
    "ac_remove": (
        ("action", "ac_remove"),
        ("container", int),
        ("kind", "control"),
        ("tick", int),
        ("usable_acs", int),
    ),
    "drained": (
        ("completed", int),
        ("kind", "drained"),
        ("tenant", str),
        ("tick", int),
    ),
    "complete": (
        ("cache_hit", bool),
        ("degraded", bool),
        ("digest", str),
        ("kind", "complete"),
        ("latency", int),
        ("request", str),
        ("tenant", str),
        ("tick", int),
    ),
    "breaker": (
        ("kind", "breaker"),
        ("state", str),
        ("tick", int),
    ),
    "degraded": (
        ("kind", "degraded"),
        ("reason", str),
        ("request", str),
        ("tenant", str),
        ("tick", int),
    ),
    "preempt": (
        ("backoff", int),
        ("kind", "preempt"),
        ("reason", str),
        ("request", str),
        ("tenant", str),
        ("tick", int),
    ),
}


def _strs(value: Any) -> str:
    """A ``List[str]`` slot."""
    if type(value) is not list or any(type(item) is not str for item in value):
        raise TypeError(f"journal slot wants a list of str, got {value!r}")
    return "[" + ",".join(map(encode_basestring_ascii, value)) + "]"


def _refuse(kind: str, slots: Tuple[Tuple[str, type], ...], *values: Any) -> None:
    for (key, slot), value in zip(slots, values):
        if type(value) is not slot:
            raise TypeError(
                f"journal line {kind!r}: slot {key!r} wants "
                f"{slot.__name__}, got {type(value).__name__} {value!r}"
            )


#: How a scalar slot is filled into the template, by declared type.
_FILL = {
    str: "_esc({})",
    int: "_repr({})",
    bool: "('true' if {} else 'false')",
}


def _compile(kind: str, fields: Tuple[_Field, ...]) -> Callable[..., str]:
    """One kind's writer: keyword-only, one parameter per slot."""
    keys = [key for key, _ in fields]
    if not kind.isidentifier() or keys != sorted(set(keys)):
        raise ValueError(
            f"journal kind {kind!r}: not an identifier, or keys not "
            f"sorted and unique"
        )
    pieces: List[str] = []
    params: List[str] = []
    fills: List[str] = []
    scalars: List[Tuple[str, type]] = []
    for key, slot in fields:
        # Generated names all start with ``_``, so no key shadows one.
        if not key.isidentifier() or keyword.iskeyword(key) or key[0] == "_":
            raise ValueError(f"journal kind {kind!r}: bad key {key!r}")
        name = encode_basestring_ascii(key).replace("%", "%%")
        if isinstance(slot, str):
            const = encode_basestring_ascii(slot).replace("%", "%%")
            pieces.append(f"{name}:{const}")
            continue
        pieces.append(f"{name}:%s")
        params.append(key)
        if slot == List[str]:
            fills.append(f"_strs({key})")
        else:
            fills.append(_FILL[slot].format(key))
            scalars.append((key, slot))
    check = " or ".join(
        f"_type({key}) is not _{slot.__name__}" for key, slot in scalars
    )
    source = [f"def {kind}(*, {', '.join(params)}):"]
    if check:
        names = ", ".join(key for key, _ in scalars)
        source.append(f"    if {check}:")
        source.append(f"        _refuse({kind!r}, _SCALARS, {names})")
    source.append(f"    return _TEXT % ({', '.join(fills)},)")
    namespace: Dict[str, Any] = {
        "_TEXT": "{" + ",".join(pieces) + "}",
        "_SCALARS": tuple(scalars),
        "_type": type,
        "_str": str,
        "_int": int,
        "_bool": bool,
        "_esc": encode_basestring_ascii,
        "_repr": int.__repr__,
        "_strs": _strs,
        "_refuse": _refuse,
    }
    # The source is built above from the table alone, never from input.
    exec("\n".join(source), namespace)
    writer: Callable[..., str] = namespace[kind]
    return writer


#: Each kind's writer: ``JOURNAL_LINE["hit"](request=..., tenant=...,
#: tick=...)`` returns the line text without its newline.
JOURNAL_LINE: Dict[str, Callable[..., str]] = {
    kind: _compile(kind, fields) for kind, fields in JOURNAL_KINDS.items()
}
