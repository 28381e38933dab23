"""Service journal lines from per-kind templates, held to canonical JSON.

Every kind in ``JOURNAL_KINDS`` writes exactly ``canonical_json`` of the
same record, for any values its slots accept: hostile strings (quotes,
backslashes, ``%``, control characters, non-ASCII, lone surrogates),
big and negative ints, and bools.  Every slot refuses a value of
another runtime type, a bool in an int slot included.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.cache import canonical_json
from repro.service.arbiter import _ServiceJournal
from repro.service.lines import JOURNAL_KINDS, JOURNAL_LINE

HOSTILE = st.one_of(
    st.text(),
    st.text(alphabet='"\\%/\x00\x1f\x7f 𐏿{}:,[] s'),
    st.sampled_from(["%s", "%%", "%(x)s", '"', "\\", "\ud83d", "é"]),
)

SLOT_VALUES: Dict[Any, st.SearchStrategy[Any]] = {
    str: HOSTILE,
    int: st.one_of(
        st.integers(),
        st.integers(min_value=-(10**40), max_value=10**40),
        st.sampled_from([0, -1, 2**63, -(2**63) - 1]),
    ),
    bool: st.booleans(),
    List[str]: st.lists(HOSTILE, max_size=4),
}


def slots(kind: str) -> List[Any]:
    """``(key, slot type)`` of every slot of ``kind``."""
    return [
        (key, slot)
        for key, slot in JOURNAL_KINDS[kind]
        if not isinstance(slot, str)
    ]


@st.composite
def records(draw: Any) -> Any:
    kind = draw(st.sampled_from(sorted(JOURNAL_KINDS)))
    values = {key: draw(SLOT_VALUES[slot]) for key, slot in slots(kind)}
    return kind, values


def as_record(kind: str, values: Dict[str, Any]) -> Dict[str, Any]:
    constants = {
        key: slot for key, slot in JOURNAL_KINDS[kind] if isinstance(slot, str)
    }
    return {**constants, **values}


@settings(max_examples=600, deadline=None)
@given(drawn=st.lists(records(), min_size=1, max_size=8))
def test_every_template_writes_canonical_json(drawn):
    for kind, values in drawn:
        line = JOURNAL_LINE[kind](**values)
        assert line == canonical_json(as_record(kind, values))


def test_drawn_kinds_are_the_table_kinds():
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(record=records())
    def draw(record):
        seen.add(record[0])

    draw()
    assert seen == set(JOURNAL_KINDS) == set(JOURNAL_LINE)


def test_every_kind_has_kind_and_sorted_keys():
    for kind, fields in JOURNAL_KINDS.items():
        keys = [key for key, _ in fields]
        assert keys == sorted(keys), kind
        assert any(
            key == "kind" and isinstance(slot, str) for key, slot in fields
        ), kind


#: A value of the wrong runtime type for each slot type.
WRONG = {
    str: [b"bytes", 1, None, True],
    int: [True, False, 1.0, "1", None],
    bool: [1, 0, "true", None],
    List[str]: [("a",), ["a", 1], "ab", None],
}

RIGHT = {str: "s", int: 1, bool: True, List[str]: ["a"]}


@pytest.mark.parametrize("kind", sorted(JOURNAL_KINDS))
def test_slots_refuse_other_types(kind):
    good = {key: RIGHT[slot] for key, slot in slots(kind)}
    JOURNAL_LINE[kind](**good)
    for key, slot in slots(kind):
        for bad in WRONG[slot]:
            with pytest.raises(TypeError):
                JOURNAL_LINE[kind](**{**good, key: bad})


def test_writers_take_exactly_their_slots():
    with pytest.raises(TypeError):
        JOURNAL_LINE["fault"](tick=1)  # missing slot
    with pytest.raises(TypeError):
        JOURNAL_LINE["fault"](tick=1, container=2, kind="x")  # constant
    with pytest.raises(TypeError):
        JOURNAL_LINE["fault"](1, 2)  # keyword-only


def test_journal_digest_covers_the_written_bytes(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = _ServiceJournal(path)
    lines = [
        JOURNAL_LINE["fault"](tick=3, container=0),
        JOURNAL_LINE["breaker"](tick=3, state="open"),
    ]
    for line in lines:
        journal.write(line)
    journal.close()
    data = path.read_bytes()
    assert data == "".join(line + "\n" for line in lines).encode("ascii")
    assert journal.digest() == hashlib.sha256(data).hexdigest()
    assert journal.offset == len(data)
