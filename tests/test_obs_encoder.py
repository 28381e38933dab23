"""The event-log writer against its oracle, over every event kind.

:func:`repro.obs.write_event_log` encodes typed events straight to text.
Its contract is the text of ``json.dumps(events_to_json_dict(events),
indent=1, sort_keys=True)`` plus a newline, byte for byte.  Hypothesis
draws every registered kind with hostile values: quotes, backslashes,
control and non-ASCII characters, lone surrogates, huge and negative
ints, ``nan``/``±inf``, ints in float fields, and empty tuples.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.obs import (
    events_to_json_dict,
    read_event_log,
    write_event_log,
)
from repro.obs.events import (
    _KIND_REGISTRY,
    DecisionStep,
    PrefetchIssued,
    SchedulerDecision,
    event_kinds,
)

_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\té \ud800\U0001f600'),
    ),
    max_size=12,
)
_INT = st.one_of(
    st.integers(-5, 5), st.integers(-(2**70), 2**70), st.just(-(2**63))
)
_SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324)
_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_SPECIAL_FLOATS),
    _INT,  # json prints an int in a float field as an int
)


def _tuples(element):
    return st.lists(element, max_size=4).map(tuple)


#: One strategy per field annotation the event classes use.  A field with
#: an annotation missing here fails the test loudly instead of going
#: undrawn.
_BY_ANNOTATION = {
    "int": _INT,
    "str": _TEXT,
    "bool": st.booleans(),
    "float": _FLOAT,
    "Tuple[str, ...]": _tuples(_TEXT),
    "Tuple[Tuple[str, str], ...]": _tuples(st.tuples(_TEXT, _TEXT)),
}


def _records(cls):
    fields = {}
    for field in dataclasses.fields(cls):
        if field.type == "Tuple[DecisionStep, ...]":
            fields[field.name] = _tuples(_records(DecisionStep))
        else:
            assert field.type in _BY_ANNOTATION, (cls.__name__, field)
            fields[field.name] = _BY_ANNOTATION[field.type]
    return st.builds(cls, **fields)


_EVENTS = {kind: _records(cls) for kind, cls in _KIND_REGISTRY.items()}


#: Hypothesis's explain phase took minutes to report one failing record
#: of these text-heavy events; shrinking alone reports it in seconds.
_PHASES = tuple(phase for phase in Phase if phase is not Phase.explain)


def _oracle(events):
    return json.dumps(events_to_json_dict(events), indent=1, sort_keys=True)


def _same(a, b):
    """Equality that lets a NaN equal a NaN (``nan != nan`` in Python)."""
    if isinstance(a, float) and isinstance(b, float) and a != a:
        return b != b
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, tuple):
        return (
            isinstance(b, tuple)
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    return a == b


def _check(events, path):
    write_event_log(events, path)
    assert path.read_text(encoding="utf-8") == _oracle(events) + "\n"
    back = read_event_log(path)
    assert len(back) == len(events)
    assert all(_same(x, y) for x, y in zip(events, back))


def test_every_kind_joins_the_oracle():
    assert tuple(sorted(_EVENTS)) == event_kinds()


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    return tmp_path_factory.mktemp("encoder") / "log.json"


@pytest.mark.parametrize("kind", event_kinds())
def test_kind_matches_json_dumps(kind, log_path):
    @settings(max_examples=10, deadline=None, phases=_PHASES)
    @given(st.lists(_EVENTS[kind], min_size=1, max_size=3))
    def check(events):
        assert {event.kind for event in events} == {kind}
        _check(events, log_path)

    check()


@settings(max_examples=30, deadline=None, phases=_PHASES)
@given(st.lists(st.one_of(*_EVENTS.values()), max_size=6))
def test_mixed_logs_match_json_dumps(log_path, events):
    _check(events, log_path)


def test_empty_log_matches_json_dumps(log_path):
    _check([], log_path)


@pytest.mark.parametrize("value", _SPECIAL_FLOATS + (7, -(2**70)))
def test_float_fields_match_json_dumps(value, log_path):
    # Few Hypothesis examples per kind may miss a spelling; pin each one
    # in both float fields: an event's and a nested decision step's.
    step = DecisionStep("SI", "m", 1, 9, 3, value, 2)
    events = [
        PrefetchIssued(1, "A", "B", "x", value),
        SchedulerDecision(2, "A", "HEF", (("SI", "m"),), (step, step), ()),
    ]
    _check(events, log_path)
