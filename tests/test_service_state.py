"""The arbiter's declared run state and its derived snapshot codec.

Four guarantees: every field of every state dataclass but the report
history survives the snapshot round trip (and a field added later needs
no codec edit); the history folded from a snapshot's journal prefix is
the live history; the arbiter keeps no mutable attribute outside the
declared state; and a crash at a random tick under a random
live-reconfiguration schedule recovers to the uninterrupted run's exact
journal bytes and report.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import random
import tempfile
import typing
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceCrash
from repro.exec.cache import canonical_json
from repro.obs import RecordingTracer
from repro.obs.events import ServiceRecovered
from repro.obs.tracer import NULL_TRACER
from repro.service import (
    ControlEvent,
    RequestRecord,
    ServiceConfig,
    derive_join_tenant,
    list_snapshots,
    make_tenant_fleet,
    recover_service,
    run_service,
)
from repro.service import arbiter as arbiter_module
from repro.service.arbiter import _Arbiter, _ServiceJournal
from repro.service.snapshot import SNAPSHOT_FORMAT
from repro.service.report import TenantStats, fold_history
from repro.service.state import (
    ArbiterState,
    Clock,
    decode_state,
    encode_state,
)


def _sample(hint: Any, salt: int) -> Any:
    """A non-default value of the declared type ``hint``.

    Walks the type exactly as the codec does, so a field added to any
    state dataclass gets a sample with no edit here either.
    """
    if hint is Any:
        return {"payload": [salt, "x", None, True]}
    if hint is bool:
        return True
    if hint is int:
        return 7 + salt
    if hint is float:
        return 0.5 + salt
    if hint is str:
        return f"s{salt}"
    if hint is random.Random:
        rng = random.Random(salt)
        rng.random()
        return rng
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(
            **{
                f.name: _sample(hints[f.name], salt + i)
                for i, f in enumerate(dataclasses.fields(hint))
            }
        )
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _sample(inner, salt)
    if origin is tuple:
        return tuple(_sample(arg, salt + i) for i, arg in enumerate(args))
    if origin is list:
        return [_sample(args[0], salt + i) for i in range(2)]
    if origin is set:
        return {_sample(args[0], salt + i) for i in range(2)}
    if origin is dict:
        return {f"k{i}": _sample(args[1], salt + i) for i in range(2)}
    raise TypeError(f"no sample for {hint!r}")


def _populated(root: type) -> Any:
    """A ``root`` state with every field of every dataclass non-default."""
    return _sample(root, 0)


def _round_trip(state: Any) -> Any:
    first = canonical_json(encode_state(state))
    decoded = decode_state(json.loads(first), type(state))
    assert canonical_json(encode_state(decoded)) == first
    return decoded


def _restorable(value: Any) -> Any:
    """``value`` as a snapshot restores it: every history field (one
    marked ``metadata={"history": True}``) back at its default."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.replace(
            value,
            **{
                f.name: (
                    f.default_factory()
                    if f.metadata.get("history")
                    else _restorable(getattr(value, f.name))
                )
                for f in dataclasses.fields(value)
                if f.init
            },
        )
    if isinstance(value, dict):
        return {key: _restorable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_restorable(item) for item in value]
    return value


def _assert_same_state(decoded: Any, populated: Any) -> None:
    original = _restorable(populated)
    for f in dataclasses.fields(original):
        got, want = getattr(decoded, f.name), getattr(original, f.name)
        if isinstance(want, random.Random):
            assert got.getstate() == want.getstate(), f.name
        else:
            assert got == want, f.name


class TestStateCodec:
    def test_every_field_round_trips(self):
        state = _populated(ArbiterState)
        assert all(s.completions and s.latencies for s in state.stats.values())
        _assert_same_state(_round_trip(state), state)

    def test_history_fields_are_not_encoded(self):
        doc = encode_state(_populated(ArbiterState))
        live = {
            f.name
            for f in dataclasses.fields(TenantStats)
            if not f.metadata.get("history")
        }
        assert live and {"latencies", "completions"}.isdisjoint(live)
        assert doc["stats"]
        for raw in doc["stats"].values():
            assert set(raw) == live

    def test_every_dataclass_is_written_field_for_field(self):
        doc = encode_state(_populated(ArbiterState))
        assert set(doc) == {f.name for f in dataclasses.fields(ArbiterState)}
        hints = typing.get_type_hints(ArbiterState)
        for name in ("breaker", "leases", "clock"):
            assert set(doc[name]) == {
                f.name for f in dataclasses.fields(hints[name])
            }
        record_fields = {f.name for f in dataclasses.fields(RequestRecord)}
        records = doc["queue"] + doc["running"]
        assert records
        assert all(set(raw) == record_fields for raw in records)

    def test_added_fields_need_no_codec_edit(self):
        extended = dataclasses.make_dataclass(
            "ExtendedState",
            [
                ("extra_set", Set[int], dataclasses.field(default_factory=set)),
                ("extra_pair", Optional[Tuple[int, str]], None),
                (
                    "extra_records",
                    List[RequestRecord],
                    dataclasses.field(default_factory=list),
                ),
                ("extra_clock", Clock, dataclasses.field(default_factory=Clock)),
            ],
            bases=(ArbiterState,),
        )
        state = _populated(extended)
        assert state.extra_set and state.extra_pair and state.extra_records
        _assert_same_state(_round_trip(state), state)
        assert "completions" not in encode_state(state)["stats"]["k0"]

    def test_sets_are_written_sorted(self):
        state = _populated(ArbiterState)
        state.draining = {"zeta", "alpha", "mid"}
        assert encode_state(state)["draining"] == ["alpha", "mid", "zeta"]

    def test_memo_is_passed_by_reference(self):
        state = _populated(ArbiterState)
        assert encode_state(state)["memo"] is state.memo

    def test_unsupported_types_are_refused(self):
        bad = dataclasses.make_dataclass(
            "BadState", [("blob", bytes, b"")], bases=(ArbiterState,)
        )
        base = _populated(ArbiterState)
        state = bad(
            **{
                f.name: getattr(base, f.name)
                for f in dataclasses.fields(ArbiterState)
            }
        )
        with pytest.raises(TypeError, match="cannot handle"):
            encode_state(state)


# -- the arbiter holds nothing mutable outside its state -------------------

#: Everything an arbiter may hold besides ``state``: fixed for its
#: lifetime (the admission controller books into ``state.ledgers``;
#: ``requests`` is the immutable request table).
WIRING = {
    "config",
    "fleet",
    "tenants",
    "requests",
    "cache",
    "tracer",
    "metrics",
    "journal",
    "controls",
    "fingerprint",
    "streams",
    "admission",
    "_crash_at",
    "_crash_mode",
    "_journal_path",
    "_fsync",
    "_replaying",
}

FLEET_SIZE = 4
SOAK = dict(num_acs=6, duration=1200, seed=2008, fault_ticks=(700, 720, 740))


def fleet():
    return make_tenant_fleet(FLEET_SIZE, mean_gap=60, deadline_slack=400)


def test_arbiter_holds_only_state_and_wiring():
    events = [
        ControlEvent(
            tick=300,
            action="tenant_join",
            name="latecomer",
            spec=derive_join_tenant("latecomer", SOAK["seed"]),
        ),
        ControlEvent(tick=500, action="ac_remove", count=2),
    ]
    journal = _ServiceJournal(None)
    arbiter = _Arbiter(
        tenants=fleet(),
        config=ServiceConfig(**SOAK),
        cache=None,
        tracer=NULL_TRACER,
        metrics=None,
        journal=journal,
        control_events=events,
    )
    wiring = {name: getattr(arbiter, name) for name in WIRING}
    tenants = dict(arbiter.tenants)
    arbiter.run()
    assert set(vars(arbiter)) == WIRING | {"state"}
    for name, value in wiring.items():
        assert getattr(arbiter, name) is value, name
    assert arbiter.tenants == tenants
    assert arbiter.admission.ledgers is arbiter.state.ledgers
    assert "latecomer" in arbiter.state.ledgers
    assert isinstance(arbiter.requests, tuple)
    assert [r.seq for r in arbiter.requests] == list(
        range(len(arbiter.requests))
    )


# -- a snapshot holds live state only ---------------------------------------


def _journal_live(prefix: bytes) -> Set[str]:
    """Request ids served but not completed by a journal prefix."""
    live: Set[str] = set()
    for line in prefix.decode("ascii").splitlines():
        entry = json.loads(line)
        if entry["kind"] in ("admit", "hit"):
            live.add(entry["request"])
        elif entry["kind"] == "complete":
            live.remove(entry["request"])
    return live


def _join(tick: int) -> ControlEvent:
    return ControlEvent(
        tick=tick,
        action="tenant_join",
        name="latecomer",
        spec=derive_join_tenant("latecomer", SOAK["seed"]),
    )


#: Join, drain, grow and shrink inside one :data:`SOAK` run.
RECONFIG = [
    _join(300),
    ControlEvent(tick=500, action="tenant_leave", name="tenant00"),
    ControlEvent(tick=600, action="ac_add", count=2),
    ControlEvent(tick=800, action="ac_remove", count=3),
]

#: One tenant's report history: ``(latencies, completions)``.
History = Dict[str, Tuple[List[int], List[Dict[str, Any]]]]


def _history(stats: Dict[str, Any]) -> History:
    return {
        name: (list(s.latencies), [dict(c) for c in s.completions])
        for name, s in stats.items()
    }


def _snapshotted(tmp_path_factory, events: List[ControlEvent]) -> Any:
    """A journalled run, every snapshot it wrote, and the live report
    history at each of them."""
    written: List[Dict[str, Any]] = []
    live: List[History] = []
    real = arbiter_module.write_snapshot
    real_method = _Arbiter._write_snapshot

    def capture(path, state, **kwargs):
        written.append(json.loads(canonical_json(state)))
        return real(path, state, **kwargs)

    def capture_live(self, now):
        live.append(_history(self.state.stats))
        return real_method(self, now)

    journal = tmp_path_factory.mktemp("soak") / "soak.jsonl"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arbiter_module, "write_snapshot", capture)
        patch.setattr(_Arbiter, "_write_snapshot", capture_live)
        report = run_service(
            fleet(),
            ServiceConfig(**SOAK, snapshot_every=100),
            journal_path=journal,
            control_events=events,
        )
    return report, journal.read_bytes(), written, live


@pytest.fixture(scope="module")
def snapshotted_soak(tmp_path_factory):
    """A journalled soak with a tenant join, and every snapshot it wrote."""
    return _snapshotted(tmp_path_factory, [_join(300)])


@pytest.fixture(scope="module")
def snapshotted_reconfig(tmp_path_factory):
    """The soak under a join, drain, grow and shrink schedule."""
    return _snapshotted(tmp_path_factory, RECONFIG)


class TestLiveSnapshots:
    def test_snapshots_hold_no_request_or_record_table(self, snapshotted_soak):
        _, _, written, _ = snapshotted_soak
        assert len(written) >= 10
        for snapshot in written:
            assert snapshot["format"] == SNAPSHOT_FORMAT == 4
            assert "requests" not in snapshot["state"]
            assert "records" not in snapshot["state"]

    def test_records_are_exactly_the_live_ones(self, snapshotted_soak):
        _, journal, written, _ = snapshotted_soak
        for snapshot in written:
            state = snapshot["state"]
            queued = [r["request"]["request_id"] for r in state["queue"]]
            running = [r["request"]["request_id"] for r in state["running"]]
            assert {r["status"] for r in state["queue"]} <= {"queued"}
            assert {r["status"] for r in state["running"]} <= {"running"}
            assert len(set(queued + running)) == len(queued) + len(running)
            live = _journal_live(journal[: snapshot["journal_offset"]])
            assert set(queued + running) == live

    def test_memo_values_are_digest_and_cycles(self, snapshotted_soak):
        report, _, written, _ = snapshotted_soak
        served = {
            c["digest"]
            for stats in report.tenants.values()
            for c in stats.completions
        }
        memo = written[-1]["state"]["memo"]
        assert memo
        for digest, cycles in memo.values():
            assert isinstance(digest, str) and len(digest) == 16
            assert isinstance(cycles, int) and cycles > 0
        assert {digest for digest, _ in memo.values()} <= served

    @pytest.mark.parametrize(
        "fixture", ["snapshotted_soak", "snapshotted_reconfig"]
    )
    def test_heap_holds_one_arrival_per_stream(self, request, fixture):
        _, _, written, _ = request.getfixturevalue(fixture)
        arrival = arbiter_module._ARRIVAL
        pending = []
        for snapshot in written:
            arrivals = [
                entry
                for entry in snapshot["state"]["clock"]["heap"]
                if entry[1] == arrival
            ]
            # ``(tick, kind, seq, seq, stream end)``: fleet plus joiner.
            ends = [entry[4] for entry in arrivals]
            assert len(arrivals) == len(set(ends))
            assert all(entry[2] == entry[3] < entry[4] for entry in arrivals)
            pending.append(len(arrivals))
        assert max(pending) == 2


def test_same_tick_arrivals_pop_in_seq_order():
    clock = Clock()
    clock.push_arrival(10, 3, 5, 9)  # pushed first, later in the table
    clock.push_arrival(10, 3, 2, 4)
    clock.push(10, 2)
    assert [heapq.heappop(clock.heap)[2:4] for _ in range(3)] == [
        (1, -1),
        (2, 2),
        (5, 5),
    ]


def test_arrivals_are_served_in_seq_order_across_streams(tmp_path):
    """A dense joiner's arrival is pushed before the fleet's arrival of
    the same tick, and is still served after it."""
    joiner = derive_join_tenant("latecomer", SOAK["seed"], mean_gap=5)
    path = tmp_path / "dense.jsonl"
    journal = _ServiceJournal(path)
    arbiter = _Arbiter(
        tenants=make_tenant_fleet(FLEET_SIZE, mean_gap=6, deadline_slack=400),
        config=ServiceConfig(num_acs=6, duration=400, seed=SOAK["seed"]),
        cache=None,
        tracer=NULL_TRACER,
        metrics=None,
        journal=journal,
        control_events=[
            ControlEvent(tick=20, action="tenant_join", name="latecomer", spec=joiner)
        ],
    )
    arbiter.run()
    journal.close()
    seq = {r.request_id: r.seq for r in arbiter.requests}
    served: Dict[int, List[int]] = {}
    for line in path.read_text().splitlines():
        entry = json.loads(line)
        if entry["kind"] in ("admit", "hit", "shed"):
            served.setdefault(entry["tick"], []).append(seq[entry["request"]])
    assert all(seqs == sorted(seqs) for seqs in served.values())
    joined = arbiter.streams[0]
    assert any(
        any(s in joined for s in seqs) and any(s not in joined for s in seqs)
        for seqs in served.values()
    )


# -- history is not state ----------------------------------------------------


@pytest.mark.parametrize("fixture", ["snapshotted_soak", "snapshotted_reconfig"])
def test_folded_journal_prefix_is_the_live_history(request, fixture):
    report, journal, written, live = request.getfixturevalue(fixture)
    assert len(written) == len(live) >= 10
    for snapshot, history in zip(written, live):
        state = decode_state(snapshot["state"])
        assert not any(s.completions or s.latencies for s in state.stats.values())
        fold_history(state.stats, journal[: snapshot["journal_offset"]])
        assert _history(state.stats) == history
    assert any(any(lat for lat, _ in h.values()) for h in live)
    final = decode_state(written[-1]["state"])
    fold_history(final.stats, journal)
    assert _history(final.stats) == _history(report.tenants)


def test_format_3_snapshots_fall_back_to_replay(tmp_path):
    """Format 3 held the report history and every future arrival;
    format 4 does not, so a format-3 snapshot is skipped, never
    half-restored."""
    config = ServiceConfig(**SOAK, snapshot_every=100)
    reference = run_service(
        fleet(), config, journal_path=tmp_path / "ref.jsonl"
    )
    journal = tmp_path / "crash.jsonl"
    with pytest.raises(ServiceCrash):
        run_service(
            fleet(),
            config,
            journal_path=journal,
            crash_at_tick=900,
            crash_mode="raise",
        )
    snapshots = list_snapshots(journal)
    assert snapshots
    for snap in snapshots:
        doc = json.loads(snap.read_text())
        doc["format"] = 3
        snap.write_text(json.dumps(doc))
    tracer = RecordingTracer()
    report = recover_service(
        fleet(), config, journal_path=journal, tracer=tracer
    )
    (recovered,) = [e for e in tracer if isinstance(e, ServiceRecovered)]
    assert recovered.source == "replay"
    assert journal.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
    assert report.to_json_dict() == reference.to_json_dict()


def test_stale_completion_of_preempted_dispatch_is_ignored():
    journal = _ServiceJournal(None)
    arbiter = _Arbiter(
        tenants=fleet(),
        config=ServiceConfig(**SOAK),
        cache=None,
        tracer=NULL_TRACER,
        metrics=None,
        journal=journal,
    )
    first, second = arbiter.requests[:2]
    # Re-dispatched after a preemption: the old epoch's completion is
    # stale.  Preempted and waiting in the queue: any completion is.
    arbiter.state.running.append(
        RequestRecord(request=first, status="running", epoch=2)
    )
    arbiter.state.queue.append(
        RequestRecord(request=second, status="queued", epoch=1)
    )
    before = canonical_json(encode_state(arbiter.state))
    arbiter._on_complete(50, first.seq, 1)
    arbiter._on_complete(50, second.seq, 1)
    assert canonical_json(encode_state(arbiter.state)) == before
    assert journal.offset == 0


# -- random crash under a random control schedule ---------------------------


def _schedule(draw_actions: List[Tuple[str, int]]) -> List[ControlEvent]:
    events = []
    for action, tick in draw_actions:
        if action == "tenant_join":
            events.append(
                ControlEvent(
                    tick=tick,
                    action=action,
                    name="joiner",
                    spec=derive_join_tenant("joiner", SOAK["seed"]),
                )
            )
        elif action == "tenant_leave":
            events.append(
                ControlEvent(tick=tick, action=action, name="tenant00")
            )
        else:
            events.append(ControlEvent(tick=tick, action=action, count=2))
    return events


@settings(max_examples=12, deadline=None)
@given(
    crash_at=st.integers(min_value=0, max_value=1100),
    actions=st.dictionaries(
        st.sampled_from(["tenant_join", "tenant_leave", "ac_add", "ac_remove"]),
        st.integers(min_value=0, max_value=1100),
    ),
    snapshot_every=st.sampled_from([0, 90, 250]),
)
def test_random_crash_under_random_reconfiguration(
    crash_at, actions, snapshot_every
):
    events = _schedule(sorted(actions.items()))
    config = ServiceConfig(**SOAK, snapshot_every=snapshot_every)
    with tempfile.TemporaryDirectory() as tmp:
        ref_journal = Path(tmp) / "ref.jsonl"
        reference = run_service(
            fleet(), config, journal_path=ref_journal, control_events=events
        )
        journal = Path(tmp) / "crash.jsonl"
        with pytest.raises(ServiceCrash):
            run_service(
                fleet(),
                config,
                journal_path=journal,
                control_events=events,
                crash_at_tick=crash_at,
                crash_mode="raise",
            )
        report = recover_service(
            fleet(), config, journal_path=journal, control_events=events
        )
        assert journal.read_bytes() == ref_journal.read_bytes()
        assert report.to_json_dict() == reference.to_json_dict()
