"""Trace replay — the span-exact executor behind every simulation run.

SI latencies are piecewise constant: they only change when the
reconfiguration port completes an atom.  The executor therefore
replays a trace span by span, from port completion to port completion,
instead of ticking iteration by iteration.  Each piece of work is done
as rarely as its inputs allow:

* **per trace, once per process** — the execution counts folded into
  int64 row-prefix sums ``P`` (shape ``(iterations + 1, num_sis)``, see
  :meth:`~repro.workload.trace.HotSpotTrace.prefix_sums`), so any
  span's work is a difference of two rows.  The array belongs to the
  trace, is read-only, and goes when the trace goes;
* **per replay, one array** — the cumulative-cycles curve
  ``W[t] = P[t] @ latencies + t * overhead``, built once and then
  updated in place by one scaled prefix column per SI whose latency an
  atom load changed.  A span boundary becomes one ``searchsorted`` on
  ``W`` and three ``.item()`` reads.  The curve is not kept across
  replays: a run replays each trace once, so keeping it would only add
  memory;
* **per dispatch key, once per process** — each SI's preference list,
  held as sparse ``(position, count)`` rows, best first.  The rows
  depend only on the system class, the library, the processor and the
  dispatch memo key, so every simulator of a process shares them
  (:data:`_PREF_ROWS`);
* **per (dispatch key, availability) pair, once per process** — the SI
  dispatch, kept beside the key's rows in a map bounded by
  :data:`_ENTRIES_PER_KEY`.  A miss takes each SI's first row that fits
  the loaded counts and unions the chosen rows into the ``(atom type,
  count)`` pairs the fabric's LRU touch needs.

With a tracer attached the executor emits the span-level events —
:class:`~repro.obs.events.SIUpgrade` whenever an SI's effective latency
changes and ``DegradedEnter``/``DegradedExit`` whenever the degraded
flag flips — each under ``if tracer.enabled``, so untraced runs build no
event objects.  Cross-hot-spot speculation needs no special case: the
next completion is read from whatever load the port has in flight,
speculative or not, and speculative completions bump the fabric's
``_loaded_ver`` like any other.

All accounting stays in int64 and Python ints, and this module is
division-free by construction — RL005 scans it alongside the
schedulers.  ``tests/data/golden_engine_results.json`` pins its results
field for field against the per-span reference loop it replaced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..core.memo import LruMemo
from ..errors import SimulationError
from ..obs.events import DegradedEnter, DegradedExit, SIUpgrade
from ..workload.trace import HotSpotTrace
from .results import LatencyEvent, Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.si import MoleculeImpl, SILibrary
    from .engine import SystemSimulator

__all__ = ["VectorExecutor"]

#: (latencies per SI, (atom type, count) pairs in active use,
#: implementation per SI).
_DispatchEntry = Tuple[
    Tuple[int, ...], Tuple[Tuple[str, int], ...], Tuple["MoleculeImpl", ...]
]

#: One dispatch preference: (atoms as sparse (position, count) pairs,
#: cycles, implementation).
_PrefRow = Tuple[Tuple[Tuple[int, int], ...], int, "MoleculeImpl"]
#: One SI's preferences, best first; the last row needs no atoms.
_PrefRows = Tuple[_PrefRow, ...]

#: One dispatch key's entries by loaded counts.
_Entries = Dict[Tuple[int, ...], _DispatchEntry]

#: Every column's preference rows and dispatch entries by ``(system
#: class, id(library), processor, dispatch memo key)``, shared by every
#: simulator of the process.  Each entry holds its library, so the
#: ``id()`` key can never alias a recycled object.  The fig7 sweep needs
#: 56 keys, 53 of them Molen's (one per set of chosen implementations);
#: the bound caps what a process that builds many libraries (a test
#: run) pins.
_PREF_ROWS: LruMemo[Tuple["SILibrary", Tuple[_PrefRows, ...], _Entries]] = (
    LruMemo(256)
)

#: Bound of one dispatch key's entry map; the oldest entry goes first.
#: The fig7 sweep meets 5,312 (key, availability) pairs, up to 1,727 on
#: one key; with this bound it dispatches 5,495 times (8,045 with maps
#: that lived for one run) and its peak RSS does not move.
_ENTRIES_PER_KEY = 256


class _TraceArrays:
    """One replay's view of a trace: the trace's shared prefix sums and
    the cycle curve of the current latency vector."""

    __slots__ = ("prefix", "latencies", "curve")

    def __init__(self, trace: HotSpotTrace) -> None:
        self.prefix = trace.prefix_sums()
        self.latencies: Tuple[int, ...] = ()
        self.curve = np.arange(trace.iterations + 1, dtype=np.int64)
        self.curve *= int(trace.overhead_per_iteration)

    def cycles_curve(self, latencies: Tuple[int, ...]) -> np.ndarray:
        """``W`` for ``latencies``: cycles consumed after ``t`` iterations.

        ``W`` is linear in the latencies, so when an atom load changes
        some SIs' latencies, each changed SI's prefix column, scaled by
        the difference, is added to the current curve in place.  That is
        exact in int64 and cheaper than a fresh product.
        """
        old = self.latencies
        if latencies != old:
            curve = self.curve
            if not old:
                curve += self.prefix @ np.array(latencies, dtype=np.int64)
            else:
                prefix = self.prefix
                for col, lat in enumerate(latencies):
                    if lat != old[col]:
                        curve += prefix[:, col] * (lat - old[col])
            self.latencies = latencies
        return self.curve


class VectorExecutor:
    """Span-exact replay of one run's traces.

    One executor lives for one :meth:`SystemSimulator.run` call; its
    dispatch entries live in the process-wide :data:`_PREF_ROWS`
    (dispatch depends only on the memo key and the fabric content,
    which recur heavily across frames and runs).
    """

    def __init__(self, sim: "SystemSimulator") -> None:
        self._sim = sim
        self._names = sim.library.space.names
        # The latency last reported per SI and the degraded flag last
        # reported: latency and degraded events report changes only,
        # across the whole run.
        self._reported: Dict[str, int] = {}
        self._degraded = False

    # -- dispatch ------------------------------------------------------------

    def _pref_rows(
        self, trace: HotSpotTrace, context: object
    ) -> Tuple[_PrefRows, ...]:
        """Each column's preference list as sparse rows.

        A list ends at its first zero-atom row: that row always fits, so
        no row after it is ever taken.
        """
        sim = self._sim
        columns = []
        for si_name in trace.si_names:
            rows: List[_PrefRow] = []
            for impl in sim._dispatch_preference(si_name, context):
                atoms = tuple(
                    (pos, count)
                    for pos, count in enumerate(impl.atoms.counts)
                    if count
                )
                rows.append(
                    (atoms, int(sim.processor.si_execution_cycles(impl)), impl)
                )
                if not atoms:
                    break
            else:
                raise SimulationError(
                    f"dispatch preferences of SI {si_name!r} hold no "
                    f"software (zero-atom) implementation"
                )
            columns.append(tuple(rows))
        return tuple(columns)

    def _shared_dispatch(
        self, trace: HotSpotTrace, context: object, memo_key: object
    ) -> Tuple[Tuple[_PrefRows, ...], _Entries]:
        """:meth:`_pref_rows` and the dispatch key's entry map, both
        built once per process and dispatch key.  The outer lookup
        happens once per trace replay, so the per-span cost is one
        small-tuple hash."""
        sim = self._sim
        key = (type(sim), id(sim.library), sim.processor, memo_key)
        held = _PREF_ROWS.lookup(key)
        if held is None:
            held = (sim.library, self._pref_rows(trace, context), {})
            _PREF_ROWS.store(key, held)
        return held[1], held[2]

    def _dispatch(
        self, columns: Tuple[_PrefRows, ...], avail_counts: Tuple[int, ...]
    ) -> _DispatchEntry:
        """Each SI's first fitting row, and the union of those rows."""
        cycles: List[int] = []
        impls: List["MoleculeImpl"] = []
        used: Dict[int, int] = {}
        for rows in columns:
            for atoms, row_cycles, impl in rows:
                for pos, count in atoms:
                    if avail_counts[pos] < count:
                        break
                else:
                    break
            cycles.append(row_cycles)
            impls.append(impl)
            for pos, count in atoms:
                if used.get(pos, 0) < count:
                    used[pos] = count
        names = self._names
        return (
            tuple(cycles),
            tuple((names[pos], used[pos]) for pos in sorted(used)),
            tuple(impls),
        )

    # -- span replay -------------------------------------------------------

    def execute(
        self,
        trace: HotSpotTrace,
        context: object,
        now: int,
        segments: Optional[List[Segment]],
        latency_events: Optional[List[LatencyEvent]],
    ) -> int:
        """Replay one trace from cycle ``now``; return the end cycle.

        Appends to ``segments``/``latency_events`` when they are lists,
        emits the span events when the tracer is enabled, and keeps the
        fabric's LRU stamps current.
        """
        sim = self._sim
        port = sim.port
        fabric = sim.fabric
        tracer = sim.tracer
        si_names = trace.si_names
        iterations = trace.iterations
        arrays = _TraceArrays(trace)
        memo_key = sim._dispatch_memo_key(trace, context)
        memo: _Entries
        if memo_key is None:
            columns = self._pref_rows(trace, context)
            memo = {}
        else:
            columns, memo = self._shared_dispatch(trace, context, memo_key)
        # The fabric bumps ``_loaded_ver`` on every loaded-set edge, so it
        # is an exact version stamp for the loaded-counts snapshot.
        avail_ver = None
        avail_counts: Tuple[int, ...] = ()
        i = 0
        while i < iterations:
            port.advance_to(now)
            if fabric._loaded_ver != avail_ver:
                avail_ver = fabric._loaded_ver
                avail_counts = tuple(fabric._avail_counts)
            entry = memo.get(avail_counts)
            if entry is None:
                if len(memo) >= _ENTRIES_PER_KEY:
                    del memo[next(iter(memo))]
                entry = memo[avail_counts] = self._dispatch(
                    columns, avail_counts
                )
            lat_tuple, used, impls = entry
            curve = arrays.cycles_curve(lat_tuple)
            if tracer.enabled or latency_events is not None:
                for col, si_name in enumerate(si_names):
                    lat = lat_tuple[col]
                    if self._reported.get(si_name) == lat:
                        continue
                    self._reported[si_name] = lat
                    if latency_events is not None:
                        latency_events.append(
                            LatencyEvent(
                                cycle=now, si_name=si_name, latency=lat
                            )
                        )
                    if tracer.enabled:
                        tracer.emit(
                            SIUpgrade(
                                cycle=now,
                                si_name=si_name,
                                molecule=impls[col].name,
                                latency=lat,
                                software=impls[col].is_software,
                            )
                        )
            next_event = port.next_completion()
            curve_i = curve.item(i)
            total = curve.item(iterations) - curve_i
            if next_event is None or now + total <= next_event:
                k = iterations - i
            else:
                # Iterations strictly before the completion, plus the one
                # in flight when it lands (old latencies apply to it):
                # the first t > i with curve[t] - curve[i] >= budget.
                target = curve_i + (next_event - now)
                k = int(curve.searchsorted(target, side="left")) - i
                k = min(k, iterations - i)
            span = curve.item(i + k) - curve_i
            # Degraded operation: the fabric lost containers, or the
            # port is burning its time budget on a retry.
            degraded = fabric.is_degraded or port.is_retrying
            if tracer.enabled and degraded != self._degraded:
                self._degraded = degraded
                tracer.emit(
                    DegradedEnter(cycle=now)
                    if degraded
                    else DegradedExit(cycle=now)
                )
            if degraded:
                sim._degraded_cycles += span
            if segments is not None:
                prefix = arrays.prefix
                segments.append(
                    Segment(
                        t0=now,
                        t1=now + span,
                        frame_index=trace.frame_index,
                        hot_spot=trace.hot_spot,
                        si_names=si_names,
                        executions=tuple(
                            (prefix[i + k] - prefix[i]).tolist()
                        ),
                        latencies=lat_tuple,
                        degraded=degraded,
                    )
                )
            now += span
            i += k
            if used:
                fabric.touch_atoms(used, now)
        return now
