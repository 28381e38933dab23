"""Trace replay — the span-exact executor behind every simulation run.

SI latencies are piecewise constant: they only change when the
reconfiguration port completes an atom.  The executor therefore
replays a trace span by span, from port completion to port completion,
over struct-of-arrays views instead of ticking iteration by iteration:

* per trace, the execution counts are folded into int64 row-prefix sums
  ``P`` (shape ``(iterations + 1, num_sis)``), so any span's work is a
  difference of two rows;
* per latency vector, the cumulative-cycles curve
  ``W[t] = P[t] @ latencies + t * overhead`` is built once per trace
  replay — a span boundary becomes a single ``searchsorted`` on ``W``;
* per (dispatch key, availability) pair, the SI dispatch is memoized,
  so the feasibility scans happen once per distinct fabric state instead
  of once per span.

The per-trace arrays live only while :meth:`VectorExecutor.execute`
runs: a run replays each trace once, so keeping them would only grow
memory.  The dispatch memo, keyed by the SI set, does persist across
the run's traces.

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

from ..core.molecule import Molecule
from ..obs.events import DegradedEnter, DegradedExit, SIUpgrade
from ..workload.trace import HotSpotTrace
from .results import LatencyEvent, Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.si import MoleculeImpl
    from .engine import SystemSimulator

__all__ = ["VectorExecutor"]

#: (latencies per SI, atoms in active use or None, implementation per SI).
_DispatchEntry = Tuple[
    Tuple[int, ...], Optional[Molecule], Tuple["MoleculeImpl", ...]
]

#: Stacked dispatch preference tables: all SIs' preference rows in one
#: matrix (rows_all, rank, segment offsets, cycles per row, impls).
_PrefTable = Tuple[
    np.ndarray, np.ndarray, np.ndarray, List[int], List["MoleculeImpl"]
]


class _TraceArrays:
    """One trace's prefix sums and its latency-vector cycle curves."""

    __slots__ = ("prefix", "steps", "w_cache")

    def __init__(self, trace: HotSpotTrace) -> None:
        counts = np.asarray(trace.counts, dtype=np.int64)
        iterations = trace.iterations
        num_sis = len(trace.si_names)
        self.prefix = np.zeros((iterations + 1, num_sis), dtype=np.int64)
        if iterations:
            np.cumsum(counts, axis=0, out=self.prefix[1:])
        self.steps = (
            np.arange(iterations + 1, dtype=np.int64)
            * int(trace.overhead_per_iteration)
        )
        #: latency tuple -> W curve (cycles consumed after t iterations),
        #: as (ndarray for searchsorted, plain list for scalar reads —
        #: numpy scalar indexing is an order of magnitude slower than a
        #: list index on the span hot path).
        self.w_cache: Dict[Tuple[int, ...], Tuple[np.ndarray, List[int]]] = {}

    def cycles_curve(
        self, latencies: Tuple[int, ...]
    ) -> Tuple[np.ndarray, List[int]]:
        curve = self.w_cache.get(latencies)
        if curve is None:
            lat_arr = np.array(latencies, dtype=np.int64)
            arr = self.prefix @ lat_arr + self.steps
            curve = (arr, arr.tolist())
            self.w_cache[latencies] = curve
        return curve


class VectorExecutor:
    """Span-exact replay of one run's traces.

    One executor lives for one :meth:`SystemSimulator.run` call; its
    dispatch memo persists across traces (RISPP dispatch depends only on
    the SI set and the fabric content, which recur heavily across
    frames).
    """

    def __init__(self, sim: "SystemSimulator") -> None:
        self._sim = sim
        self._space = sim.library.space
        self._num_atoms = self._space.size
        # Two-level memo: dispatch key -> availability -> entry.  The
        # outer lookup happens once per trace replay, so the per-span
        # cost is one small-tuple hash.
        self._memo: Dict[object, Dict[Tuple[int, ...], _DispatchEntry]] = {}
        # Per dispatch key: the stacked preference tables, or None when
        # misses go through the system's _impl_for (see
        # SystemSimulator._dispatch_preference).
        self._pref: Dict[object, Optional[_PrefTable]] = {}
        # The latency last reported per SI and the degraded flag last
        # reported: latency and degraded events report changes only,
        # across the whole run.
        self._reported: Dict[str, int] = {}
        self._degraded = False
        self._avail_ver: Optional[int] = None
        self._avail_cache: Tuple[int, ...] = ()

    # -- fabric snapshot ---------------------------------------------------

    def _availability(self) -> Tuple[int, ...]:
        """Loaded-atom counts, cheaper than building a Molecule.

        The fabric bumps ``_loaded_ver`` on every loaded-set edge, so it
        is an exact version stamp: between spans with the same stamp the
        previous snapshot is reused, and on a change only the per-type
        groups (not the container array) are folded.
        """
        fabric = self._sim.fabric
        ver = fabric._loaded_ver
        if ver == self._avail_ver:
            return self._avail_cache
        snapshot = tuple(fabric._avail_counts)
        self._avail_ver = ver
        self._avail_cache = snapshot
        return snapshot

    def _dispatch(
        self,
        trace: HotSpotTrace,
        context: object,
        tables: Optional[_PrefTable],
        avail_counts: Tuple[int, ...],
    ) -> _DispatchEntry:
        sim = self._sim
        if tables is not None:
            # First feasible row of each SI's preference segment — by
            # construction the same implementation _impl_for returns.
            # The rows are preference-ordered, so "first feasible" is
            # the minimum preference rank among feasible rows.
            rows_all, rank, offsets, cycles, impls_all = tables
            avail_arr = np.array(avail_counts, dtype=np.int64)
            feasible = (rows_all <= avail_arr).all(axis=1)
            masked = np.where(feasible, rank, len(cycles))
            first = np.minimum.reduceat(masked, offsets)
            # Molecule union is the component-wise max, and software
            # rows are all-zero, so the atoms in active use fall out of
            # one reduction over the chosen rows.
            used_counts = rows_all[first].max(axis=0).tolist()
            chosen = first.tolist()
            return (
                tuple(cycles[j] for j in chosen),
                Molecule._make(self._space, tuple(used_counts))
                if any(used_counts)
                else None,
                tuple(impls_all[j] for j in chosen),
            )
        # No preference tables: ask the system per SI.
        available = Molecule(self._space, avail_counts)
        used = self._space.zero()
        impls = tuple(
            sim._impl_for(si_name, available, context)
            for si_name in trace.si_names
        )
        for impl in impls:
            if not impl.is_software:
                used = used | impl.atoms
        return (
            tuple(int(sim.processor.si_execution_cycles(i)) for i in impls),
            None if used.is_zero else used,
            impls,
        )

    def _pref_tables(
        self, trace: HotSpotTrace, context: object
    ) -> Optional[_PrefTable]:
        """Stacked array views of the system's dispatch preferences.

        Requires every column to provide a preference list containing an
        always-feasible (zero-atom) entry; otherwise returns None and
        dispatch misses go through the system's ``_impl_for``.
        """
        sim = self._sim
        impls_all: List["MoleculeImpl"] = []
        offsets: List[int] = []
        for si_name in trace.si_names:
            prefs = sim._dispatch_preference(si_name, context)
            if prefs is None or not any(
                impl.atoms.is_zero for impl in prefs
            ):
                return None
            offsets.append(len(impls_all))
            impls_all.extend(prefs)
        rows_all = np.array(
            [impl.atoms.counts for impl in impls_all], dtype=np.int64
        ).reshape(len(impls_all), self._num_atoms)
        cycles = [
            int(sim.processor.si_execution_cycles(impl))
            for impl in impls_all
        ]
        return (
            rows_all,
            np.arange(len(impls_all), dtype=np.int64),
            np.array(offsets, dtype=np.intp),
            cycles,
            impls_all,
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
        memo: Optional[Dict[Tuple[int, ...], _DispatchEntry]] = None
        tables: Optional[_PrefTable] = None
        if memo_key is not None:
            memo = self._memo.setdefault(memo_key, {})
            if memo_key in self._pref:
                tables = self._pref[memo_key]
            else:
                tables = self._pref_tables(trace, context)
                self._pref[memo_key] = tables
        i = 0
        while i < iterations:
            port.advance_to(now)
            avail_counts = self._availability()
            entry = None if memo is None else memo.get(avail_counts)
            if entry is None:
                entry = self._dispatch(trace, context, tables, avail_counts)
                if memo is not None:
                    memo[avail_counts] = entry
            lat_tuple, used, impls = entry
            curve_arr, curve_list = arrays.cycles_curve(lat_tuple)
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
            curve_i = curve_list[i]
            total = curve_list[iterations] - curve_i
            if next_event is None or now + total <= next_event:
                k = iterations - i
            else:
                # Iterations strictly before the completion, plus the one
                # in flight when it lands (old latencies apply to it):
                # the first t > i with curve[t] - curve[i] >= budget.
                target = curve_i + (next_event - now)
                k = int(curve_arr.searchsorted(target, side="left")) - i
                k = min(k, iterations - i)
            span = curve_list[i + k] - curve_i
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
                executed = arrays.prefix[i + k] - arrays.prefix[i]
                segments.append(
                    Segment(
                        t0=now,
                        t1=now + span,
                        frame_index=trace.frame_index,
                        hot_spot=trace.hot_spot,
                        si_names=si_names,
                        executions=tuple(int(e) for e in executed),
                        latencies=lat_tuple,
                        degraded=degraded,
                    )
                )
            now += span
            i += k
            if used is not None:
                fabric.touch_atoms(used, now)
        return now
