"""Array-backed molecule selection and atom scheduling: the runtime planner.

The reference decision code (:func:`repro.core.selection.select_molecules`
and the :class:`~repro.core.schedulers.base.SchedulerState` bookkeeping)
states the paper's formalism over :class:`Molecule` lattice calls, whose
tuple allocations and hashes would dominate a profile of any sweep.  This
module re-expresses exactly the same computations over numpy
struct-of-arrays views; :meth:`repro.core.runtime.RuntimeManager.plan_hot_spot`
and the Molen baseline plan every hot spot through it, and the reference
code stays as the readable statement and the test oracle.

Bit-identity is the contract, not a goal: every operation here either

* uses integer dtypes (atom counts, latencies, determinants — int64,
  exact), or
* evaluates the reference float expressions on the *same Python floats*
  the scalar code sees (``profit = expected * latency_gain`` and
  ``-profit / cost`` run as ordinary CPython arithmetic over values
  pulled out of the int64 arrays), or
* replicates the reference comparison *order* (the sequential HEF
  cross-multiplied scan is order-dependent in near-tie rounding, so it is
  rerun sequentially over precomputed arrays instead of via ``argmax``).

``tests/test_plan_memo.py`` checks plans against the reference code over
the Figure 7 forecasts, and ``tests/data/golden_engine_results.json`` pins
whole simulation results made with the reference planner.

The expensive part of building the array views — stacking every
implementation's atom vector into int64 matrices — depends only on the
SI library objects, which are immutable and, with the process-wide
:func:`~repro.h264.silibrary.h264_platform`, shared by every simulator
of a process.  One module-level LRU memo (:data:`_TABLES`) therefore
builds the static tables once per distinct SI set / selection per
process instead of once per plan.  Entries hold strong references to
the keyed objects, so the ``id()``-based keys can never alias a
recycled object, and the bound keeps a process that builds many
libraries (a test run) from pinning them all.

Float division appears here deliberately: RL005 (division-free) scopes to
``repro/core/schedulers/*`` and ``repro/sim/vector*`` — the schedulers'
HEF compare stays cross-multiplied, while this module mirrors the
reference *selection* ratio, which lives outside that scope in
``repro/core/selection.py`` and legitimately divides.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from ..errors import (
    InvalidScheduleError,
    SelectionError,
    UnknownSpecialInstructionError,
)
from .molecule import AtomSpace, Molecule
from .schedule import Schedule
from .schedulers.base import AtomScheduler, SchedulerState
from .selection import MoleculeSelection
from .si import MoleculeImpl, SpecialInstruction

__all__ = [
    "LruMemo",
    "select_molecules_fast",
    "VectorSchedulerState",
    "fast_schedule",
]

#: Latency sentinel for infeasible rows in the best-latency refresh.
_LAT_SENTINEL = np.iinfo(np.int64).max

_V = TypeVar("_V")


class LruMemo(OrderedDict[Hashable, _V]):
    """A dict that keeps at most ``maxsize`` entries, evicting the least
    recently used.  Process-wide memos of :mod:`repro.core` use it; they
    only ever change speed, never a result.  Not synchronised: the
    package plans on one thread per process."""

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


#: The static selection/schedule tables of every SI set and selection
#: planned in this process (see the module docstring).
_TABLES: LruMemo[Any] = LruMemo(1024)


def _cached_tables(key: Hashable, build: Callable[[], _V]) -> _V:
    tables = _TABLES.lookup(key)
    if tables is None:
        tables = build()
        _TABLES.store(key, tables)
    return tables


class _SelectionTables:
    """Static arrays for :func:`select_molecules_fast` (one SI set)."""

    __slots__ = (
        "sis", "space", "impls", "rows", "lat", "lat_list", "row_si",
        "row_si_list", "si_names", "impl_names", "software_lat",
        "software_lat_list",
    )

    def __init__(self, sis: Tuple[SpecialInstruction, ...]) -> None:
        space = sis[0].space
        for si in sis:
            if si.space != space:
                raise SelectionError("hot-spot SIs use different atom spaces")
        #: Strong reference pinning the keyed SI objects alive.
        self.sis = sis
        self.space = space
        impls: List[MoleculeImpl] = []
        row_si_list: List[int] = []
        for si_idx, si in enumerate(sis):
            for impl in si.molecules:
                impls.append(impl)
                row_si_list.append(si_idx)
        self.impls = impls
        self.rows = np.array(
            [impl.atoms.counts for impl in impls], dtype=np.int64
        ).reshape(len(impls), space.size)
        self.lat = np.array([impl.latency for impl in impls], dtype=np.int64)
        self.lat_list = [impl.latency for impl in impls]
        self.row_si = np.array(row_si_list, dtype=np.intp)
        self.row_si_list = row_si_list
        self.si_names = [si.name for si in sis]
        self.impl_names = [impl.name for impl in impls]
        self.software_lat = np.array(
            [si.software.latency for si in sis], dtype=np.int64
        )
        self.software_lat_list = [si.software.latency for si in sis]


def _selection_tables(sis: Sequence[SpecialInstruction]) -> _SelectionTables:
    return _cached_tables(
        ("select", tuple(id(si) for si in sis)),
        lambda: _SelectionTables(tuple(sis)),
    )


def select_molecules_fast(
    sis: Sequence[SpecialInstruction],
    expected: Mapping[str, float],
    num_acs: int,
    available: Optional[Molecule] = None,
) -> MoleculeSelection:
    """Vectorized :func:`repro.core.selection.select_molecules`.

    Produces the identical :class:`MoleculeSelection` — same
    implementations dict (same insertion order), same meta-molecule —
    for every input the reference accepts.  The greedy round structure
    is preserved: the per-candidate lattice math (meta-molecule unions,
    determinants) is batched in int64, while the rank/tie-break cascade
    runs over the masked candidates as ordinary Python tuples with the
    exact reference key ``(rank, reuse, si_name, impl_name)``.
    """
    if not sis:
        raise SelectionError("cannot select molecules for an empty hot spot")
    if num_acs < 0:
        raise SelectionError(f"negative atom-container budget: {num_acs}")
    tables = _selection_tables(sis)
    space = tables.space
    n = space.size
    num_sis = len(sis)
    impls = tables.impls
    rows = tables.rows
    lat = tables.lat
    lat_list = tables.lat_list
    row_si = tables.row_si
    row_si_list = tables.row_si_list
    si_names = tables.si_names
    impl_names = tables.impl_names

    exec_list = [float(expected.get(name, 0.0)) for name in si_names]
    exec_w = np.array(exec_list, dtype=np.float64)
    exec_pos = exec_w[row_si] > 0.0
    if available is not None:
        reuse_counts = np.array(available.counts, dtype=np.int64)
    else:
        reuse_counts = np.zeros(n, dtype=np.int64)
    # Static per candidate: |reuse_base ⊖ impl.atoms|.
    reuse_list = (
        np.maximum(rows - reuse_counts, 0).sum(axis=1).tolist()
    )

    selection: Dict[str, MoleculeImpl] = {si.name: si.software for si in sis}
    current_lat = tables.software_lat.copy()
    cl_list = list(tables.software_lat_list)
    # Selected *hardware* atoms per SI (software rows stay zero).
    selected = np.zeros((num_sis, n), dtype=np.int64)
    meta_det = 0

    while True:
        mask = exec_pos & (lat < current_lat[row_si])
        if not mask.any():
            break
        # sup of the selection with each SI excluded: running maxima from
        # both ends (prefix below, suffix above), combined per SI.
        up = np.zeros((num_sis, n), dtype=np.int64)
        np.maximum.accumulate(selected[:-1], axis=0, out=up[1:])
        down = np.maximum.accumulate(selected[::-1], axis=0)[::-1]
        others = up
        others[:-1] = np.maximum(up[:-1], down[1:])

        new_meta = np.maximum(others[row_si], rows)
        new_det = new_meta.sum(axis=1)
        mask &= new_det <= num_acs
        idx = mask.nonzero()[0]
        if idx.size == 0:
            break
        idx_list = idx.tolist()
        det_list = new_det[idx].tolist()
        # Rank + tie-break over the masked candidates with the exact
        # reference key ``(flag, value, reuse, si_name, impl_name)``; the
        # masked sets are small (a handful of improving, affordable
        # molecules), so a Python scan beats another cascade of
        # tiny-array reductions.  The floats are ordinary Python floats —
        # the arithmetic is the scalar code's, operand for operand.  The
        # lexicographic compare runs in two stages: the numeric prefix
        # decides almost every round, and the string tie-break tuple is
        # only built for rows that tie on it exactly.
        best_flag = 2.0
        best_val = 0.0
        ties: List[int] = []
        for t, j in enumerate(idx_list):
            s = row_si_list[j]
            cost = det_list[t] - meta_det
            profit = exec_list[s] * (cl_list[s] - lat_list[j])
            if cost <= 0:
                flag = 0.0
                val = -profit
            else:
                flag = 1.0
                val = -profit / cost
            if flag < best_flag or (flag == best_flag and val < best_val):
                best_flag = flag
                best_val = val
                ties = [j]
            elif flag == best_flag and val == best_val:
                ties.append(j)
        best_row = ties[0]
        if len(ties) > 1:
            best_tb: Optional[Tuple[int, str, str]] = None
            for j in ties:
                s = row_si_list[j]
                tb = (reuse_list[j], si_names[s], impl_names[j])
                if best_tb is None or tb < best_tb:
                    best_tb = tb
                    best_row = j
        winner = impls[best_row]
        si_idx = row_si_list[best_row]
        selection[winner.si_name] = winner
        current_lat[si_idx] = winner.latency
        cl_list[si_idx] = winner.latency
        selected[si_idx] = rows[best_row]
        meta_det = int(new_det[best_row])

    if meta_det > num_acs:  # pragma: no cover - defensive
        raise SelectionError(
            f"selection uses {meta_det} atoms but only "
            f"{num_acs} ACs are available"
        )
    # sup of the selected hardware molecules — equal to the winning row's
    # ``new_meta`` of the last round (or zero when every SI stayed in
    # software).
    meta = Molecule._make(space, tuple(selected.max(axis=0).tolist()))
    return MoleculeSelection(
        implementations=dict(selection), meta=meta, num_acs=num_acs
    )


class _ScheduleTables:
    """Static arrays for :class:`VectorSchedulerState` (one selection)."""

    __slots__ = (
        "selection", "sis", "space", "candidates", "cand_rows", "cand_lat",
        "cand_lat_list", "cand_si", "cand_si_list", "cand_index",
        "cand_mask", "sel_names", "sel_pos", "impl_rows", "impl_lat",
        "impl_offsets", "software_lat",
    )

    def __init__(
        self,
        selection: Mapping[str, MoleculeImpl],
        sis: Mapping[str, SpecialInstruction],
    ) -> None:
        if not selection:
            raise InvalidScheduleError("cannot schedule an empty selection")
        for si_name in selection:
            if si_name not in sis:
                raise UnknownSpecialInstructionError(
                    f"selection references unknown SI {si_name!r}"
                )
        #: Strong references pinning the keyed objects alive.
        self.selection: Dict[str, MoleculeImpl] = dict(selection)
        self.sis: Dict[str, SpecialInstruction] = dict(sis)
        space: AtomSpace = next(iter(selection.values())).atoms.space
        self.space = space
        n = space.size
        # Equation (3): the full candidate list M' (expand_candidates).
        cands: List[MoleculeImpl] = []
        cand_si_list: List[int] = []
        impl_rows: List[Tuple[int, ...]] = []
        impl_lat: List[int] = []
        offsets: List[int] = [0]
        sel_names: List[str] = list(selection)
        for si_idx, si_name in enumerate(sel_names):
            si = self.sis[si_name]
            sel_atoms = selection[si_name].atoms
            for impl in si.molecules:
                if impl.atoms <= sel_atoms:
                    cands.append(impl)
                    cand_si_list.append(si_idx)
                impl_rows.append(impl.atoms.counts)
                impl_lat.append(impl.latency)
            offsets.append(len(impl_rows))
        self.candidates = cands
        self.cand_rows = np.array(
            [c.atoms.counts for c in cands], dtype=np.int64
        ).reshape(len(cands), n)
        self.cand_lat = np.array([c.latency for c in cands], dtype=np.int64)
        self.cand_lat_list = [c.latency for c in cands]
        self.cand_si = np.array(cand_si_list, dtype=np.intp)
        self.cand_si_list = cand_si_list
        # Frozen-dataclass __hash__ is too slow for the hot path; the
        # candidate objects are pinned above, so identity is a safe key.
        self.cand_index: Dict[int, int] = {
            id(c): j for j, c in enumerate(cands)
        }
        self.cand_mask: Dict[str, np.ndarray] = {
            si_name: np.array(
                [c.si_name == si_name for c in cands], dtype=bool
            )
            for si_name in sel_names
        }
        self.sel_names = sel_names
        self.sel_pos = {name: i for i, name in enumerate(sel_names)}
        # Stacked implementation table for the best-latency refresh (one
        # feasibility reduction instead of per-SI lattice calls).
        self.impl_rows = np.array(impl_rows, dtype=np.int64).reshape(
            len(impl_rows), n
        )
        self.impl_lat = np.array(impl_lat, dtype=np.int64)
        self.impl_offsets = np.array(offsets[:-1], dtype=np.intp)
        self.software_lat = np.array(
            [self.sis[name].software_latency for name in sel_names],
            dtype=np.int64,
        )


def _schedule_tables(
    selection: Mapping[str, MoleculeImpl],
    sis: Mapping[str, SpecialInstruction],
) -> _ScheduleTables:
    key = (
        "schedule",
        tuple((name, id(impl)) for name, impl in selection.items()),
        tuple(sorted((name, id(si)) for name, si in sis.items())),
    )
    return _cached_tables(key, lambda: _ScheduleTables(selection, sis))


class VectorSchedulerState(SchedulerState):
    """A :class:`SchedulerState` whose hot queries run on cached arrays.

    The public surface (``available``, ``best_latency``, ``commit``,
    ``cleaned_candidates`` ...) keeps the reference semantics, so the
    unmodified scheduler strategies (``FSFR``/``ASF``/``SJF``/beam
    search/random) run on it verbatim; only the per-candidate lattice
    math is replaced by int64 array operations.  ``finalize`` is
    inherited untouched — it reads the synced ``available`` molecule.

    ``available`` and ``best_latency`` are materialized lazily from the
    arrays: the fast commit path only invalidates them, and the dict /
    molecule views are rebuilt when a strategy (or ``finalize``) actually
    reads them.  The parent ``__init__`` is deliberately not called: its
    validation and array building are replayed (or cache-hit) by the
    static :class:`_ScheduleTables`, and ``best_latency`` is seeded by
    the vectorized equivalent of
    :func:`~repro.core.candidates.best_latency_map`.
    """

    def __init__(
        self,
        selection: Mapping[str, MoleculeImpl],
        sis: Mapping[str, SpecialInstruction],
        available: Molecule,
        expected: Mapping[str, float],
    ) -> None:
        tables = self._tables = _schedule_tables(selection, sis)
        self.selection = dict(selection)
        self.sis = dict(sis)
        self.space = available.space
        self._avail_mol: Optional[Molecule] = available
        self.expected = {
            si_name: float(expected.get(si_name, 0.0))
            for si_name in selection
        }
        self.candidates = list(tables.candidates)
        self.schedule = Schedule(self.space)
        self._avail_arr = np.array(available.counts, dtype=np.int64)
        self._cand_rows = tables.cand_rows
        self._cand_lat = tables.cand_lat
        self._cand_index = tables.cand_index
        self._sel_names = tables.sel_names
        self._cand_si = tables.cand_si
        self._impl_rows = tables.impl_rows
        self._impl_lat = tables.impl_lat
        self._impl_offsets = tables.impl_offsets
        self._software_lat = tables.software_lat
        # Figure 6 lines 6-9 (best_latency_map): the fastest latency
        # feasible under ``available``, software included.
        feasible = (tables.impl_rows <= self._avail_arr).all(axis=1)
        lat = np.where(feasible, tables.impl_lat, _LAT_SENTINEL)
        seg_min = np.minimum.reduceat(lat, tables.impl_offsets)
        self._blat = np.minimum(tables.software_lat, seg_min)
        self._bl_dict: Optional[Dict[str, int]] = None
        self._addl = np.empty(len(tables.candidates), dtype=np.int64)
        self._diff = np.empty_like(tables.cand_rows)
        # Last cleaned_candidates result with its candidate indices: the
        # strategies feed that exact list object straight back into
        # smallest_step, which can then skip the id()->index mapping.
        # The mapping never goes stale — candidate object <-> index is
        # static for the state's lifetime.
        self._last_clean: Optional[Tuple[List[MoleculeImpl], List[int]]] = None
        self._refresh_additional()

    # -- lazy views over the arrays ----------------------------------------

    @property
    def available(self) -> Molecule:
        mol = self._avail_mol
        if mol is None:
            mol = Molecule._make(self.space, tuple(self._avail_arr.tolist()))
            self._avail_mol = mol
        return mol

    @available.setter
    def available(self, mol: Molecule) -> None:
        # Reference-path assignments (super().commit, finalize) land
        # here; the arrays are resynced by the callers that need them.
        self._avail_mol = mol

    @property
    def best_latency(self) -> Dict[str, int]:
        mapping = self._bl_dict
        if mapping is None:
            mapping = dict(zip(self._sel_names, self._blat.tolist()))
            self._bl_dict = mapping
        return mapping

    @best_latency.setter
    def best_latency(self, mapping: Dict[str, int]) -> None:
        self._bl_dict = mapping

    # -- internal sync -----------------------------------------------------

    def _refresh_additional(self) -> None:
        np.subtract(self._cand_rows, self._avail_arr, out=self._diff)
        np.maximum(self._diff, 0, out=self._diff)
        self._diff.sum(axis=1, out=self._addl)

    def _resync_from_reference(self) -> None:
        """Rebuild the arrays from the dict/molecule ground truth."""
        self._avail_arr = np.array(self.available.counts, dtype=np.int64)
        self._blat = np.array(
            [self.best_latency[name] for name in self._sel_names],
            dtype=np.int64,
        )
        self._refresh_additional()

    # -- queries -----------------------------------------------------------

    def cleaned_candidates(
        self, si_name: Optional[str] = None
    ) -> List[MoleculeImpl]:
        mask = (self._addl > 0) & (self._cand_lat < self._blat[self._cand_si])
        if si_name is not None:
            mask &= self._tables.cand_mask[si_name]
        cands = self.candidates
        js = mask.nonzero()[0].tolist()
        result = [cands[j] for j in js]
        self._last_clean = (result, js)
        return result

    def additional_atoms(self, impl: MoleculeImpl) -> int:
        j = self._cand_index.get(id(impl))
        if j is None:
            return super().additional_atoms(impl)
        return int(self._addl[j])

    def smallest_step(
        self, candidates: List[MoleculeImpl]
    ) -> Optional[MoleculeImpl]:
        if not candidates:
            return None
        last = self._last_clean
        if last is not None and candidates is last[0]:
            js = last[1]
        else:
            index = self._cand_index
            js = []
            for c in candidates:
                j = index.get(id(c))
                if j is None:
                    return super().smallest_step(candidates)
                js.append(j)
        addl = self._addl[js].tolist()
        blat = self._blat.tolist()
        tables = self._tables
        cand_si = tables.cand_si_list
        cand_lat = tables.cand_lat_list
        # Reference key: (additional, -improvement, si_name, name);
        # -improvement == latency - best_latency[si].  Two-stage compare:
        # the int prefix decides nearly always, the (si_name, name)
        # strings only break exact numeric ties.
        best_addl = -1
        best_dlat = 0
        ties: List[int] = []
        for t, j in enumerate(js):
            a = addl[t]
            d = cand_lat[j] - blat[cand_si[j]]
            if best_addl < 0 or a < best_addl or (
                a == best_addl and d < best_dlat
            ):
                best_addl = a
                best_dlat = d
                ties = [t]
            elif a == best_addl and d == best_dlat:
                ties.append(t)
        best = candidates[ties[0]]
        if len(ties) > 1:
            for t in ties[1:]:
                c = candidates[t]
                if (c.si_name, c.name) < (best.si_name, best.name):
                    best = c
        return best

    # -- mutation ----------------------------------------------------------

    def commit(self, impl: MoleculeImpl) -> None:
        j = self._cand_index.get(id(impl))
        if j is None:
            # Unknown implementation (e.g. a selected molecule committed
            # directly by upgrade_si_fully's fallback): run the reference
            # path and resync the arrays from the ground truth.
            super().commit(impl)
            self._resync_from_reference()
            return
        avail = self._avail_arr
        row = self._cand_rows[j]
        new_list = np.maximum(row - avail, 0).tolist()
        new_atoms = Molecule._make(self.space, tuple(new_list))
        latency_before = int(self._blat[self._tables.sel_pos[impl.si_name]])
        self.schedule.append_step(
            impl, new_atoms, latency_before=latency_before
        )
        if not any(new_list):
            # Nothing new to load: the availability is unchanged, and
            # impl being feasible under it means best_latency already
            # accounts for impl.latency — all views stay valid.
            return
        np.maximum(avail, row, out=avail)
        self._avail_mol = None
        # Reference refresh: best_latency[si] becomes the fastest latency
        # available under the new virtual availability (which covers the
        # just-committed impl by construction), floored at the old value.
        # Software latencies are already folded into the initial _blat.
        feasible = (self._impl_rows <= avail).all(axis=1)
        lat = np.where(feasible, self._impl_lat, _LAT_SENTINEL)
        seg_min = np.minimum.reduceat(lat, self._impl_offsets)
        np.minimum(self._blat, seg_min, out=self._blat)
        self._bl_dict = None
        self._refresh_additional()


def _run_hef_fast(state: VectorSchedulerState) -> None:
    """HEF's ``_run`` replayed over the state's cached arrays.

    The sequential cross-multiplied compare (``num * best_den >
    best_num * den``) is order-dependent under float rounding near ties,
    so the scan itself stays a sequential loop — the mask is batched,
    while the ``num``/``den`` terms come out of the arrays as the same
    Python floats the reference computes.  Division-free, like the
    reference (RL005).
    """
    tables = state._tables
    exec_list = [state.expected[name] for name in tables.sel_names]
    cands = state.candidates
    cand_si_list = tables.cand_si_list
    cand_lat_list = tables.cand_lat_list
    cand_si = state._cand_si
    cand_lat = state._cand_lat
    while True:
        blat = state._blat
        mask = (state._addl > 0) & (cand_lat < blat[cand_si])
        idx = mask.nonzero()[0]
        if idx.size == 0:
            return
        idx_list = idx.tolist()
        addl_list = state._addl[idx].tolist()
        blat_list = blat.tolist()
        best_j = -1
        best_num = 0.0
        best_den = 1.0
        for t, j in enumerate(idx_list):
            s = cand_si_list[j]
            num = exec_list[s] * (blat_list[s] - cand_lat_list[j])
            den = float(addl_list[t])
            if best_j < 0 or num * best_den > best_num * den:
                best_j = j
                best_num = num
                best_den = den
        if best_num <= 0.0:
            candidates = [cands[j] for j in idx_list]
            state._last_clean = (candidates, idx_list)
            fallback = AtomScheduler.smallest_step(state, candidates)
            if fallback is None:
                return
            state.commit(fallback)
        else:
            state.commit(cands[best_j])


def fast_schedule(
    scheduler: AtomScheduler,
    selection: Mapping[str, MoleculeImpl],
    sis: Mapping[str, SpecialInstruction],
    available: Molecule,
    expected: Mapping[str, float],
) -> Schedule:
    """Run ``scheduler`` over a :class:`VectorSchedulerState`.

    HEF — whose global candidate scan dominates sweep profiles — is
    routed to :func:`_run_hef_fast`; every other strategy executes its
    own unmodified ``_run`` against the accelerated state.  Either way
    the resulting :class:`Schedule` is identical to
    ``scheduler.schedule(...)``.
    """
    state = VectorSchedulerState(selection, sis, available, expected)
    if scheduler.name == "HEF":
        _run_hef_fast(state)
    else:
        scheduler._run(state)
    return state.finalize()
