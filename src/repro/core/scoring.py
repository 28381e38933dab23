"""Molecule selection and atom scheduling at host speed: the runtime planner.

The reference decision code (:func:`repro.core.selection.select_molecules`
and the :class:`~repro.core.schedulers.base.SchedulerState` bookkeeping)
states the paper's formalism over :class:`Molecule` lattice calls, whose
tuple allocations and hashes would dominate a profile of any sweep.  This
module re-expresses exactly the same computations over plain Python
ints; :meth:`repro.core.runtime.RuntimeManager.plan_hot_spot` and the
Molen baseline plan every hot spot through it, and the reference code
stays as the readable statement and the test oracle.

Each molecule is held *sparse*, as its non-zero ``(position, count)``
pairs: an H.264 molecule uses 1–4 of the 17 atom types, so ``|a ⊖ m|``
and ``a ∪ m`` touch only those positions.

Bit-identity is the contract, not a goal: every operation here either

* is integer arithmetic (atom counts, latencies, determinants), or
* evaluates the reference float expressions on the *same Python floats*
  the reference code sees (``profit = expected * latency_gain`` and
  ``-profit / cost``, operand for operand), or
* replicates the reference comparison *order* (the sequential HEF
  cross-multiplied scan is order-dependent in near-tie rounding, so it
  scans the candidates in the reference order).

``tests/test_plan_memo.py`` checks plans against the reference code over
the Figure 7 forecasts and over random libraries, and
``tests/data/golden_engine_results.json`` pins whole simulation results
made with the reference planner.

Two process-wide memos keep design-time work out of the run-time step:

* :data:`_TABLES` holds the static tables of every SI set and selection
  planned in this process.  They depend only on the SI library objects,
  which are immutable and, with the process-wide
  :func:`~repro.h264.silibrary.h264_platform`, shared by every simulator
  of a process.  Entries hold strong references to the keyed objects, so
  the ``id()``-based keys can never alias a recycled object.
* :data:`_SELECTIONS` holds selections by SI set, per-SI weights and
  budget.  The availability enters the selection only as the ``reuse``
  tie-break, so a selection whose greedy rounds never tied exactly is the
  same for every availability; only those are stored.

Both are bounded, so a process that builds many libraries (a test run)
does not pin them all.

Float division appears here deliberately: RL005 (division-free) scopes to
``repro/core/schedulers/*`` and ``repro/sim/vector*`` — the schedulers'
HEF compare stays cross-multiplied, while this module mirrors the
reference *selection* ratio, which lives outside that scope in
``repro/core/selection.py`` and legitimately divides.
"""

from __future__ import annotations

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

from ..errors import (
    InvalidScheduleError,
    SelectionError,
    UnknownSpecialInstructionError,
)
from .memo import LruMemo
from .molecule import Molecule
from .schedule import Schedule
from .schedulers.base import AtomScheduler, SchedulerState
from .schedulers.hef import HEFScheduler
from .selection import MoleculeSelection
from .si import MoleculeImpl, SpecialInstruction

__all__ = [
    "LruMemo",
    "select_molecules_fast",
    "VectorSchedulerState",
    "fast_schedule",
]

_V = TypeVar("_V")

#: A molecule's non-zero ``(position, count)`` pairs, in position order.
_Sparse = Tuple[Tuple[int, int], ...]


#: The static selection/schedule tables of every SI set and selection
#: planned in this process (see the module docstring).
_TABLES: LruMemo[Any] = LruMemo(1024)

#: Tie-free selections by ``(SI set, weights, budget)`` (module docstring).
#: Sweeps enumerate the AC count outermost, so the keys of one budget
#: are reused by neighbouring cells.  With 256 entries the Figure 7 and
#: traced sweeps run the greedy rounds exactly as often as with an
#: unbounded memo, and the prefetch sweep 1,232 times instead of 1,212.
_SELECTIONS: LruMemo[MoleculeSelection] = LruMemo(256)


def _cached_tables(key: Hashable, build: Callable[[], _V]) -> _V:
    tables = _TABLES.lookup(key)
    if tables is None:
        tables = build()
        _TABLES.store(key, tables)
    return tables


def _sparse(counts: Sequence[int]) -> _Sparse:
    return tuple((p, c) for p, c in enumerate(counts) if c)


def _missing(avail: Sequence[int], atoms: _Sparse) -> List[Tuple[int, int]]:
    """``avail ⊖ atoms`` as ``(position, count)`` pairs."""
    return [(p, c - avail[p]) for p, c in atoms if c > avail[p]]


class _SelectionTables:
    """Static rows for :func:`select_molecules_fast` (one SI set)."""

    __slots__ = ("sis", "space", "impls", "atoms", "lat", "row_si",
                 "software_lat")

    def __init__(self, sis: Tuple[SpecialInstruction, ...]) -> None:
        space = sis[0].space
        for si in sis:
            if si.space != space:
                raise SelectionError("hot-spot SIs use different atom spaces")
        #: Strong reference pinning the keyed SI objects alive.
        self.sis = sis
        self.space = space
        self.impls = [impl for si in sis for impl in si.molecules]
        self.atoms = [_sparse(impl.atoms.counts) for impl in self.impls]
        self.lat = [impl.latency for impl in self.impls]
        self.row_si = [s for s, si in enumerate(sis) for _ in si.molecules]
        self.software_lat = [si.software.latency for si in sis]


def select_molecules_fast(
    sis: Sequence[SpecialInstruction],
    expected: Mapping[str, float],
    num_acs: int,
    available: Optional[Molecule] = None,
) -> MoleculeSelection:
    """Memoised :func:`repro.core.selection.select_molecules`.

    Produces the identical :class:`MoleculeSelection` — same
    implementations dict (same insertion order), same meta-molecule —
    for every input the reference accepts.  A selection computed
    without any exact tie is stored in :data:`_SELECTIONS` and served to
    every later call with the same SIs, weights and budget, whatever
    its availability; the returned object is then shared and must not
    be mutated.
    """
    if not sis:
        raise SelectionError("cannot select molecules for an empty hot spot")
    if num_acs < 0:
        raise SelectionError(f"negative atom-container budget: {num_acs}")
    weights = tuple(float(expected.get(si.name, 0.0)) for si in sis)
    key = (tuple(sis), weights, num_acs)
    selection = _SELECTIONS.lookup(key)
    if selection is None:
        tables = _cached_tables(
            ("select", tuple(id(si) for si in sis)),
            lambda: _SelectionTables(tuple(sis)),
        )
        selection, tied = _greedy(tables, weights, num_acs, available)
        if not tied:
            _SELECTIONS.store(key, selection)
    return selection


def _greedy(
    tables: _SelectionTables,
    weights: Sequence[float],
    num_acs: int,
    available: Optional[Molecule],
) -> Tuple[MoleculeSelection, bool]:
    """The reference greedy rounds; also says whether any round tied."""
    atoms = tables.atoms
    lat = tables.lat
    row_si = tables.row_si
    impls = tables.impls
    num_sis = len(tables.sis)
    size = tables.space.size
    current = list(tables.software_lat)
    # Rows that may still improve their SI; SIs of weight zero never
    # get atoms.
    live = [j for j, s in enumerate(row_si) if weights[s] > 0.0]
    chosen: List[_Sparse] = [()] * num_sis  # software selects no atoms
    selection: Dict[str, MoleculeImpl] = {
        si.name: si.software for si in tables.sis
    }
    dets = [0] * len(impls)
    meta_det = 0
    tied = False
    while True:
        # sup of the selection with SI s excluded is, per atom type, the
        # largest count of any other SI: the type's top count unless s
        # holds it, then the runner-up.
        top = [0] * size
        runner_up = [0] * size
        holder = [-1] * size
        for t in range(num_sis):
            for p, c in chosen[t]:
                if c > top[p]:
                    runner_up[p] = top[p]
                    top[p] = c
                    holder[p] = t
                elif c > runner_up[p]:
                    runner_up[p] = c
        others_det = [meta_det] * num_sis
        for p in range(size):
            if holder[p] >= 0:
                others_det[holder[p]] -= top[p] - runner_up[p]
        # Rank with the exact reference key ``(flag, value, reuse,
        # si_name, impl_name)``, in two stages: the numeric prefix
        # decides almost every round, and the tie-break tuple is only
        # built for rows that tie on it exactly.  The floats are the
        # reference's, operand for operand.
        best_flag = 2.0
        best_val = 0.0
        ties: List[int] = []
        for j in live:
            s = row_si[j]
            det = others_det[s]
            for p, c in atoms[j]:
                have = runner_up[p] if holder[p] == s else top[p]
                if c > have:
                    det += c - have
            if det > num_acs:
                continue
            dets[j] = det
            cost = det - meta_det
            profit = weights[s] * (current[s] - lat[j])
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
        if not ties:
            break
        best = ties[0]
        if len(ties) > 1:
            tied = True
            base = available.counts if available is not None else (0,) * size
            best_tb: Optional[Tuple[int, str, str]] = None
            for j in ties:
                reuse = sum(c for _, c in _missing(base, atoms[j]))
                tb = (reuse, impls[j].si_name, impls[j].name)
                if best_tb is None or tb < best_tb:
                    best_tb = tb
                    best = j
        winner = impls[best]
        s = row_si[best]
        selection[winner.si_name] = winner
        current[s] = winner.latency
        chosen[s] = atoms[best]
        meta_det = dets[best]
        live = [j for j in live if lat[j] < current[row_si[j]]]

    meta = [0] * size
    for row in chosen:
        for p, c in row:
            if c > meta[p]:
                meta[p] = c
    result = MoleculeSelection(
        implementations=selection,
        meta=Molecule._make(tables.space, tuple(meta)),
        num_acs=num_acs,
    )
    return result, tied


class _Ladder:
    """Static rows for :class:`VectorSchedulerState` (one selection).

    The rows are every hardware molecule of the selected SIs (the
    best-latency refresh needs them all); ``cands`` indexes the
    equation (3) candidates among them, in the reference's expansion
    order (selection order, then each SI's canonical molecule order).
    ``users[p]`` lists the ``(row, count)`` pairs of the rows that use
    atom type ``p``: loading that type changes only those rows.
    """

    __slots__ = (
        "selection", "sis", "space", "rows", "atoms", "sizes", "lat",
        "row_si", "row_of", "users", "cands", "cands_of", "candidates",
        "software_lat",
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
        self.sis: Dict[str, SpecialInstruction] = {
            name: sis[name] for name in selection
        }
        self.space = next(iter(selection.values())).atoms.space
        self.rows: List[MoleculeImpl] = []
        self.cands: List[int] = []
        self.cands_of: Dict[str, List[int]] = {}
        for si_name, selected in selection.items():
            own: List[int] = []
            self.cands_of[si_name] = own
            for impl in self.sis[si_name].molecules:
                if impl.atoms <= selected.atoms:
                    own.append(len(self.rows))
                self.rows.append(impl)
            self.cands.extend(own)
        self.atoms = [_sparse(impl.atoms.counts) for impl in self.rows]
        self.sizes = [impl.determinant for impl in self.rows]
        self.lat = [impl.latency for impl in self.rows]
        self.row_si = [impl.si_name for impl in self.rows]
        # Frozen-dataclass __hash__ is too slow for the hot path; the
        # rows are pinned above, so identity is a safe key.
        self.row_of = {id(impl): i for i, impl in enumerate(self.rows)}
        self.users: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.space.size)
        ]
        for i, row in enumerate(self.atoms):
            for p, c in row:
                self.users[p].append((i, c))
        for users in self.users:  # largest counts first
            users.sort(key=lambda user: -user[1])
        self.candidates = [self.rows[i] for i in self.cands]
        self.software_lat = {
            name: si.software_latency for name, si in self.sis.items()
        }


def _cached_ladder(
    selection: Mapping[str, MoleculeImpl],
    sis: Mapping[str, SpecialInstruction],
) -> _Ladder:
    key = tuple(
        (name, id(impl), id(sis.get(name))) for name, impl in selection.items()
    )
    return _cached_tables(key, lambda: _Ladder(selection, sis))


class VectorSchedulerState(SchedulerState):
    """A :class:`SchedulerState` kept on sparse integer atom vectors.

    The public surface (``available``, ``best_latency``, ``commit``,
    ``cleaned_candidates`` ...) keeps the reference semantics, so the
    unmodified scheduler strategies (``FSFR``/``ASF``/``SJF``/beam
    search/random) run on it verbatim.  The state holds the virtual
    availability as a list of counts and, per row of the static
    :class:`_Ladder`, the number of atoms it still misses.  A commit
    loads a few atom types and updates only the rows that use them;
    a row whose count reaches zero has become available, which is when
    it can lower its SI's ``best_latency``.

    The parent ``__init__`` is deliberately not called: its validation
    and candidate expansion are replayed (or cache-hit) by the static
    :class:`_Ladder`.  The ``selection``, ``sis`` and ``candidates``
    views are the ladder's own and must not be mutated.
    """

    def __init__(
        self,
        selection: Mapping[str, MoleculeImpl],
        sis: Mapping[str, SpecialInstruction],
        available: Molecule,
        expected: Mapping[str, float],
    ) -> None:
        ladder = self._ladder = _cached_ladder(selection, sis)
        self.selection = ladder.selection
        self.sis = ladder.sis
        self.space = available.space
        self.expected = {
            si_name: float(expected.get(si_name, 0.0))
            for si_name in selection
        }
        self.candidates = ladder.candidates
        self.schedule = Schedule(self.space)
        self.available = available
        self._avail = list(available.counts)
        # Figure 6 lines 6-9 (best_latency_map): the fastest latency
        # available under ``available``, software included.
        short = self._short = list(ladder.sizes)
        users = ladder.users
        for p, have in enumerate(self._avail):
            if have:
                for i, c in users[p]:
                    short[i] -= c if c < have else have
        best = self.best_latency = dict(ladder.software_lat)
        lat = ladder.lat
        for i, si_name in enumerate(ladder.row_si):
            if not short[i] and lat[i] < best[si_name]:
                best[si_name] = lat[i]
        # Last cleaned_candidates result with its row indices: the
        # strategies feed that exact list object straight back into
        # smallest_step, which can then skip the id()->row mapping.
        self._last_clean: Optional[Tuple[List[MoleculeImpl], List[int]]] = None

    def _atoms_of(self, impl: MoleculeImpl) -> _Sparse:
        i = self._ladder.row_of.get(id(impl))
        if i is None:
            return _sparse(impl.atoms.counts)
        return self._ladder.atoms[i]

    # -- queries -----------------------------------------------------------

    def cleaned_candidates(
        self, si_name: Optional[str] = None
    ) -> List[MoleculeImpl]:
        ladder = self._ladder
        pool = ladder.cands if si_name is None else ladder.cands_of.get(
            si_name, []
        )
        short = self._short
        lat = ladder.lat
        row_si = ladder.row_si
        best = self.best_latency
        rows = [i for i in pool if short[i] and lat[i] < best[row_si[i]]]
        result = [ladder.rows[i] for i in rows]
        self._last_clean = (result, rows)
        return result

    def additional_atoms(self, impl: MoleculeImpl) -> int:
        i = self._ladder.row_of.get(id(impl))
        if i is not None:
            return self._short[i]
        return sum(c for _, c in _missing(self._avail, self._atoms_of(impl)))

    def smallest_step(
        self, candidates: List[MoleculeImpl]
    ) -> Optional[MoleculeImpl]:
        if not candidates:
            return None
        last = self._last_clean
        if last is not None and candidates is last[0]:
            rows = last[1]
        else:
            row_of = self._ladder.row_of
            rows = []
            for c in candidates:
                i = row_of.get(id(c))
                if i is None:
                    return super().smallest_step(candidates)
                rows.append(i)
        short = self._short
        lat = self._ladder.lat
        row_si = self._ladder.row_si
        best_lat = self.best_latency
        # Reference key: (additional, -improvement, si_name, name);
        # -improvement == latency - best_latency[si].  Two-stage compare:
        # the int prefix decides nearly always, the (si_name, name)
        # strings only break exact numeric ties.
        best_short = -1
        best_dlat = 0
        ties: List[int] = []
        for t, i in enumerate(rows):
            a = short[i]
            d = lat[i] - best_lat[row_si[i]]
            if best_short < 0 or a < best_short or (
                a == best_short and d < best_dlat
            ):
                best_short = a
                best_dlat = d
                ties = [t]
            elif a == best_short and d == best_dlat:
                ties.append(t)
        best = candidates[ties[0]]
        for t in ties[1:]:
            c = candidates[t]
            if (c.si_name, c.name) < (best.si_name, best.name):
                best = c
        return best

    # -- mutation ----------------------------------------------------------

    def commit(self, impl: MoleculeImpl) -> None:
        best = self.best_latency
        si_name = impl.si_name
        new = _missing(self._avail, self._atoms_of(impl))
        self.schedule.append_counts(impl, new, latency_before=best[si_name])
        if impl.latency < best[si_name]:
            best[si_name] = impl.latency
        # Equation (4) measures improvements against the fastest molecule
        # available under ``a``: a row that has just become available can
        # lower its SI's best latency, whichever SI it belongs to.
        ladder = self._ladder
        users = ladder.users
        lat = ladder.lat
        row_si = ladder.row_si
        avail = self._avail
        short = self._short
        for p, added in new:
            before = avail[p]
            after = avail[p] = before + added
            for i, c in users[p]:
                if c <= before:
                    break  # this and every later row had enough of p
                left = short[i] = (
                    short[i] - (c if c < after else after) + before
                )
                if not left and lat[i] < best[row_si[i]]:
                    best[row_si[i]] = lat[i]
        self.available = Molecule._make(self.space, tuple(avail))

    def finalize(self) -> Schedule:
        """The reference :meth:`SchedulerState.finalize`, on counts.

        Like the reference, each completing step updates only its own
        SI's best latency; the ladder is not updated, so the state is
        finished afterwards.  The reference's closing
        ``sup(M)`` check cannot fire: every selected molecule is
        available after the loop.
        """
        avail = self._avail
        best = self.best_latency
        for si_name in sorted(self.selection):
            selected = self.selection[si_name]
            new = _missing(avail, self._atoms_of(selected))
            if new:
                self.schedule.append_counts(
                    selected, new, latency_before=best[si_name]
                )
                for p, added in new:
                    avail[p] += added
                if selected.latency < best[si_name]:
                    best[si_name] = selected.latency
        self.available = Molecule._make(self.space, tuple(avail))
        return self.schedule


def _run_hef_fast(state: VectorSchedulerState) -> None:
    """HEF's ``_run`` over the state's rows.

    The sequential cross-multiplied compare (``num * best_den >
    best_num * den``) is order-dependent under float rounding near ties,
    so the scan visits the cleaned candidates in the reference order,
    and the ``num``/``den`` terms are the same Python floats the
    reference computes.  Division-free, like the reference (RL005).
    """
    ladder = state._ladder
    weight = state.expected
    best_lat = state.best_latency
    short = state._short
    lat = ladder.lat
    row_si = ladder.row_si
    rows = ladder.rows
    while True:
        best = -1
        best_num = 0.0
        best_den = 1.0
        live: List[int] = []
        for i in ladder.cands:
            den = short[i]
            s = row_si[i]
            gain = best_lat[s] - lat[i]
            if not den or gain <= 0:
                continue
            live.append(i)
            num = weight[s] * gain
            if best < 0 or num * best_den > best_num * den:
                best = i
                best_num = num
                best_den = float(den)
        if best < 0:
            return
        step: Optional[MoleculeImpl] = rows[best]
        if best_num <= 0.0:
            # Every benefit is zero: the reference's smallest-step
            # fallback (``live`` is non-empty, so there is one).
            step = state.smallest_step([rows[i] for i in live])
        assert step is not None
        state.commit(step)


def fast_schedule(
    scheduler: AtomScheduler,
    selection: Mapping[str, MoleculeImpl],
    sis: Mapping[str, SpecialInstruction],
    available: Molecule,
    expected: Mapping[str, float],
) -> Schedule:
    """Run ``scheduler`` over a :class:`VectorSchedulerState`.

    Every scheduler that runs HEF's own ``_run`` (HEF and PREFETCH) is
    routed to :func:`_run_hef_fast`; every other strategy executes its
    own unmodified ``_run`` against the state.  Either way the resulting
    :class:`Schedule` is identical to ``scheduler.schedule(...)``.
    """
    state = VectorSchedulerState(selection, sis, available, expected)
    if type(scheduler)._run is HEFScheduler._run:
        _run_hef_fast(state)
    else:
        scheduler._run(state)
    return state.finalize()
