"""Molen/OneChip-like baseline — one fixed implementation per SI.

State-of-the-art reconfigurable systems like Molen [19] and OneChip [21]
provide a *single* implementation per Special Instruction and cannot
upgrade it during run time.  The paper simulates their behaviour for a
fair comparison: the same hardware accelerators (i.e. the same selected
molecules, chosen with the same expectations and AC budget) are loaded
through the same reconfiguration port — but an SI keeps executing in
software until its full implementation finished loading, and no
intermediate molecule is ever used.

The load order is the natural Molen strategy: one SI after the other,
most important first (the reconfiguration instructions are issued
explicitly in program order), each SI's atoms back to back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.molecule import Molecule
from ..core.monitor import ExecutionMonitor
from ..core.scoring import select_molecules_fast
from ..core.selection import MoleculeSelection
from ..core.si import MoleculeImpl, SILibrary
from ..fabric.atom import AtomRegistry
from ..isa.processor import BaseProcessor
from ..obs.events import SchedulerDecision
from ..workload.trace import HotSpotTrace
from .engine import SystemSimulator

__all__ = ["MolenSimulator"]


@dataclass
class _MolenContext:
    """Per-hot-spot plan of the baseline."""

    selection: MoleculeSelection
    expected: Dict[str, float]


class MolenSimulator(SystemSimulator):
    """Behavioural model of a Molen-like reconfigurable system."""

    system_name = "Molen"

    def __init__(
        self,
        library: SILibrary,
        registry: AtomRegistry,
        num_acs: int,
        processor: Optional[BaseProcessor] = None,
        monitor: Optional[ExecutionMonitor] = None,
        record_segments: bool = False,
        eviction_policy=None,
        fault_model=None,
        retry_policy=None,
        tracer=None,
        metrics=None,
    ):
        super().__init__(
            library,
            registry,
            num_acs,
            processor=processor,
            record_segments=record_segments,
            eviction_policy=eviction_policy,
            fault_model=fault_model,
            retry_policy=retry_policy,
            tracer=tracer,
            metrics=metrics,
        )
        self.monitor = monitor if monitor is not None else ExecutionMonitor()

    @property
    def scheduler_name(self) -> str:
        return "Molen"

    def reset(self) -> None:
        """Cold-start fabric, port and monitor for independent runs."""
        super().reset()
        self.monitor.reset()

    # -- SystemSimulator hooks ------------------------------------------------

    def _plan(
        self, trace: HotSpotTrace, available: Molecule
    ) -> Tuple[Sequence[str], Molecule, _MolenContext]:
        sis = self.library.subset(trace.si_names)
        expected = self.monitor.predict(trace.hot_spot, trace.si_names)
        selection = select_molecules_fast(
            # The effective budget shrinks when containers die.
            sis, expected, self.fabric.usable_acs, available=available
        )
        # Load order: most important SI first, whole molecules back to
        # back.  Atoms already on the fabric are reused.
        importance: List[Tuple[float, str]] = []
        for si_name, impl in selection.hardware_selection().items():
            si = self.library.get(si_name)
            gain = max(0, si.software_latency - impl.latency)
            importance.append((-(expected.get(si_name, 0.0) * gain), si_name))
        importance.sort()
        atom_sequence: List[str] = []
        virtual = available
        for _, si_name in importance:
            impl = selection.implementations[si_name]
            missing = virtual.missing(impl.atoms)
            atom_sequence.extend(missing.iter_atom_instances())
            virtual = virtual | impl.atoms
        context = _MolenContext(selection=selection, expected=dict(expected))
        return atom_sequence, selection.meta, context

    def _decision_event(
        self,
        trace: HotSpotTrace,
        context: _MolenContext,
        cycle: int,
        atom_sequence: Sequence[str],
    ) -> SchedulerDecision:
        selection = tuple(
            sorted(
                (si_name, impl.name)
                for si_name, impl in
                context.selection.hardware_selection().items()
            )
        )
        return SchedulerDecision(
            cycle=cycle,
            hot_spot=trace.hot_spot,
            scheduler=self.scheduler_name,
            selection=selection,
            steps=(),
            atom_sequence=tuple(atom_sequence),
        )

    def _dispatch_memo_key(
        self, trace: HotSpotTrace, context: _MolenContext
    ) -> Optional[object]:
        # Molen dispatch depends on the availability *and* the hot
        # spot's chosen implementations, so the latter join the key.
        chosen = tuple(
            context.selection.implementations[si_name].name
            for si_name in trace.si_names
        )
        return (trace.si_names, chosen)

    def _dispatch_preference(
        self, si_name: str, context: _MolenContext
    ) -> Sequence[MoleculeImpl]:
        # Mirrors _impl_for: the chosen implementation when fully
        # loaded, otherwise the base-ISA trap.
        impl = context.selection.implementations[si_name]
        if impl.is_software:
            return [impl]
        return [impl, self.library.get(si_name).software]

    def _impl_for(
        self, si_name: str, available: Molecule, context: _MolenContext
    ) -> MoleculeImpl:
        impl = context.selection.implementations[si_name]
        if impl.is_software or impl.atoms <= available:
            return impl
        # Not fully reconfigured yet: execute via the base-ISA trap —
        # partial availability buys nothing in a Molen-like system.
        return self.library.get(si_name).software

    def _finish(self, trace: HotSpotTrace, context: _MolenContext) -> None:
        self.monitor.update(trace.hot_spot, trace.totals())
