"""Trace structures: what the run-time system observes of an application.

The run-time system is driven by *hot-spot invocations*.  One
:class:`HotSpotTrace` records a single invocation: which hot spot ran,
which SIs it uses, and — per iteration of its inner loop (one macroblock
in the H.264 encoder) — how often each SI executed.  A
:class:`Workload` is the full sequence of invocations of an application
run (e.g. 140 frames x (ME, EE, LF)).

The behavioural simulators replay these traces against the fabric model:
the *counts* are fixed by the application, while the *cycles* they cost
depend on the molecule availability at each moment — which is exactly
what the scheduling strategies influence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import TraceError

__all__ = ["HotSpotTrace", "Workload"]


@dataclass
class HotSpotTrace:
    """One invocation of a computational hot spot.

    Attributes
    ----------
    hot_spot:
        Hot-spot name (``"ME"``, ``"EE"``, ``"LF"``).
    si_names:
        The SIs this hot spot executes; column order of ``counts``.
    counts:
        Integer array of shape ``(iterations, len(si_names))``: SI
        executions per inner-loop iteration (macroblock).  Read-only:
        workloads built from equal specs share their traces.
    overhead_per_iteration:
        Non-SI base-processor cycles per iteration (loop control, address
        arithmetic, memory accesses outside SIs).
    frame_index:
        The video frame this invocation belongs to.
    """

    hot_spot: str
    si_names: Tuple[str, ...]
    counts: np.ndarray
    overhead_per_iteration: int = 0
    frame_index: int = 0

    def __post_init__(self) -> None:
        self.si_names = tuple(self.si_names)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2:
            raise TraceError(
                f"counts must be 2-D (iterations x SIs), got shape "
                f"{self.counts.shape}"
            )
        if self.counts.shape[1] != len(self.si_names):
            raise TraceError(
                f"counts has {self.counts.shape[1]} SI columns but "
                f"{len(self.si_names)} SI names were given"
            )
        if len(set(self.si_names)) != len(self.si_names):
            raise TraceError(f"duplicate SI names in {self.si_names!r}")
        if self.counts.min(initial=0) < 0:
            raise TraceError("negative SI execution counts in trace")
        # A view, so the caller's own array stays writeable.
        self.counts = self.counts.view()
        self.counts.flags.writeable = False
        if self.overhead_per_iteration < 0:
            raise TraceError(
                f"negative per-iteration overhead: {self.overhead_per_iteration}"
            )
        self._prefix: Optional[np.ndarray] = None

    @property
    def iterations(self) -> int:
        return int(self.counts.shape[0])

    def prefix_sums(self) -> np.ndarray:
        """Row-prefix sums of ``counts``, shape ``(iterations + 1, SIs)``.

        Row ``t`` holds each SI's executions in the first ``t``
        iterations, so any span's work is a difference of two rows.
        Built on first use and kept, read-only, for the trace's
        lifetime: every replay of a shared trace reads the same array.
        """
        prefix = self._prefix
        if prefix is None:
            prefix = np.zeros(
                (self.iterations + 1, len(self.si_names)), dtype=np.int64
            )
            if self.iterations:
                np.cumsum(self.counts, axis=0, out=prefix[1:])
            prefix.flags.writeable = False
            self._prefix = prefix
        return prefix

    def totals(self) -> Dict[str, int]:
        """Total executions per SI over the whole invocation."""
        return dict(zip(self.si_names, self.prefix_sums()[-1].tolist()))

    def total_executions(self) -> int:
        return int(self.counts.sum())

    def software_cycles(
        self,
        software_latencies: Dict[str, int],
        trap_overhead: int = 0,
    ) -> int:
        """Cycles of this invocation when every SI runs via trap."""
        total = self.iterations * self.overhead_per_iteration
        sums = self.counts.sum(axis=0)
        for name, count in zip(self.si_names, sums):
            total += int(count) * (software_latencies[name] + trap_overhead)
        return total

    def __repr__(self) -> str:
        return (
            f"HotSpotTrace({self.hot_spot}, frame {self.frame_index}, "
            f"{self.iterations} iterations, {self.total_executions()} SI "
            f"executions)"
        )


@dataclass
class Workload:
    """A full application run: an ordered sequence of hot-spot traces."""

    name: str
    traces: List[HotSpotTrace] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise TraceError("workload name must be non-empty")

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[HotSpotTrace]:
        return iter(self.traces)

    def append(self, trace: HotSpotTrace) -> None:
        self.traces.append(trace)

    @property
    def num_frames(self) -> int:
        return len({t.frame_index for t in self.traces})

    @property
    def hot_spots(self) -> Tuple[str, ...]:
        """Distinct hot-spot names, in first-appearance order."""
        seen: List[str] = []
        for trace in self.traces:
            if trace.hot_spot not in seen:
                seen.append(trace.hot_spot)
        return tuple(seen)

    @property
    def si_names(self) -> Tuple[str, ...]:
        """Distinct SI names, in first-appearance order."""
        seen: List[str] = []
        for trace in self.traces:
            for name in trace.si_names:
                if name not in seen:
                    seen.append(name)
        return tuple(seen)

    def totals(self) -> Dict[str, int]:
        """Total SI executions over the whole workload."""
        result: Dict[str, int] = {}
        for trace in self.traces:
            for name, count in trace.totals().items():
                result[name] = result.get(name, 0) + count
        return result

    def frames(self) -> Iterator[List[HotSpotTrace]]:
        """Group the traces frame by frame (in order)."""
        current: List[HotSpotTrace] = []
        current_frame: Optional[int] = None
        for trace in self.traces:
            if current_frame is None or trace.frame_index == current_frame:
                current.append(trace)
                current_frame = trace.frame_index
            else:
                yield current
                current = [trace]
                current_frame = trace.frame_index
        if current:
            yield current

    def subset_frames(self, num_frames: int) -> "Workload":
        """A workload containing only the first ``num_frames`` frames."""
        traces = [t for t in self.traces if t.frame_index < num_frames]
        return Workload(name=f"{self.name}[0:{num_frames}]", traces=traces)

    def software_cycles(
        self, software_latencies: Dict[str, int], trap_overhead: int = 0
    ) -> int:
        """Pure-software execution time of the whole workload."""
        return sum(
            t.software_cycles(software_latencies, trap_overhead)
            for t in self.traces
        )

    def __repr__(self) -> str:
        return (
            f"Workload({self.name!r}, {len(self.traces)} hot-spot "
            f"invocations, {self.num_frames} frames)"
        )
