"""Structured results of one service run.

The report is the service's contract surface: the shed taxonomy, the
never-drop invariant (``dropped_admitted`` must be 0), per-tenant
latency percentiles, and the determinism digests — one per tenant over
its completion stream, one over the whole journal — that the soak test
and the CI ``service-soak`` job compare across runs.

Each tenant's latencies and completion records are *report history*:
they grow with the run and no decision reads them, so their fields are
marked ``metadata={"history": True}`` and the snapshot codec leaves
them out.  Every ``complete`` journal line carries all of one
completion's history, so recovery rebuilds it by folding the verified
journal prefix (:func:`fold_history`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

from ..exec.cache import canonical_json

__all__ = ["TenantStats", "ServiceReport", "fold_history"]


def _percentile(values: List[int], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 <= q <= 1)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return float(ordered[rank])


@dataclass
class TenantStats:
    """Per-tenant accounting of one service run."""

    name: str
    priority: str
    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    degraded: int = 0
    cache_hits: int = 0
    preemptions: int = 0
    shed: Dict[str, int] = field(default_factory=dict)
    latencies: List[int] = field(
        default_factory=list, metadata={"history": True}
    )
    #: Per-completion records feeding :meth:`digest`.
    completions: List[Dict[str, Any]] = field(
        default_factory=list, metadata={"history": True}
    )

    def record_completion(
        self,
        request: str,
        tick: int,
        latency: int,
        digest: str,
        degraded: bool,
        cache_hit: bool,
    ) -> None:
        """Append one completion to the history (live or folded)."""
        self.latencies.append(latency)
        self.completions.append(
            {
                "request": request,
                "tick": tick,
                "digest": digest,
                "degraded": degraded,
                "cache_hit": cache_hit,
            }
        )

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def dropped_admitted(self) -> int:
        """Admitted requests that never completed — must be 0."""
        return self.admitted - self.completed

    def digest(self) -> str:
        """SHA-256 over the tenant's completion stream (hex).

        Covers request identity, completion tick, the result payload's
        content digest and the served-degraded/cached flags — if two
        runs disagree on *any* answer or its timing, the digests differ.
        """
        payload = canonical_json(self.completions)
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "priority": self.priority,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "degraded": self.degraded,
            "cache_hits": self.cache_hits,
            "preemptions": self.preemptions,
            "shed": dict(sorted(self.shed.items())),
            "dropped_admitted": self.dropped_admitted,
            "p50_latency": _percentile(self.latencies, 0.50),
            "p99_latency": _percentile(self.latencies, 0.99),
            "digest": self.digest(),
        }


def fold_history(stats: Mapping[str, TenantStats], journal: bytes) -> None:
    """Rebuild the report history from a verified journal prefix.

    Appends, in journal order, one completion per ``complete`` line to
    its tenant's stats: the history a run holds after writing exactly
    ``journal``.
    """
    for line in journal.splitlines():
        # Canonical JSON: every complete line holds this exact text.
        if b'"kind":"complete"' not in line:
            continue
        entry = json.loads(line)
        if entry["kind"] != "complete":
            continue
        stats[entry["tenant"]].record_completion(
            entry["request"],
            entry["tick"],
            entry["latency"],
            entry["digest"],
            entry["degraded"],
            entry["cache_hit"],
        )


@dataclass
class ServiceReport:
    """Everything one arbiter run produced."""

    duration: int
    num_acs: int
    end_tick: int
    tenants: Dict[str, TenantStats]
    breaker_trips: int = 0
    faults: int = 0
    journal_digest: str = ""

    # -- aggregates --------------------------------------------------------

    @property
    def submitted(self) -> int:
        return sum(t.submitted for t in self.tenants.values())

    @property
    def admitted(self) -> int:
        return sum(t.admitted for t in self.tenants.values())

    @property
    def completed(self) -> int:
        return sum(t.completed for t in self.tenants.values())

    @property
    def degraded(self) -> int:
        return sum(t.degraded for t in self.tenants.values())

    @property
    def cache_hits(self) -> int:
        return sum(t.cache_hits for t in self.tenants.values())

    @property
    def preemptions(self) -> int:
        return sum(t.preemptions for t in self.tenants.values())

    @property
    def dropped_admitted(self) -> int:
        """The never-drop invariant: must be 0 after a completed run."""
        return sum(t.dropped_admitted for t in self.tenants.values())

    def shed_taxonomy(self) -> Dict[str, int]:
        """Total sheds per taxonomy reason, sorted by reason."""
        totals: Dict[str, int] = {}
        for stats in self.tenants.values():
            for reason, count in stats.shed.items():
                totals[reason] = totals.get(reason, 0) + count
        return dict(sorted(totals.items()))

    @property
    def shed_total(self) -> int:
        return sum(self.shed_taxonomy().values())

    @property
    def shed_rate(self) -> float:
        return self.shed_total / self.submitted if self.submitted else 0.0

    def latencies(self) -> List[int]:
        merged: List[int] = []
        for stats in self.tenants.values():
            merged.extend(stats.latencies)
        return merged

    def service_digest(self) -> str:
        """One digest over all tenant digests plus the journal digest."""
        parts = {
            name: stats.digest()
            for name, stats in sorted(self.tenants.items())
        }
        parts["__journal__"] = self.journal_digest
        payload = canonical_json(parts)
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    # -- rendering ---------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "duration": self.duration,
            "num_acs": self.num_acs,
            "end_tick": self.end_tick,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "degraded": self.degraded,
            "cache_hits": self.cache_hits,
            "preemptions": self.preemptions,
            "dropped_admitted": self.dropped_admitted,
            "shed": self.shed_taxonomy(),
            "breaker_trips": self.breaker_trips,
            "faults": self.faults,
            "p50_latency": _percentile(self.latencies(), 0.50),
            "p99_latency": _percentile(self.latencies(), 0.99),
            "journal_digest": self.journal_digest,
            "service_digest": self.service_digest(),
            "tenants": {
                name: stats.to_json_dict()
                for name, stats in sorted(self.tenants.items())
            },
        }

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"service run: {self.submitted} submitted over "
            f"{self.duration} ticks (drained by tick {self.end_tick}), "
            f"{self.num_acs} ACs",
            f"  admitted {self.admitted}, completed {self.completed} "
            f"({self.degraded} degraded, {self.cache_hits} cache hits), "
            f"dropped {self.dropped_admitted}",
            f"  shed {self.shed_total} ({self.shed_rate:.1%}): "
            + (
                ", ".join(
                    f"{reason}={count}"
                    for reason, count in self.shed_taxonomy().items()
                )
                or "none"
            ),
            f"  faults {self.faults}, breaker trips "
            f"{self.breaker_trips}, preemptions {self.preemptions}",
            f"  latency p50 {_percentile(self.latencies(), 0.50):.0f} "
            f"p99 {_percentile(self.latencies(), 0.99):.0f} ticks",
        ]
        for name, stats in sorted(self.tenants.items()):
            lines.append(
                f"  {name} [{stats.priority}]: {stats.submitted} in, "
                f"{stats.completed} done ({stats.degraded} degraded, "
                f"{stats.cache_hits} hits), {stats.shed_total} shed, "
                f"{stats.preemptions} preempted, "
                f"digest {stats.digest()[:12]}"
            )
        lines.append(f"  service digest: {self.service_digest()}")
        return "\n".join(lines)
