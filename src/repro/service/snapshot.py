"""Versioned, salted, atomically-written arbiter snapshots.

A snapshot is the arbiter's live state at one virtual tick — the
generic encoding of the declared
:class:`~repro.service.state.ArbiterState` — plus an *anchor* into the
service journal: the byte length of the journal prefix written so far and the
SHA-256 of exactly those bytes.  Recovery restores the newest snapshot
whose anchor still matches the on-disk journal, rebuilds the report
history from that prefix, and re-executes from there, verifying every
regenerated line against the journal tail.

Snapshots are **sidecar** files under ``<journal>.snap/`` — they never
appear in the journal itself, so journal digests are independent of the
snapshot cadence.  Each file is published atomically
(:func:`repro._atomic.atomic_write_text`), so a crash mid-snapshot
leaves at worst a stale-but-valid predecessor; corrupt, foreign-salt or
anchor-mismatched snapshots are skipped, degrading (ultimately) to full
journal replay from tick 0.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from .._atomic import atomic_write_text
from ..exec.cache import canonical_json
from .control import ControlEvent
from .tenant import TenantSpec

__all__ = [
    "SNAPSHOT_FORMAT",
    "config_fingerprint",
    "snapshot_dir",
    "write_snapshot",
    "load_latest_snapshot",
    "list_snapshots",
]

#: Snapshot schema version; a bump orphans every older snapshot (they
#: then read as invalid and recovery falls back to full replay).  v2
#: derives the ``state`` payload from the declared state dataclasses;
#: v3 holds live state only (no request or record table, and the memo
#: keeps ``[digest, total_cycles]`` per answer); v4 leaves out the
#: report history (rebuilt from the journal prefix) and holds one
#: pending arrival per request stream, so its size does not grow with
#: the run.
SNAPSHOT_FORMAT = 4

#: Newest snapshots kept per journal; older ones are pruned on write.
_SNAPSHOT_KEEP = 3


def config_fingerprint(
    tenants: Sequence[TenantSpec],
    config: Any,
    control_events: Sequence[ControlEvent] = (),
) -> str:
    """SHA-256 identity of one service run's *inputs*.

    Covers the initial fleet, the :class:`ServiceConfig` and the control
    schedule — everything the deterministic timeline is a function of,
    *except* ``snapshot_every``: the snapshot cadence is operational
    (it changes what is on disk, never what the run computes), so a
    recovery may use a different cadence than the crashed run.
    """
    cfg = dataclasses.asdict(config)
    cfg.pop("snapshot_every", None)
    doc = {
        "tenants": [
            dataclasses.asdict(tenant)
            for tenant in sorted(tenants, key=lambda t: t.name)
        ],
        "config": cfg,
        "control": [event.to_json_dict() for event in control_events],
    }
    digest = hashlib.sha256(canonical_json(doc).encode("ascii"))
    return digest.hexdigest()


def snapshot_dir(journal_path: Union[str, Path]) -> Path:
    """The sidecar snapshot directory of one journal."""
    return Path(str(journal_path) + ".snap")


def _snapshot_path(directory: Path, tick: int) -> Path:
    return directory / f"snap-{tick:012d}.json"


def write_snapshot(
    journal_path: Union[str, Path],
    state: Dict[str, Any],
    *,
    fsync: bool = False,
) -> Path:
    """Atomically publish one snapshot; prunes to the newest few.

    ``state`` must carry the envelope keys ``format``, ``salt``,
    ``fingerprint``, ``tick``, ``journal_offset`` and ``journal_sha``
    (the arbiter's snapshot writer does); everything else is opaque to
    this module.
    """
    directory = snapshot_dir(journal_path)
    directory.mkdir(parents=True, exist_ok=True)
    path = _snapshot_path(directory, int(state["tick"]))
    atomic_write_text(
        path, canonical_json(state), fsync=fsync, suffix=".json"
    )
    kept = sorted(directory.glob("snap-*.json"))
    for stale in kept[:-_SNAPSHOT_KEEP]:
        stale.unlink(missing_ok=True)
    return path


def load_latest_snapshot(
    journal_path: Union[str, Path],
    *,
    salt: str,
    fingerprint: str,
    journal_bytes: bytes,
) -> Optional[Dict[str, Any]]:
    """The newest snapshot that still matches the on-disk journal.

    Candidates are tried newest-first; each must parse, carry the
    current :data:`SNAPSHOT_FORMAT`, the run's salt and config
    fingerprint, and anchor to a journal prefix that byte-matches
    ``journal_bytes`` (offset within bounds, SHA-256 of the prefix
    equal).  Anything else — torn file, foreign code version, journal
    rewritten underneath — is silently skipped: an unusable snapshot
    must degrade recovery, never corrupt it.  Returns ``None`` when no
    snapshot survives (full-replay fallback).
    """
    directory = snapshot_dir(journal_path)
    try:
        candidates = sorted(directory.glob("snap-*.json"), reverse=True)
    except OSError:
        return None
    for path in candidates:
        try:
            state = json.loads(path.read_text(encoding="ascii"))
        except (OSError, ValueError):
            continue
        if not isinstance(state, dict):
            continue
        if state.get("format") != SNAPSHOT_FORMAT:
            continue
        if state.get("salt") != salt:
            continue
        if state.get("fingerprint") != fingerprint:
            continue
        offset = state.get("journal_offset")
        if not isinstance(offset, int) or not (
            0 < offset <= len(journal_bytes)
        ):
            continue
        prefix_sha = hashlib.sha256(journal_bytes[:offset]).hexdigest()
        if state.get("journal_sha") != prefix_sha:
            continue
        return state
    return None


def list_snapshots(journal_path: Union[str, Path]) -> List[Path]:
    """All snapshot files of one journal, oldest first."""
    directory = snapshot_dir(journal_path)
    try:
        return sorted(directory.glob("snap-*.json"))
    except OSError:
        return []
