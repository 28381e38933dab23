"""Content-addressed on-disk cache of sweep-cell results.

Every :class:`~repro.exec.spec.SweepCell` hashes to a stable key:
SHA-256 over the canonical JSON of its configuration plus a
**code-version salt**.  The artifact stored under that key is the plain
JSON of the cell's :class:`~repro.sim.results.SimulationResult` — so a
repeated or resumed sweep skips every completed cell, and the cached
payload is byte-identical to what a fresh run would produce.

Invalidation story
------------------
* **Cell config change** (scheduler, AC count, frames, seed, faults):
  different canonical JSON, different key — automatic.
* **Code change that alters simulation semantics**: bump
  :data:`CODE_VERSION_SALT`.  The salt participates in every key, so one
  bump orphans all previous artifacts at once (they stay on disk until
  :meth:`ResultCache.clear`; stale files are never *read*).
* **Corrupt artifacts** (truncated writes, bit rot, concurrent
  interference): any artifact that fails to parse, fails its embedded
  salt/config check, or fails result reconstruction is treated as a
  cache **miss**, never an error — the cell simply re-runs and the
  artifact is rewritten.

Keys are process-independent by construction: canonical JSON fixes the
dictionary ordering and SHA-256 does not depend on ``PYTHONHASHSEED``,
so workers, resumed sessions and different machines agree on them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .._atomic import atomic_write_text
from .._version import __version__
from .spec import SweepCell

__all__ = [
    "CODE_VERSION_SALT",
    "cell_key",
    "canonical_json",
    "ResultCache",
]

#: Salt mixed into every cache key.  Bump the trailing tag whenever a
#: code change alters what any simulation produces (scheduler behaviour,
#: workload generation, cost models, result fields) — the package
#: version is included so releases re-key automatically.
CODE_VERSION_SALT = f"repro-{__version__}/sweep-cache-v2"

#: Artifact schema version; artifacts with another format are misses.
_ARTIFACT_FORMAT = 1


#: The one encoder behind :func:`canonical_json` (``json.dumps`` would
#: build a new one per call).
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True
)


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, pure ASCII."""
    return _CANONICAL.encode(value)


def cell_key(cell: SweepCell, salt: str = CODE_VERSION_SALT) -> str:
    """The content-addressed cache key (hex SHA-256) of one cell."""
    payload = canonical_json({"salt": salt, "cell": cell.to_config()})
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


class ResultCache:
    """Directory of content-addressed sweep-cell artifacts.

    Artifacts are sharded by the first two key characters
    (``<root>/ab/abcdef....json``) so huge sweeps do not pile tens of
    thousands of files into one directory.  Writes are atomic
    (temp file + ``os.replace``), so a crashed or killed sweep can never
    leave a *readable* half-artifact behind — and even externally
    truncated files only downgrade to misses.

    Parameters
    ----------
    root:
        Cache directory (created on first write).
    salt:
        Code-version salt; see :data:`CODE_VERSION_SALT`.
    """

    def __init__(
        self,
        root: Union[str, Path],
        salt: str = CODE_VERSION_SALT,
    ) -> None:
        self.root = Path(root)
        self.salt = str(salt)
        #: Read/write statistics since construction.
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(self, cell: SweepCell) -> str:
        return cell_key(cell, self.salt)

    def path_for(self, cell: SweepCell) -> Path:
        key = self.key(cell)
        return self.root / key[:2] / f"{key}.json"

    # -- read --------------------------------------------------------------

    def get(self, cell: SweepCell) -> Optional[Dict[str, Any]]:
        """The cached result payload of ``cell``, or ``None`` on a miss.

        Every failure mode — missing file, truncated/corrupt JSON, a
        salt or config mismatch, a wrong artifact format — counts as a
        miss; the cache never raises on read.
        """
        path = self.path_for(cell)
        try:
            text = path.read_text(encoding="utf-8")
            artifact = json.loads(text)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not self._artifact_matches(artifact, cell):
            self.misses += 1
            return None
        result = artifact.get("result")
        if not isinstance(result, dict):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _artifact_matches(self, artifact: Any, cell: SweepCell) -> bool:
        """Paranoia check: the artifact describes exactly this cell."""
        if not isinstance(artifact, dict):
            return False
        if artifact.get("format") != _ARTIFACT_FORMAT:
            return False
        if artifact.get("salt") != self.salt:
            return False
        return artifact.get("cell") == cell.to_config()

    # -- write -------------------------------------------------------------

    def put(self, cell: SweepCell, result_payload: Dict[str, Any]) -> Path:
        """Store one cell's result payload atomically; returns the path."""
        path = self.path_for(cell)
        path.parent.mkdir(parents=True, exist_ok=True)
        artifact = {
            "format": _ARTIFACT_FORMAT,
            "salt": self.salt,
            "key": self.key(cell),
            "cell": cell.to_config(),
            "result": result_payload,
        }
        text = json.dumps(artifact, sort_keys=True, indent=1)
        atomic_write_text(path, text, suffix=".json")
        self.stores += 1
        return path

    # -- maintenance -------------------------------------------------------

    def __len__(self) -> int:
        """Number of artifacts on disk (any salt)."""
        if not self.root.is_dir():
            return 0
        return sum(
            1
            for shard in self.root.iterdir()
            if shard.is_dir()
            for entry in shard.glob("*.json")
        )

    def clear(self) -> int:
        """Delete every artifact; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob("*.json")):
                entry.unlink()
                removed += 1
        return removed

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.root)!r}, {self.hits} hits, "
            f"{self.misses} misses, {self.stores} stores)"
        )
