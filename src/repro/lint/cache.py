"""Content-addressed lint result cache.

Re-linting an unchanged tree is pure waste: the analyzer is a function
of (file bytes, rule implementations, effective config).  This cache
memoizes exactly that function:

* **per-file entries** — keyed by the file's SHA-256 *and* the rule-set
  fingerprint; a cache hit replays the stored findings without parsing.
* **one tree entry** — for the project- and program-level rules
  (RL004, RL008–RL011), keyed by the hash of *every* source file plus
  the out-of-tree inputs those rules read (the committed schema
  fingerprint, the RL011 reference roots).

The rule-set fingerprint hashes the ``repro.lint`` package sources, the
effective per-rule options and the ``--select`` set, so editing a rule,
a setting or the selection invalidates everything —
no stale-cache false greens after a rule change.

Entries live as individual JSON files under ``artifacts/.lintcache/``
(already git-ignored via ``artifacts/*``) and are written atomically
(tempfile + :func:`os.replace`), so a crashed or concurrent run can
never leave a torn entry.  Corrupt or mismatched entries read as
misses, never as errors: the cache may only ever make linting faster,
not wronger.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .._atomic import atomic_write_text
from .findings import Finding

__all__ = ["LintCache", "ruleset_fingerprint"]

#: Bump when the entry layout changes; old entries then read as misses.
CACHE_VERSION = 1


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ruleset_fingerprint(
    effective_options: Dict[str, Dict[str, Any]],
    select: Optional[Iterable[str]] = None,
) -> str:
    """Hash of everything that determines findings besides file content.

    Covers the analyzer implementation (every ``.py`` in this package),
    the effective per-rule options and the rule selection.
    """
    digest = hashlib.sha256()
    digest.update(f"cache-version:{CACHE_VERSION}\n".encode("utf-8"))
    package_dir = Path(__file__).resolve().parent
    for path in sorted(package_dir.glob("*.py")):
        digest.update(path.name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    digest.update(
        json.dumps(
            effective_options, sort_keys=True, default=repr
        ).encode("utf-8")
    )
    selected = "*" if select is None else ",".join(sorted(select))
    digest.update(f"\nselect:{selected}".encode("utf-8"))
    return digest.hexdigest()


class LintCache:
    """Per-file and per-tree finding cache under one directory."""

    def __init__(self, cache_dir: Path, fingerprint: str) -> None:
        self.cache_dir = cache_dir
        self.fingerprint = fingerprint
        self.hits = 0
        self.misses = 0

    @staticmethod
    def content_sha(data: bytes) -> str:
        return _sha256(data)

    def _entry_path(self, kind: str, key: str) -> Path:
        name = _sha256(f"{kind}\0{key}".encode("utf-8"))[:40]
        return self.cache_dir / f"{kind}-{name}.json"

    def _read(self, path: Path) -> Optional[Dict[str, Any]]:
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("version") != CACHE_VERSION:
            return None
        if entry.get("fingerprint") != self.fingerprint:
            return None
        return entry

    def _write(self, path: Path, entry: Dict[str, Any]) -> None:
        """Atomically publish one entry; failures are non-fatal.

        The cache is a pure accelerator: an unwritable cache directory
        must degrade to uncached linting, never fail the gate.
        """
        with contextlib.suppress(OSError):
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, json.dumps(entry, sort_keys=True))

    @staticmethod
    def _decode_findings(raw: Any) -> Optional[List[Finding]]:
        if not isinstance(raw, list):
            return None
        findings: List[Finding] = []
        try:
            for item in raw:
                findings.append(
                    Finding(
                        rule_id=item["rule"],
                        path=item["path"],
                        line=int(item["line"]),
                        col=int(item["col"]),
                        message=item["message"],
                    )
                )
        except (KeyError, TypeError, ValueError):
            return None
        return findings

    def get_file(
        self, relpath: str, file_sha: str
    ) -> Optional[List[Finding]]:
        entry = self._read(self._entry_path("file", relpath))
        if entry is None or entry.get("sha") != file_sha:
            self.misses += 1
            return None
        findings = self._decode_findings(entry.get("findings"))
        if findings is None:
            self.misses += 1
            return None
        self.hits += 1
        return findings

    def put_file(
        self, relpath: str, file_sha: str, findings: Sequence[Finding]
    ) -> None:
        self._write(
            self._entry_path("file", relpath),
            {
                "version": CACHE_VERSION,
                "fingerprint": self.fingerprint,
                "relpath": relpath,
                "sha": file_sha,
                "findings": [f.to_json_dict() for f in findings],
            },
        )

    def tree_key(
        self,
        file_hashes: Sequence[Tuple[str, str]],
        extra_files: Sequence[Path],
    ) -> str:
        """Key covering every source file plus out-of-tree inputs."""
        digest = hashlib.sha256()
        for relpath, sha in sorted(file_hashes):
            digest.update(f"{relpath}\0{sha}\n".encode("utf-8"))
        for path in extra_files:
            digest.update(str(path).encode("utf-8"))
            digest.update(b"\0")
            try:
                digest.update(_sha256(path.read_bytes()).encode())
            except OSError:
                digest.update(b"<unreadable>")
            digest.update(b"\n")
        return digest.hexdigest()

    def get_tree(self, tree_key: str) -> Optional[List[Finding]]:
        entry = self._read(self._entry_path("tree", "tree"))
        if entry is None or entry.get("key") != tree_key:
            self.misses += 1
            return None
        findings = self._decode_findings(entry.get("findings"))
        if findings is None:
            self.misses += 1
            return None
        self.hits += 1
        return findings

    def put_tree(
        self, tree_key: str, findings: Sequence[Finding]
    ) -> None:
        self._write(
            self._entry_path("tree", "tree"),
            {
                "version": CACHE_VERSION,
                "fingerprint": self.fingerprint,
                "key": tree_key,
                "findings": [f.to_json_dict() for f in findings],
            },
        )
