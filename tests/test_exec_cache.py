"""Correctness of the content-addressed result cache.

Pins three guarantees: keys are stable across processes (no dependence
on ``PYTHONHASHSEED`` or dict ordering), a code-version salt change
invalidates every artifact, and corrupted/truncated artifacts degrade
to cache misses instead of crashes.
"""

import json
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exec import (
    CODE_VERSION_SALT,
    ResultCache,
    SweepCell,
    WorkloadSpec,
    cell_key,
    execute_cell,
    run_sweep,
)
from repro.exec.cache import canonical_json


@pytest.fixture()
def cell():
    return SweepCell(
        system="RISPP",
        scheduler="HEF",
        num_acs=6,
        workload=WorkloadSpec(frames=2, seed=2008),
    )


@pytest.fixture()
def payload(cell):
    return execute_cell(cell).to_json_dict()


class TestKeyStability:
    def test_key_is_sha256_hex(self, cell):
        key = cell_key(cell)
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    def test_key_stable_within_process(self, cell):
        assert cell_key(cell) == cell_key(cell)

    def test_key_stable_across_processes(self, cell, monkeypatch):
        """Fresh interpreters with randomized string hashing agree."""
        program = (
            "from repro.exec import SweepCell, WorkloadSpec, cell_key;"
            "cell = SweepCell(system='RISPP', scheduler='HEF', num_acs=6,"
            " workload=WorkloadSpec(frames=2, seed=2008));"
            "print(cell_key(cell))"
        )
        import pathlib

        import repro

        src_dir = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        keys = set()
        for hash_seed in ("1", "2", "random"):
            proc = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                env={
                    "PYTHONPATH": src_dir,
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": "/usr/bin:/bin",
                },
                check=True,
            )
            keys.add(proc.stdout.strip())
        assert keys == {cell_key(cell)}

    def test_salt_changes_key(self, cell):
        assert cell_key(cell, salt="other-salt") != cell_key(cell)


#: JSON values with nested dicts and lists, non-ASCII strings, ints far
#: beyond 64 bits and every kind of float (NaN and infinities included).
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@given(_JSON)
def test_canonical_json_matches_json_dumps(value):
    assert canonical_json(value) == json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


class TestRoundTrip:
    def test_put_then_get(self, tmp_path, cell, payload):
        cache = ResultCache(tmp_path)
        assert cache.get(cell) is None
        cache.put(cell, payload)
        assert cache.get(cell) == payload
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.stores == 1

    def test_get_via_second_cache_instance(self, tmp_path, cell, payload):
        ResultCache(tmp_path).put(cell, payload)
        assert ResultCache(tmp_path).get(cell) == payload

    def test_len_and_clear(self, tmp_path, cell, payload):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put(cell, payload)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get(cell) is None


class TestSaltInvalidation:
    def test_salt_bump_orphans_artifacts(self, tmp_path, cell, payload):
        old = ResultCache(tmp_path, salt=CODE_VERSION_SALT)
        old.put(cell, payload)
        bumped = ResultCache(tmp_path, salt=CODE_VERSION_SALT + ".1")
        assert bumped.get(cell) is None

    def test_same_key_different_salt_artifact_is_a_miss(
        self, tmp_path, cell, payload
    ):
        """Even a key collision cannot serve a stale-salt artifact:
        the embedded salt is checked on read."""
        cache = ResultCache(tmp_path, salt="A")
        cache.put(cell, payload)
        path = cache.path_for(cell)
        artifact = json.loads(path.read_text())
        artifact["salt"] = "B"
        path.write_text(json.dumps(artifact))
        assert cache.get(cell) is None


class TestCorruptArtifacts:
    def _stored(self, tmp_path, cell, payload):
        cache = ResultCache(tmp_path)
        cache.put(cell, payload)
        return cache, cache.path_for(cell)

    def test_truncated_artifact_is_a_miss(self, tmp_path, cell, payload):
        cache, path = self._stored(tmp_path, cell, payload)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert cache.get(cell) is None

    def test_empty_artifact_is_a_miss(self, tmp_path, cell, payload):
        cache, path = self._stored(tmp_path, cell, payload)
        path.write_text("")
        assert cache.get(cell) is None

    def test_garbage_artifact_is_a_miss(self, tmp_path, cell, payload):
        cache, path = self._stored(tmp_path, cell, payload)
        path.write_text("{not json at all")
        assert cache.get(cell) is None

    def test_wrong_shape_artifact_is_a_miss(self, tmp_path, cell, payload):
        cache, path = self._stored(tmp_path, cell, payload)
        path.write_text(json.dumps([1, 2, 3]))
        assert cache.get(cell) is None

    def test_cell_mismatch_is_a_miss(self, tmp_path, cell, payload):
        cache, path = self._stored(tmp_path, cell, payload)
        artifact = json.loads(path.read_text())
        artifact["cell"]["num_acs"] = 99
        path.write_text(json.dumps(artifact))
        assert cache.get(cell) is None

    def test_missing_result_is_a_miss(self, tmp_path, cell, payload):
        cache, path = self._stored(tmp_path, cell, payload)
        artifact = json.loads(path.read_text())
        artifact["result"] = None
        path.write_text(json.dumps(artifact))
        assert cache.get(cell) is None

    def test_corrupt_artifact_heals_through_the_runner(
        self, tmp_path, cell, payload
    ):
        """A sweep over a corrupted cache re-runs the cell and rewrites
        a valid artifact — no crash, no stale data."""
        cache, path = self._stored(tmp_path, cell, payload)
        path.write_text("garbage")
        report = run_sweep([cell], jobs=1, cache=cache)
        assert report.cache_hits == 0
        assert report.outcomes[0].result.to_json_dict() == payload
        # Healed: the next sweep hits.
        replay = run_sweep([cell], jobs=1, cache=cache)
        assert replay.cache_hits == 1
        assert replay.outcomes[0].result.to_json_dict() == payload
