"""One benchmark execution in a fresh interpreter.

Usage: ``child.py WORKLOAD SEED SCALE TMPDIR [--layers]``

Builds the workload's inputs (set-up), makes the one timed call, then
digests its outputs.  With ``--layers`` the call runs under
:class:`layers.LayerClock`; without it no wrapper is installed.  The
last stdout line is one JSON object for ``run.py``.  ``t_call`` is the
``time.monotonic()`` reading at the start of the timed call; the
parent subtracts its own launch reading from it, so set-up time
includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

import layers
import workloads


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("seed", type=int)
    parser.add_argument("scale", type=float)
    parser.add_argument("tmp", type=Path)
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args(argv)

    prepared = workloads.PREPARE[args.workload](args.seed, args.scale, args.tmp)
    clock = layers.LayerClock() if args.layers else None
    wrapped = clock.install() if clock is not None else 0
    error = None
    t_call = time.monotonic()
    start = time.perf_counter()
    try:
        result = prepared.call()
    except Exception:  # reported as a failed execution, never hidden
        error = traceback.format_exc()
    finally:
        wall = time.perf_counter() - start
        if clock is not None:
            clock.uninstall()
    peak_rss_mb = _peak_rss_mb()

    line: Dict[str, Any] = {
        "t_call": t_call,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "wrapped": wrapped,
        "error": error,
        "outcome": None,
        "layers": None,
        "missing": [],
    }
    if error is None:
        line["outcome"] = dataclasses.asdict(prepared.digest(result))
    else:
        line["items"] = prepared.items
    if clock is not None:
        line["layers"] = clock.report()
        line["missing"] = clock.missing
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
