"""Differential harness: the trace replay against the pinned reference.

The span executor (:mod:`repro.sim.vector`) and the array-backed planner
(:mod:`repro.core.scoring`) replaced a reference per-span loop and the
reference planner.  Before those were deleted, their results on this
grid — every scheduler, two AC counts, a clean and a retry-heavy faulty
fabric, the Molen baseline and the sweep cells including the software
baseline — were committed as field-level digests
(``tests/data/golden_engine_results.json``, see
``tests/engine_golden.py``).  Every field must still match: not
approximately, field for field on every
:class:`~repro.sim.results.SimulationResult`.

Any mismatch here means the replay diverged from the reference
semantics — a correctness bug by definition, never an acceptable
"performance tradeoff".
"""

from __future__ import annotations

import pytest

from repro.core.schedulers import available_schedulers

from tests.engine_golden import (
    AC_COUNTS,
    assert_matches_golden,
    cell_case,
    molen_case,
    rispp_case,
    sweep_cells,
)

CONFIGS = ["clean", "faulty"]


@pytest.mark.parametrize("scheduler", available_schedulers())
@pytest.mark.parametrize("acs", AC_COUNTS)
@pytest.mark.parametrize("config", CONFIGS)
def test_rispp_grid_bit_identical(scheduler, acs, config):
    case, result = rispp_case(scheduler, acs, config, segments=True)
    # Segments were recorded — make sure the comparison saw them.
    assert result.segments, case
    assert_matches_golden(case, result)


@pytest.mark.parametrize("config", CONFIGS)
def test_rispp_without_segments_bit_identical(config):
    """The unsegmented shape every sweep cell takes."""
    case, result = rispp_case("HEF", 10, config, segments=False)
    assert result.segments is None
    assert_matches_golden(case, result)


@pytest.mark.parametrize("acs", AC_COUNTS)
@pytest.mark.parametrize("config", CONFIGS)
def test_molen_bit_identical(acs, config):
    assert_matches_golden(*molen_case(acs, config))


def test_sweep_cells_identical_across_engines():
    """Cell-level parity including the software baseline.

    ``execute_cell`` is what sweeps, figure drivers, and the CLI run;
    identical results here mean cache entries written by the reference
    engine stay valid.
    """
    for cell in sweep_cells():
        assert_matches_golden(*cell_case(cell))
