"""Section 5 anchor — the pure-software (0 ACs) execution time.

The paper reports 7,403 M cycles for encoding 140 CIF frames on the
base processor alone.  The workload model and trap latencies are
calibrated to land within 1% of that number, and the anchor is checked
on the full 140-frame run whatever ``REPRO_FRAMES`` says: the first
frames of the calibrated workload cost more than the 140-frame average
(the first 8 frames average 54.5 M against 52.9 M), so a per-frame
figure at reduced scale would not compare like with like.  The timed
run uses ``REPRO_FRAMES`` as every other benchmark does.
"""

from repro import generate_workload, simulate_software
from repro.calibration import NUM_FRAMES, SOFTWARE_TOTAL_MCYCLES


def test_software_baseline_calibration(benchmark, platform, scale):
    registry, library = platform
    workload = generate_workload(num_frames=scale.frames)
    result = benchmark.pedantic(
        simulate_software, args=(library, workload), rounds=1,
        iterations=1,
    )
    full = (
        result
        if scale.frames == NUM_FRAMES
        else simulate_software(
            library, generate_workload(num_frames=NUM_FRAMES)
        )
    )
    print(
        f"\nsoftware: {result.total_mcycles:,.0f} M over {scale.frames} "
        f"frames, {full.total_mcycles:,.2f} M over {NUM_FRAMES} frames "
        f"(paper: {SOFTWARE_TOTAL_MCYCLES:,} M)"
    )
    assert (
        abs(full.total_mcycles - SOFTWARE_TOTAL_MCYCLES)
        < 0.01 * SOFTWARE_TOTAL_MCYCLES
    )
