#!/usr/bin/env python3
"""Run-time adaptation to unpredictable content (the paper's motivation).

A scene cut in the middle of the sequence invalidates everything the
online monitor learned about SI execution frequencies.  This example
shows the error-feedback forecaster re-converging and how the per-frame
execution time reacts — the behaviour that design-time-fixed systems
cannot deliver.
"""

from repro import (
    ExecutionMonitor,
    HEFScheduler,
    RisppSimulator,
    h264_platform,
)
from repro.workload.model import H264WorkloadModel


def main() -> None:
    model = H264WorkloadModel(
        num_frames=24, seed=99, scene_cut_frame=12,
        activity_amplitude=0.45,
    )
    workload = model.generate()
    registry, library = h264_platform()

    monitor = ExecutionMonitor(alpha=0.5, profile=model.offline_profile())
    sim = RisppSimulator(
        library, registry, HEFScheduler(), num_acs=12, monitor=monitor
    )
    result = sim.run(workload)

    print("Per-frame execution time (scene cut after frame 11):")
    for index, cycles in enumerate(result.per_frame_cycles):
        marker = "  <- scene cut" if index == 12 else ""
        print(f"  frame {index:2d}: {cycles / 1e6:6.2f} Mcycles{marker}")

    print("\nMonitor prediction quality (mean relative error):")
    for hot_spot, si_name in (("ME", "SAD"), ("ME", "SATD"),
                              ("EE", "DCT"), ("LF", "LF_BS4")):
        stats = monitor.stats(hot_spot, si_name)
        print(f"  {hot_spot}/{si_name:<7s}: {stats.relative_error:6.1%} "
              f"over {stats.num_updates} updates")
    print(f"\nTotal: {result.total_mcycles:.1f} Mcycles, "
          f"{result.loads_completed} atom loads")


if __name__ == "__main__":
    main()
