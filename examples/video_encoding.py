#!/usr/bin/env python3
"""Encode real (synthetic) video pixels and replay the SI trace.

The functional H.264-subset encoder processes a synthetic sequence —
full-pel SAD search, half-pel SATD refinement, motion compensation,
4x4 transforms, intra prediction and BS-4 deblocking — and records every
SI execution per macroblock.  The resulting trace then drives the RISPP
behavioural simulator, closing the loop from pixels to the run-time
scheduler.
"""

from repro import (
    EncoderConfig,
    H264SubsetEncoder,
    HEFScheduler,
    MolenSimulator,
    RisppSimulator,
    SyntheticVideo,
    h264_platform,
    simulate_software,
)


def main() -> None:
    video = SyntheticVideo(
        width=176, height=144, num_frames=6, seed=7, num_objects=3
    )
    encoder = H264SubsetEncoder(EncoderConfig(qp=28, search_range=8))
    print("Encoding 6 QCIF frames (functional kernels, numpy)...")
    result = encoder.encode(video.all_frames())

    print(f"  mean PSNR: {result.mean_psnr:.1f} dB")
    print(f"  intra MBs per frame: {result.intra_mbs_per_frame}")
    totals = result.workload.totals()
    print("  SI executions:", {k: v for k, v in sorted(totals.items())})

    registry, library = h264_platform()
    num_acs = 10
    software = simulate_software(library, result.workload)
    molen = MolenSimulator(library, registry, num_acs).run(result.workload)
    rispp = RisppSimulator(
        library, registry, HEFScheduler(), num_acs
    ).run(result.workload)

    print(f"\nReplaying the encoder's trace at {num_acs} ACs:")
    print(f"  software   : {software.total_mcycles:8.2f} Mcycles")
    print(f"  Molen-like : {molen.total_mcycles:8.2f} Mcycles")
    print(f"  RISPP/HEF  : {rispp.total_mcycles:8.2f} Mcycles "
          f"({rispp.speedup_over(molen):.2f}x vs Molen)")


if __name__ == "__main__":
    main()
