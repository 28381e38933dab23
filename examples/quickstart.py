#!/usr/bin/env python3
"""Quickstart: run the RISPP run-time system on the paper's workload.

Builds the calibrated H.264 platform (atom registry + Table 1 SI
library), generates a few frames of the paper-scale workload, and runs
the proposed HEF scheduler against the pure-software baseline and the
Molen-like state of the art.
"""

from repro import (
    HEFScheduler,
    MolenSimulator,
    RisppSimulator,
    generate_workload,
    h264_platform,
    paper_si_label,
    simulate_software,
)


def main() -> None:
    registry, library = h264_platform()

    print("The nine Special Instructions of the H.264 encoder (Table 1):")
    for name, atom_types, molecules in library.inventory():
        print(
            f"  {paper_si_label(name):<10s} {atom_types} atom types, "
            f"{molecules} molecules"
        )

    workload = generate_workload(num_frames=10)
    print(f"\nWorkload: {workload}")

    num_acs = 10
    software = simulate_software(library, workload)
    molen = MolenSimulator(library, registry, num_acs).run(workload)
    rispp = RisppSimulator(
        library, registry, HEFScheduler(), num_acs
    ).run(workload)

    print(f"\nEncoding {workload.num_frames} CIF frames with {num_acs} "
          "Atom Containers:")
    print(f"  pure software : {software.total_mcycles:9.1f} Mcycles")
    print(f"  Molen-like    : {molen.total_mcycles:9.1f} Mcycles "
          f"({molen.speedup_over(software):.1f}x vs software)")
    print(f"  RISPP + HEF   : {rispp.total_mcycles:9.1f} Mcycles "
          f"({rispp.speedup_over(software):.1f}x vs software, "
          f"{rispp.speedup_over(molen):.2f}x vs Molen)")
    print(f"\n  atom loads: {rispp.loads_completed}, "
          f"evictions: {rispp.evictions}")


if __name__ == "__main__":
    main()
