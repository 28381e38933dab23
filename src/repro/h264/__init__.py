"""H.264 workload substrate.

Two layers live here:

* :mod:`repro.h264.silibrary` — the *static* description of the paper's
  benchmark application: the eleven atom types, the nine Special
  Instructions with their molecule sets (Table 1) and the three hot spots
  (ME, EE, LF) of Figure 1.
* the functional encoder (:mod:`repro.h264.encoder` and the kernel
  modules) — a numpy implementation of the H.264 subset the SIs
  accelerate.  It processes real pixels and emits the per-macroblock
  SI-execution traces the run-time system consumes.
"""

from __future__ import annotations

from .silibrary import (
    ATOM_SADTREE,
    ATOM_SAV,
    ATOM_QSUB,
    ATOM_REPACK,
    ATOM_HADAMARD,
    ATOM_TRANSFORM,
    ATOM_QUANT,
    ATOM_SCALE,
    ATOM_DCPACK,
    ATOM_DCHAD,
    ATOM_POINTFILTER,
    ATOM_CLIP3,
    ATOM_BYTEPACK,
    ATOM_COLLAPSEADD,
    ATOM_LFCOND,
    ATOM_LFFILT,
    HOT_SPOT_SIS,
    HOT_SPOT_ORDER,
    build_atom_registry,
    build_si_library,
    h264_platform,
    paper_si_label,
)
from .types import YuvFrame, macroblocks, mb_view
from .video import SyntheticVideo
from .encoder import EncoderConfig, EncodeResult, H264SubsetEncoder

__all__ = [
    "ATOM_SADTREE",
    "ATOM_SAV",
    "ATOM_QSUB",
    "ATOM_REPACK",
    "ATOM_HADAMARD",
    "ATOM_TRANSFORM",
    "ATOM_QUANT",
    "ATOM_SCALE",
    "ATOM_DCPACK",
    "ATOM_DCHAD",
    "ATOM_POINTFILTER",
    "ATOM_CLIP3",
    "ATOM_BYTEPACK",
    "ATOM_COLLAPSEADD",
    "ATOM_LFCOND",
    "ATOM_LFFILT",
    "HOT_SPOT_SIS",
    "HOT_SPOT_ORDER",
    "build_atom_registry",
    "build_si_library",
    "h264_platform",
    "paper_si_label",
    "YuvFrame",
    "macroblocks",
    "mb_view",
    "SyntheticVideo",
    "EncoderConfig",
    "EncodeResult",
    "H264SubsetEncoder",
]
