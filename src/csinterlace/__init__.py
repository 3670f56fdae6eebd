"""Complementary-sequence interlace toolkit.

Constructs non-contiguous complementary sequences for OFDM interlaces,
builds non-coherent and coherent uplink-control waveforms whose PAPR never
exceeds 3 dB, searches low-cross-correlation pair sets, and evaluates
PAPR / cubic-metric / cross-correlation / detection-error performance.
"""

__version__ = "0.1.0"

from .golay import ConstructionParams, GolayPair, combine_gcps, enumerate_gcps
from .interlace import InterlaceConfig, SparseSpectrum
from .linksim import SimConfig, SimReport, run_sim
from .metrics import cm_db, papr_db, synthesize
from .setsearch import SequenceSetPair, build_sets, verify_sets

__all__ = [
    "__version__",
    "ConstructionParams",
    "GolayPair",
    "combine_gcps",
    "enumerate_gcps",
    "InterlaceConfig",
    "SparseSpectrum",
    "SimConfig",
    "SimReport",
    "run_sim",
    "cm_db",
    "papr_db",
    "synthesize",
    "SequenceSetPair",
    "build_sets",
    "verify_sets",
]
