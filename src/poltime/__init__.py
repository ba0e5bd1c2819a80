"""Simulation and reconstruction of polarization + time-bin encoded photon pairs.

Subpackages in dependency order: `hilbert` (states on the bin lattice),
`optics` (Jones elements, crystals, preparation compiler), `hom`
(two-photon interference projections), `experiment` (Poisson scan
synthesis and estimation), `tomography` (reconstruction from mutually
unbiased or product projection sets), `cli`.  `cli` and `optics` load on
first use: `python -m poltime.cli` must not find `cli` already imported, and
only `poltime prepare` reads `optics` and the names taken from it.
"""

import importlib

from . import experiment, hilbert, hom, tomography
from .hilbert import (
    DensityMatrix,
    PhotonState,
    StateAnnihilatedError,
    TimeBinLattice,
    Wavepacket,
    named_state,
)
from .hom import coincidence_ratio, fock_oracle_ratio, scan_trace
from .experiment import ScanConfig, default_delay_grid, extract_projections, sample_scan
from .tomography import (
    TomographyResult,
    bootstrap_errors,
    default_tomography_set,
    fidelity,
    linear_inversion,
    mle_reconstruct,
    product_tomography_set,
    simulate_counts,
)

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("cli", "optics"):
        return importlib.import_module(f".{name}", __name__)
    if name in ("OpticalPipeline", "apply_pipeline", "compile_preparation", "gate_matrix"):
        return getattr(importlib.import_module(".optics", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DensityMatrix",
    "OpticalPipeline",
    "PhotonState",
    "ScanConfig",
    "StateAnnihilatedError",
    "TimeBinLattice",
    "TomographyResult",
    "Wavepacket",
    "apply_pipeline",
    "bootstrap_errors",
    "cli",
    "coincidence_ratio",
    "compile_preparation",
    "default_delay_grid",
    "default_tomography_set",
    "experiment",
    "extract_projections",
    "fidelity",
    "fock_oracle_ratio",
    "gate_matrix",
    "hilbert",
    "hom",
    "linear_inversion",
    "mle_reconstruct",
    "named_state",
    "optics",
    "product_tomography_set",
    "sample_scan",
    "scan_trace",
    "simulate_counts",
    "tomography",
    "__version__",
]
