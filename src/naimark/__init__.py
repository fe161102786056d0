"""Naimark extensions of Weyl-Heisenberg covariant rank-one measurements.

The package constructs the d^2 x d^2 interaction unitary for any rank-one
WH covariant POVM from a single d x d completion matrix.  The block and Bell names
share one writer, the block-circulant layout of U = (I x F^dag) P (I x M^T), P the
controlled shift; the controlled-clock dual is a test oracle, not a library route.  It
decomposes U into qubit gates when d = 2**n, and simulates and verifies the
resulting measurements against direct Born-rule oracles.
"""

__version__ = "0.1.0"

from .bell import (
    build_bell_naimark,
    fiducial_for_embedding,
)
from .block import (
    NaimarkExtension,
    build_block_naimark,
    complete_unitary,
    diagonal_blocks,
)
from .circuits import (
    Gate,
    GateList,
    apply_circuit,
    cx_qudit_circuit,
    cz_qudit_circuit,
    expand,
    full_naimark_circuit,
    qcz_circuit,
    qudit_fourier_circuit,
    qudit_z_circuit,
)
from .errors import (
    CatalogMissError,
    InvalidCircuitError,
    InvalidDimensionError,
    InvalidInputError,
    NaimarkError,
    NumericalFailureError,
    ParseError,
    RankDeficientFrameError,
)
from .fiducials import (
    Fiducial,
    ICResult,
    WHFrame,
    builtin_fiducial,
    catalog_m,
    compound_sic_report,
    is_informationally_complete,
    sic_report,
    wh_orbit,
)
from .simulate import (
    DensityMatrix,
    OutcomeDistribution,
    direct_probabilities,
    embed,
    measure_probabilities,
    tomography_reconstruct,
)
from .wh import (
    DEFAULT_TOL,
    PHYSICAL_TOL,
    bell_change_of_basis,
    bell_vector,
    clock_op,
    displacement,
    fourier,
    shift_op,
)

__all__ = [
    "DEFAULT_TOL",
    "PHYSICAL_TOL",
    "CatalogMissError",
    "DensityMatrix",
    "Fiducial",
    "Gate",
    "GateList",
    "ICResult",
    "InvalidCircuitError",
    "InvalidDimensionError",
    "InvalidInputError",
    "NaimarkError",
    "NaimarkExtension",
    "NumericalFailureError",
    "OutcomeDistribution",
    "ParseError",
    "RankDeficientFrameError",
    "WHFrame",
    "apply_circuit",
    "bell_change_of_basis",
    "bell_vector",
    "build_bell_naimark",
    "build_block_naimark",
    "builtin_fiducial",
    "catalog_m",
    "clock_op",
    "complete_unitary",
    "compound_sic_report",
    "cx_qudit_circuit",
    "cz_qudit_circuit",
    "diagonal_blocks",
    "direct_probabilities",
    "displacement",
    "embed",
    "expand",
    "fiducial_for_embedding",
    "fourier",
    "full_naimark_circuit",
    "is_informationally_complete",
    "measure_probabilities",
    "qcz_circuit",
    "qudit_fourier_circuit",
    "qudit_z_circuit",
    "shift_op",
    "sic_report",
    "tomography_reconstruct",
    "wh_orbit",
]
