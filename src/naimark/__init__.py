"""Naimark extensions of Weyl-Heisenberg covariant rank-one measurements.

The package constructs the d^2 x d^2 interaction unitary for any rank-one
WH covariant POVM from a single d x d completion matrix, via two provably
identical routes (a block-circulant layout and a generalized Bell-basis
rotation), decomposes it into qubit gates when d = 2**n, and simulates and
verifies the resulting measurements against direct Born-rule oracles.
"""

__version__ = "0.1.0"

from .bell import (
    build_bell_naimark,
    clock_decomposition,
    controlled_clock,
    controlled_shift,
    fiducial_for_embedding,
)
from .block import (
    NaimarkExtension,
    block_constraint_violation,
    build_block_naimark,
    complete_unitary,
    diagonal_blocks,
    extract_blocks,
    structure_report,
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
    UnsupportedDimensionError,
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
    sample,
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
    "UnsupportedDimensionError",
    "WHFrame",
    "apply_circuit",
    "bell_change_of_basis",
    "bell_vector",
    "block_constraint_violation",
    "build_bell_naimark",
    "build_block_naimark",
    "builtin_fiducial",
    "catalog_m",
    "clock_decomposition",
    "clock_op",
    "complete_unitary",
    "compound_sic_report",
    "controlled_clock",
    "controlled_shift",
    "cx_qudit_circuit",
    "cz_qudit_circuit",
    "diagonal_blocks",
    "direct_probabilities",
    "displacement",
    "embed",
    "expand",
    "extract_blocks",
    "fiducial_for_embedding",
    "fourier",
    "full_naimark_circuit",
    "is_informationally_complete",
    "measure_probabilities",
    "qcz_circuit",
    "qudit_fourier_circuit",
    "qudit_z_circuit",
    "sample",
    "shift_op",
    "sic_report",
    "structure_report",
    "tomography_reconstruct",
    "wh_orbit",
]
