"""Generalized Bell-basis route to the same Naimark extension.

Preparing the ancilla in the conjugated fiducial and rotating into the
generalized Bell basis realizes the same interaction unitary as the
block-circulant layout:

    U = B (I x M^T),    B = (I x F^dag) (sum_j X^{-j} x |j><j|),

with the system on the first tensor factor and the ancilla (the control of
the shift) on the second.
"""

from __future__ import annotations

import numpy as np

from .block import PROVENANCE, NaimarkExtension
from .fiducials import Fiducial
from .simulate import require_index
from .wh import (
    PHYSICAL_TOL,
    bell_change_of_basis,
    clock_op,
    fourier,
    shift_op,
    require_unitary,
)


def build_bell_naimark(m: np.ndarray) -> NaimarkExtension:
    """Extension bundle via the Bell-basis route; entrywise equal to the block route.

    I x M^T is block diagonal, so B (I x M^T) is B reshaped to (d^3, d) times M^T.
    """
    m = require_unitary(m, tol=PHYSICAL_TOL, what="completion matrix M")
    d = m.shape[0]
    u = (bell_change_of_basis(d).reshape(d**3, d) @ m.T).reshape(d * d, d * d)
    return NaimarkExtension(d=d, M=m, U=u, provenance=PROVENANCE["bell"])


def controlled_shift(d: int) -> np.ndarray:
    """sum_j X^{-j} x |j><j|: inverse shifts on the first factor, control on the second."""
    x = shift_op(d)
    return sum(np.kron(np.linalg.matrix_power(x, (d - j) % d), _proj(d, j)) for j in range(d))


def controlled_clock(d: int) -> np.ndarray:
    """sum_j |j><j| x Z^{-j}: the control/target-swapped partner of the shift."""
    z = clock_op(d)
    return sum(np.kron(_proj(d, j), np.linalg.matrix_power(z, (d - j) % d)) for j in range(d))


def _proj(d: int, j: int) -> np.ndarray:
    """|j><j| on C^d."""
    return np.diag(np.eye(d)[j])


def clock_decomposition(m: np.ndarray) -> np.ndarray:
    """Control/target-dual form of the interaction unitary.

    U = [(F^dag x F^dag)(sum_j |j><j| x Z^{-j})(F x I)] (I x M^T); the shift
    control has moved to the first factor with the clock acting on the second,
    yet the product is the same matrix as build_bell_naimark(m).U.
    """
    m = require_unitary(m, tol=PHYSICAL_TOL, what="completion matrix M")
    d = m.shape[0]
    f = fourier(d)
    eye = np.eye(d)
    rot = np.kron(f.conj().T, f.conj().T) @ controlled_clock(d) @ np.kron(f, eye)
    return rot @ np.kron(eye, m.T)


def fiducial_for_embedding(m: np.ndarray, i: int) -> Fiducial:
    """Fiducial realized when the input is embedded at ancilla index i.

    Row i of M is the bra of that fiducial, so the ket is its conjugate; the
    d of them form an orthonormal set because M is unitary.
    """
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    require_index(i, d)
    return Fiducial(dim=d, ket=m[i].conj(), label=f"embedding-{i}")
