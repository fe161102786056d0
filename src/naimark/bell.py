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
from .errors import InvalidInputError
from .fiducials import Fiducial
from .simulate import require_index
from .wh import (
    PHYSICAL_TOL,
    bell_change_of_basis,
    clock_op,
    fourier,
    root_of_unity,
    shift_op,
    require_unitary,
)


def build_bell_naimark(m: np.ndarray) -> NaimarkExtension:
    """Extension bundle via the Bell-basis route; entrywise equal to the block route."""
    m = require_unitary(m, tol=PHYSICAL_TOL, what="completion matrix M")
    d = m.shape[0]
    u = bell_change_of_basis(d) @ np.kron(np.eye(d), m.T)
    return NaimarkExtension(d=d, M=m, U=u, provenance=PROVENANCE["bell"])


def matrix_element(m: np.ndarray, r: int, s: int, t: int, u: int) -> complex:
    """Closed form for entry (r*d + s, t*d + u) of the interaction unitary.

    <r,s|U|t,u> = d^{-1/2} w^{-s(t-r)} <u|M|t-r>, which depends on r and t
    only through (t - r) mod d -- the block-circulant invariance made exact.
    """
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    if not all(0 <= x < d for x in (r, s, t, u)):
        raise InvalidInputError(f"indices {(r, s, t, u)} out of range for d={d}")
    q = (t - r) % d
    w = root_of_unity(d)
    return complex(w ** ((-s * q) % d) * m[u, q] / np.sqrt(d))


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


def shift_decomposition(d: int) -> np.ndarray:
    """(I x F^dag)(sum_j X^{-j} x |j><j|) -- equals bell_change_of_basis(d).

    This is the qudit generalization of the CNOT-then-Hadamard Bell circuit.
    """
    return np.kron(np.eye(d), fourier(d).conj().T) @ controlled_shift(d)


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
