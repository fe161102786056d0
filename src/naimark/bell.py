"""Generalized Bell-basis route to the same Naimark extension.

Preparing the ancilla in the conjugated fiducial and rotating into the
generalized Bell basis realizes the interaction unitary

    U = B (I x M^T) = (I x F^dag) P (I x M^T),    P = sum_j X^{-j} x |j><j|,

system first, ancilla (the shift's control) second.  P, B and U are one layout of the
blocks a|q><q|b (`wh._layout`); the dense product is the test oracle `bell_product_u`.
"""

from __future__ import annotations

import numpy as np

from .block import NaimarkExtension, build_block_naimark
from .errors import InvalidDimensionError
from .fiducials import Fiducial
from .wh import PHYSICAL_TOL, _layout, _omega_table, fourier, require_index, require_unitary


def build_bell_naimark(m: np.ndarray) -> NaimarkExtension:
    """Extension bundle via the Bell-basis route: B (I x M^T) = (I x F^dag) P (I x M^T)
    is the layout build_block_naimark checks M for and writes."""
    return build_block_naimark(m)


def controlled_shift(d: int) -> np.ndarray:
    """sum_j X^{-j} x |j><j|, the permutation stated in the README's Bell-route bullet."""
    if d < 2:
        raise InvalidDimensionError(f"controlled shift needs d >= 2, got {d}")
    return _layout(np.eye(d), np.eye(d))


def controlled_clock(d: int) -> np.ndarray:
    """sum_j |j><j| x Z^{-j}, the diagonal stated in the README's Bell-route bullet."""
    return np.diag(_clock_phases(d).reshape(-1))


def _clock_phases(d: int) -> np.ndarray:
    """The controlled clock's diagonal as a d x d array over (control, target)."""
    if d < 2:
        raise InvalidDimensionError(f"controlled clock needs d >= 2, got {d}")
    return _omega_table(d)[-np.arange(d) % d]  # row j holds w^{-jl}


def clock_decomposition(m: np.ndarray) -> np.ndarray:
    """Control/target-dual form of the interaction unitary, in O(d^4 log d).

    U = (F^dag x F^dag)(sum_j |j><j| x Z^{-j})(F x M^T), the same matrix as
    build_bell_naimark(m).U with the shift control moved to the first factor:
    F x M^T as a (d, d, d, d) broadcast, the clock phases on its row pair,
    then F^dag x F^dag as one unitary 2-D FFT over that pair.
    """
    m = require_unitary(m, tol=PHYSICAL_TOL, what="completion matrix M")
    d = m.shape[0]
    rot = fourier(d)[:, None, :, None] * m.T[None, :, None, :]
    rot *= _clock_phases(d)[:, :, None, None]
    return np.fft.fft2(rot, axes=(0, 1), norm="ortho").reshape(d * d, d * d)


def fiducial_for_embedding(m: np.ndarray, i: int) -> Fiducial:
    """Fiducial realized when the input is embedded at ancilla index i.

    Row i of M is the bra of that fiducial, so the ket is its conjugate; the
    d of them form an orthonormal set because M is unitary.
    """
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    require_index(i, d)
    return Fiducial(dim=d, ket=m[i].conj(), label=f"embedding-{i}")
