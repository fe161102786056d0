"""Generalized Bell-basis route to the same Naimark extension.

Preparing the ancilla in the conjugated fiducial and rotating into the
generalized Bell basis realizes the interaction unitary

    U = B (I x M^T) = (I x F^dag) P (I x M^T),    P = sum_j X^{-j} x |j><j|,

system first, ancilla (the shift's control) second.  P, B and U are one layout of the
blocks a|q><q|b (`wh._layout`).  The dense product and the control/target-dual clock route
U = (F^dag x F^dag)(controlled clock)(F x M^T) are test oracles, in the tests' util module.
"""

from __future__ import annotations

import numpy as np

from .block import NaimarkExtension, build_block_naimark
from .fiducials import Fiducial
from .wh import _layout, _omega_table, _require_int, require_index


def build_bell_naimark(m: np.ndarray) -> NaimarkExtension:
    """Extension bundle via the Bell-basis route: B (I x M^T) = (I x F^dag) P (I x M^T)
    is the layout build_block_naimark checks M for and writes."""
    return build_block_naimark(m)


def controlled_shift(d: int) -> np.ndarray:
    """sum_j X^{-j} x |j><j|, the permutation stated in the README's Bell-route bullet."""
    d = _require_int(d, 2, "controlled shift needs d >= 2")
    return _layout(np.eye(d), np.eye(d))


def controlled_clock(d: int) -> np.ndarray:
    """sum_j |j><j| x Z^{-j}, the diagonal stated in the README's Bell-route bullet."""
    d = _require_int(d, 2, "controlled clock needs d >= 2")
    return np.diag(_omega_table(d)[-np.arange(d) % d].reshape(-1))  # row j holds w^{-jl}


def fiducial_for_embedding(m: np.ndarray, i: int) -> Fiducial:
    """Fiducial realized when the input is embedded at ancilla index i.

    Row i of M is the bra of that fiducial, so the ket is its conjugate; the
    d of them form an orthonormal set because M is unitary.
    """
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    i = require_index(i, d)
    return Fiducial(dim=d, ket=m[i].conj(), label=f"embedding-{i}")
