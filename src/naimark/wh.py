"""Weyl-Heisenberg operator family, Fourier transform, and generalized Bell basis.

Conventions used throughout the package:

* shift:  X|k> = |k+1 mod d>
* clock:  Z|k> = w^k |k>  with  w = exp(2*pi*i/d)
* displacement:  D(j, k) = X^j Z^k  (no extra phase prefactor, also for even d)
* Fourier:  F = d^{-1/2} sum_{jk} w^{jk} |j><k|,  so that  X = F^dag Z F
* pair indices (j, k) flatten to the linear index j*d + k everywhere
* controlled shift:  P = sum_j X^{-j} x |j><j|; U = (I x F^dag) P (I x M^T), and P,
  B = (I x F^dag) P and U are written by one layout of the blocks a|q><q|b (_layout)

All functions are pure and return freshly allocated arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDimensionError, InvalidInputError

# Tolerance policy.  DEFAULT_TOL bounds identities that hold in exact
# algebra and only meet rounding (closed forms against each other, witness
# ties).  PHYSICAL_TOL bounds checks on data a caller hands in (unitarity of
# M, normalization of kets, Hermiticity) and is the CLI's default --tol.
# Guards are written `not (x <= tol)` so that a NaN residual fails them.
DEFAULT_TOL = 1e-12
PHYSICAL_TOL = 1e-10
CLAMP_TOL = 1e-14  # probabilities down to -CLAMP_TOL are rounding and clamped to 0; lower is an error
TRACE_TOL = 1e-8  # a reconstructed trace: looser than PHYSICAL_TOL, rounding grows with gram_condition


def max_abs(a: np.ndarray) -> float:
    """Max-norm of an array, as a plain float."""
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def unitarity_residual(a: np.ndarray) -> float:
    """||A^dag A - I||_max of a square matrix."""
    return max_abs(a.conj().T @ a - np.eye(a.shape[0]))


def require_unitary(a: np.ndarray, tol: float, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"{what} must be square, got shape {a.shape}")
    resid = unitarity_residual(a)
    if not (resid <= tol):
        raise InvalidInputError(f"{what} is not unitary: ||A^dag A - I||_max = {resid:.3e}")
    return a


def require_normalized(ket: np.ndarray, what: str) -> np.ndarray:
    """Return ket unchanged if its 2-norm is within PHYSICAL_TOL of 1."""
    norm = float(np.linalg.norm(ket))
    if not (abs(norm - 1.0) <= PHYSICAL_TOL):
        raise InvalidInputError(f"{what} must be normalized, got ||ket|| = {norm:.12g}")
    return ket


def require_index(i: int, d: int) -> None:
    """Reject an embedding index outside 0 <= i < d."""
    if not 0 <= i < d:
        raise InvalidInputError(f"embedding index {i} out of range for d={d}")


def _omega_table(d: int) -> np.ndarray:  # w^{kl}, indexed [k, l]
    # Reduce exponents mod d before exponentiating; keeps phases exact-ish.
    return np.exp(2j * np.pi * (np.outer(np.arange(d), np.arange(d)) % d) / d)


def shift_op(d: int) -> np.ndarray:
    """Cyclic shift X = D(1, 0) on C^d: X|k> = |k+1 mod d>."""
    return displacement(d, 1, 0)


def clock_op(d: int) -> np.ndarray:
    """Diagonal clock Z = D(0, 1) on C^d: Z|k> = w^k |k>."""
    return displacement(d, 0, 1)


def displacement(d: int, j: int, k: int) -> np.ndarray:
    """Displacement operator D(j, k) = X^j Z^k; index arithmetic is mod d.

    Closed form: D(j, k)|l> = w^{kl} |l+j>, i.e. entry (l+j mod d, l) is w^{kl}.
    """
    if d < 2:
        raise InvalidDimensionError(f"displacement needs d >= 2, got {d}")
    j, k = j % d, k % d
    ell = np.arange(d)
    out = np.zeros((d, d), dtype=complex)
    out[(ell + j) % d, ell] = _omega_table(d)[k]
    return out


def fourier(d: int) -> np.ndarray:
    """Discrete Fourier matrix F with entries w^{jk} / sqrt(d)."""
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    return _omega_table(d) / np.sqrt(d)


def bell_vector(d: int, j: int, k: int) -> np.ndarray:
    """Maximally entangled basis vector obtained by vectorizing D(j, k).

    |D(j,k)> = d^{-1/2} sum_l w^{kl} |j+l, l>, with |a, b> at linear index a*d + b.
    """
    return displacement(d, j, k).reshape(-1) / np.sqrt(d)


def bell_change_of_basis(d: int) -> np.ndarray:
    """Unitary mapping the generalized Bell basis to the computational basis.

    Row j*d + k is the conjugate transpose of bell_vector(d, j, k), so the
    matrix sends |D(j,k)> to |j,k>: its entry at column (j+l mod d)*d + l is
    w^{-kl} / sqrt(d), and every other entry is zero: B = (I x F^dag) P = _layout(F^dag, I).
    """
    if d < 2:
        raise InvalidDimensionError(f"Bell change of basis needs d >= 2, got {d}")
    return _layout(fourier(d).conj().T, np.eye(d))


def _blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (d, d, d) stack of blocks a|q><q|b, S[q, s, u] = a[s, q] b[q, u]."""
    return a.T[:, :, None] * b[:, None, :]


def _circulant(s: np.ndarray):
    """Yield (index, part) pairs that lay out the block circulant with first block row s.

    The layout rule, stated only here: block (r, t) is s[(t - r) mod d], so
    block row r is block row 0 rolled r blocks right: two slice copies, u[index] = part.
    """
    d = len(s)
    row = s.transpose(1, 0, 2).reshape(d, d * d)
    for k in range(0, d * d, d):
        yield (slice(k, k + d), slice(k, None)), row[:, : d * d - k]
        yield (slice(k, k + d), slice(0, k)), row[:, d * d - k :]


def _layout(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(I x a) P (I x b) as a new complex array; P's block (r, t) is |q><q|, q = t - r mod d."""
    out = np.empty((len(a) ** 2,) * 2, dtype=complex)
    for index, part in _circulant(_blocks(a, b)):
        out[index] = part
    return out
