"""Weyl-Heisenberg operator family, Fourier transform, and generalized Bell basis.

Conventions used throughout the package:

* shift:  X|k> = |k+1 mod d>
* clock:  Z|k> = w^k |k>  with  w = exp(2*pi*i/d)
* displacement:  D(j, k) = X^j Z^k  (no extra phase prefactor, also for even d)
* Fourier:  F = d^{-1/2} sum_{jk} w^{jk} |j><k|,  so that  X = F^dag Z F
* pair indices (j, k) flatten to the linear index j*d + k everywhere

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


def max_abs(a: np.ndarray) -> float:
    """Max-norm of an array, as a plain float."""
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def unitarity_residual(a: np.ndarray) -> float:
    """||A^dag A - I||_max of a square matrix."""
    return max_abs(a.conj().T @ a - np.eye(a.shape[0]))


def require_unitary(a: np.ndarray, tol: float = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
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


def _phases(exponents: np.ndarray, d: int) -> np.ndarray:
    # Reduce exponents mod d before exponentiating; keeps phases exact-ish.
    return np.exp(2j * np.pi * (np.asarray(exponents) % d) / d)


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
    out[(ell + j) % d, ell] = _phases(k * ell, d)
    return out


def fourier(d: int) -> np.ndarray:
    """Discrete Fourier matrix F with entries w^{jk} / sqrt(d)."""
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    grid = np.outer(np.arange(d), np.arange(d))
    return _phases(grid, d) / np.sqrt(d)


def bell_vector(d: int, j: int, k: int) -> np.ndarray:
    """Maximally entangled basis vector obtained by vectorizing D(j, k).

    |D(j,k)> = d^{-1/2} sum_l w^{kl} |j+l, l>, with |a, b> at linear index a*d + b.
    """
    return displacement(d, j, k).reshape(-1) / np.sqrt(d)


def bell_change_of_basis(d: int) -> np.ndarray:
    """Unitary mapping the generalized Bell basis to the computational basis.

    Row j*d + k is the conjugate transpose of bell_vector(d, j, k), so the
    matrix sends |D(j,k)> to |j,k>: its entry at column (j+l mod d)*d + l is
    w^{-kl} / sqrt(d), and every other entry is zero.
    """
    if d < 2:
        raise InvalidDimensionError(f"Bell change of basis needs d >= 2, got {d}")
    j, k, ell = np.ogrid[:d, :d, :d]
    out = np.zeros((d * d, d * d), dtype=complex)
    out[j * d + k, ((j + ell) % d) * d + ell] = _phases(k * ell, d) / np.sqrt(d)
    return np.conj(out, out=out)
