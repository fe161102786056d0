"""Weyl-Heisenberg operator family, Fourier transform, and generalized Bell basis.

Conventions used throughout the package:

* shift:  X|k> = |k+1 mod d>
* clock:  Z|k> = w^k |k>  with  w = exp(2*pi*i/d)
* displacement:  D(j, k) = X^j Z^k  (no extra phase prefactor, also for even d)
* Fourier:  F = d^{-1/2} sum_{jk} w^{jk} |j><k|,  so that  X = F^dag Z F
* pair indices (j, k) flatten to the linear index j*d + k everywhere
* cyclic offsets, of vectors and of block rows alike, are read through one view, cyclic_shifts
* controlled shift:  P = sum_j X^{-j} x |j><j|; U = (I x F^dag) P (I x M^T), and P,
  B = (I x F^dag) P and U are written by one layout of the blocks a|q><q|b (_layout)

All functions are pure and return freshly allocated arrays.
"""

from __future__ import annotations

import math
import operator

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


def require_index(i: int, d: int) -> int:
    """Return an embedding index as an int; reject a non-integer or one outside 0 <= i < d."""
    if not hasattr(type(i), "__index__"):  # what operator.index takes
        raise InvalidInputError(f"embedding index must be an integer, got {i!r}")
    if not 0 <= i < d:
        raise InvalidInputError(f"embedding index {i} out of range for d={d}")
    return operator.index(i)


def _require_int(x, least: int | float, what: str, error: type = InvalidDimensionError) -> int:
    """operator.index(x), which refuses floats and strings, if it is >= least; else
    error(f"{what}, got {x!r}"), `what` stating the bound."""
    try:
        if operator.index(x) >= least:
            return operator.index(x)
    except TypeError:
        pass
    raise error(f"{what}, got {x!r}")


def _omega_table(d: int) -> np.ndarray:  # w^{kl}, indexed [k, l]
    # Exponents reduced mod d keep phases exact-ish; only the d roots are exponentiated.
    return np.exp(2j * np.pi * np.arange(d) / d)[np.outer(np.arange(d), np.arange(d)) % d]


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
    d = _require_int(d, 2, "displacement needs d >= 2")
    j, k = (_require_int(x, -math.inf, "displacement needs integer j and k") % d for x in (j, k))
    ell = np.arange(d)
    out = np.zeros((d, d), dtype=complex)
    out[(ell + j) % d, ell] = _omega_table(d)[k]
    return out


def fourier(d: int) -> np.ndarray:
    """Discrete Fourier matrix F with entries w^{jk} / sqrt(d)."""
    d = _require_int(d, 1, "dimension must be >= 1")
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
    d = _require_int(d, 2, "Bell change of basis needs d >= 2")
    return _layout(fourier(d).conj().T, np.eye(d))


def _blocks(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Blocks a|q><q|b, S[q, s, u] = a[s, q] b[q, u]: a product in C order as (s, q, u), viewed."""
    return np.multiply(a[:, :, None], b, out=out).transpose(1, 0, 2)


def cyclic_shifts(a: np.ndarray) -> np.ndarray:
    """out[..., j, l] = a[..., (l + j) mod d], the WH shift rule's one statement: a read-only view
    of a doubled along its last axis, stepping by that axis's own stride (F order works) in j and l.
    The Born oracle shares only this with the kernel; index-loop and covariance tests pin it."""
    pair = np.concatenate([a, a], axis=-1)
    pair.flags.writeable = False  # the view inherits it (as_strided: same view, 3 us more per call)
    return np.ndarray(a.shape + a.shape[-1:], pair.dtype, pair, 0, pair.strides + pair.strides[-1:])


def _rolled(row: np.ndarray) -> np.ndarray:
    """Block rows 1..d-1 of the block circulant with block row 0 `row`: its shifts by d^2 - r*d."""
    d, n = row.shape
    return cyclic_shifts(row)[:, n - d : 0 : -d].transpose(1, 0, 2)


def _layout(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(I x a) P (I x b) as a new complex array; P's block (r, t) is |q><q|, q = t - r mod d.
    Block row 0 is the product, written in place: no d^3 temporary (numpy skips its self-copy)."""
    d = len(a)
    out = np.empty((d * d,) * 2, dtype=complex)
    _blocks(a, b, out[:d].reshape(d, d, d))
    out.reshape(d, d, d * d)[1:] = _rolled(out[:d])
    return out
