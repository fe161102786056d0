"""Embedding, outcome statistics, sampling, and linear-inversion tomography."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .block import NaimarkExtension
from .errors import (
    InvalidInputError,
    NumericalFailureError,
    RankDeficientFrameError,
)
from .fiducials import (
    Fiducial,
    as_ket,
    characteristic,
    cyclic_shifts,
    gram_condition,
    gram_rank,
    gram_spectrum,
    wh_orbit,
)
from .wh import PHYSICAL_TOL, max_abs, require_unitary

# Probabilities down to -_CLAMP are rounding and clamped to 0; lower is an error.
_CLAMP = 1e-14


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probabilities over the d^2 outcomes (j, k), flattened as j*d + k."""

    dim: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.shape[0] != self.dim**2:
            raise InvalidInputError(f"expected {self.dim ** 2} probabilities, got {p.shape[0]}")
        if not np.isfinite(p).all():
            raise InvalidInputError("probabilities have non-finite entries (NaN or Inf)")
        if not (np.min(p) >= -_CLAMP):
            raise InvalidInputError(f"negative probability {np.min(p):.3e}")
        p = np.where(p < 0, 0.0, p)
        total = float(p.sum())
        if not (abs(total - 1.0) <= PHYSICAL_TOL):
            raise InvalidInputError(f"probabilities sum to {total:.12g}, expected 1")
        object.__setattr__(self, "probs", p)

    def prob(self, j: int, k: int) -> float:
        return float(self.probs[(j % self.dim) * self.dim + (k % self.dim)])


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A reconstructed state with numerical diagnostics attached.

    `min_eigenvalue` may be negative when the distribution came from finite
    samples; it is reported, never repaired.
    """

    dim: int
    matrix: np.ndarray
    min_eigenvalue: float | None = None
    gram_condition: float | None = None

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise InvalidInputError(f"expected a {self.dim}x{self.dim} matrix, got {rho.shape}")
        if not (max_abs(rho - rho.conj().T) <= PHYSICAL_TOL):
            raise InvalidInputError("density matrix must be Hermitian")
        tr = complex(np.trace(rho))
        # Looser than PHYSICAL_TOL: a reconstruction's rounding grows with gram_condition.
        if not (abs(tr - 1.0) <= 1e-8):
            raise InvalidInputError(f"density matrix must have unit trace, got {tr:.12g}")
        object.__setattr__(self, "matrix", rho)


def require_index(i: int, d: int) -> None:
    """Reject an embedding index outside 0 <= i < d."""
    if not 0 <= i < d:
        raise InvalidInputError(f"embedding index {i} out of range for d={d}")


def embed(psi: np.ndarray, i: int) -> np.ndarray:
    """Place a d-vector into C^{d^2} with component t at index t*d + i."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    d = psi.shape[0]
    require_index(i, d)
    out = np.zeros(d * d, dtype=complex)
    out[np.arange(d) * d + i] = psi
    return out


def direct_probabilities(phi: Fiducial | np.ndarray, psi: np.ndarray) -> OutcomeDistribution:
    """Born-rule oracle P(j,k) = |<phi_jk|psi>|^2 / d, straight from the orbit.

    Every Naimark route must reproduce this distribution.
    """
    ket = as_ket(phi)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    d = ket.shape[0]
    if psi.shape[0] != d:
        raise InvalidInputError(f"state has dim {psi.shape[0]}, fiducial has dim {d}")
    amps = wh_orbit(ket).vectors.conj() @ psi
    return OutcomeDistribution(dim=d, probs=np.abs(amps) ** 2 / d)


def measure_probabilities(
    ext: NaimarkExtension | np.ndarray, psi: np.ndarray, i: int = 0
) -> OutcomeDistribution:
    """Outcome distribution of the extension unitary on |psi, i>, from M alone.

    The closed form <r,s|U|t,u> = d^{-1/2} w^{-s(t-r)} M[u, (t-r) mod d]
    (stated in the README) gives the amplitudes

        amp(r, s) = d^{-1/2} sum_q w^{-sq} M[i, q] psi_{(r+q) mod d},

    a length-d FFT over q of row i of M times each cyclic shift of psi:
    O(d^2 log d) time and O(d^2) memory, where U @ embed(psi, i) costs O(d^4).
    `ext` is an extension, of which only M is read, or a bare d x d
    completion matrix, which must be unitary to PHYSICAL_TOL.  Both routes
    define the same U, so the CLI's `simulate` passes M and never builds U;
    its `--construction` only names the route in the output.
    """
    if isinstance(ext, NaimarkExtension):
        m = ext.M
    else:
        m = require_unitary(ext, PHYSICAL_TOL, "completion matrix M")
    d = m.shape[0]
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != d:
        raise InvalidInputError(f"state has dim {psi.shape[0]}, extension has d={d}")
    require_index(i, d)
    amps = np.fft.fft(m[i] * cyclic_shifts(psi), axis=1) / np.sqrt(d)
    return OutcomeDistribution(dim=d, probs=np.abs(amps) ** 2)


def sample(dist: OutcomeDistribution, n_shots: int, seed: int) -> np.ndarray:
    """Multinomial counts per (j, k); deterministic for a fixed seed."""
    if n_shots < 1:
        raise InvalidInputError(f"need at least one shot, got {n_shots}")
    rng = np.random.default_rng(seed)
    p = dist.probs / dist.probs.sum()
    return rng.multinomial(n_shots, p)


def tomography_reconstruct(
    phi: Fiducial | np.ndarray, dist: OutcomeDistribution
) -> DensityMatrix:
    """Linear inversion on the frame {E(j,k)}: solve G x = p, set rho = sum x_a E_a.

    The frame Gram G[a, b] = |chi(b - a)|^2 / d^2 is a convolution over
    Z_d x Z_d, so G x = p is solved as a deconvolution, x = ifft2(fft2(p) / lam)
    with lam = gram_spectrum(chi), and rho = V^T diag(x) V^* / d with V the
    orbit.  Requires an informationally complete fiducial; a rank-deficient
    Gram matrix is rejected rather than pseudo-inverted.  Positivity of the
    result is diagnosed (min eigenvalue), not enforced.
    """
    ket = as_ket(phi)
    d = ket.shape[0]
    if dist.dim != d:
        raise InvalidInputError(f"distribution has d={dist.dim}, fiducial has d={d}")
    lam = gram_spectrum(characteristic(ket))
    rank = gram_rank(lam)
    if rank < d * d:
        raise RankDeficientFrameError(
            f"frame Gram matrix has rank {rank} < {d * d}; fiducial is not "
            "informationally complete"
        )
    cond = gram_condition(lam)
    if cond == math.inf:
        raise NumericalFailureError("frame Gram matrix is numerically singular")
    x = np.fft.ifft2(np.fft.fft2(dist.probs.reshape(d, d)) / lam).real.reshape(-1)
    vecs = wh_orbit(ket).vectors
    rho = (vecs.T * x) @ vecs.conj() / d
    rho = (rho + rho.conj().T) / 2
    eigs = np.linalg.eigvalsh(rho)
    return DensityMatrix(
        dim=d,
        matrix=rho,
        min_eigenvalue=float(eigs[0]),
        gram_condition=cond,
    )
