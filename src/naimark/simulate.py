"""Embedding, outcome statistics, sampling, and linear-inversion tomography."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block import NaimarkExtension
from .errors import InvalidInputError, RankDeficientFrameError
from .fiducials import Fiducial, _moyal, as_ket, characteristic, gram_condition, gram_rank
from .fiducials import gram_spectrum, wh_orbit
from .wh import CLAMP_TOL, PHYSICAL_TOL, TRACE_TOL, _require_int, cyclic_shifts, max_abs
from .wh import require_index, require_unitary


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probabilities over the d^2 outcomes (j, k), flattened as j*d + k."""

    dim: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _require_int(self.dim, 1, "need dim >= 1", InvalidInputError))
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.shape[0] != self.dim**2:
            raise InvalidInputError(f"expected {self.dim ** 2} probabilities, got {p.shape[0]}")
        if not np.isfinite(p).all():
            raise InvalidInputError("probabilities have non-finite entries (NaN or Inf)")
        if not (np.min(p) >= -CLAMP_TOL):
            raise InvalidInputError(f"negative probability {np.min(p):.3e}")
        p = np.where(p < 0, 0.0, p)
        total = float(p.sum())
        if not (abs(total - 1.0) <= PHYSICAL_TOL):
            raise InvalidInputError(f"probabilities sum to {total:.12g}, expected 1")
        object.__setattr__(self, "probs", p)


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
        if not (abs(tr - 1.0) <= TRACE_TOL):
            raise InvalidInputError(f"density matrix must have unit trace, got {tr:.12g}")
        object.__setattr__(self, "matrix", rho)


def embed(psi: np.ndarray, i: int) -> np.ndarray:
    """Place a d-vector into C^{d^2} with component t at index t*d + i."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    d = psi.shape[0]
    i = require_index(i, d)
    out = np.zeros(d * d, dtype=complex)
    out[np.arange(d) * d + i] = psi
    return out


def direct_probabilities(phi: Fiducial | np.ndarray, psi: np.ndarray) -> OutcomeDistribution:
    """Born-rule oracle P(j,k) = |<phi_jk|psi>|^2 / d, straight from the orbit (`wh_orbit`).

    Every Naimark route must reproduce it.  It reads phi, psi and w only: no M, no FFT.
    """
    ket = as_ket(phi)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    d = ket.shape[0]
    if psi.shape[0] != d:
        raise InvalidInputError(f"state has dim {psi.shape[0]}, fiducial has dim {d}")
    amps = wh_orbit(ket).vectors @ psi.conj()  # conj(<phi_jk|psi>), the orbit left unconjugated
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
    define the same U, so the CLI's `simulate` passes M and never builds U.
    """
    if isinstance(ext, NaimarkExtension):
        m = ext.M
    else:
        m = require_unitary(ext, PHYSICAL_TOL, "completion matrix M")
    d = m.shape[0]
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != d:
        raise InvalidInputError(f"state has dim {psi.shape[0]}, extension has d={d}")
    i = require_index(i, d)
    amps = np.fft.fft(m[i] * cyclic_shifts(psi), axis=1) / np.sqrt(d)
    return OutcomeDistribution(dim=d, probs=np.abs(amps) ** 2)


def sample(dist: OutcomeDistribution, n_shots: int, seed: int) -> np.ndarray:
    """Multinomial counts per (j, k); deterministic for a fixed seed."""
    if not (hasattr(type(n_shots), "__index__") and 1 <= n_shots <= 2**63 - 1):  # int64 counts
        raise InvalidInputError(f"need 1 <= shots <= 2**63 - 1, got {n_shots!r}")
    if not (hasattr(type(seed), "__index__") and seed >= 0):  # what operator.index takes
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    p = dist.probs / dist.probs.sum()
    return rng.multinomial(n_shots, p)


def tomography_reconstruct(
    phi: Fiducial | np.ndarray, dist: OutcomeDistribution
) -> DensityMatrix:
    """Linear inversion on the frame {E(j,k)}, by rho's Weyl coefficients.

    By the Moyal identity (derived at `fiducials._moyal`), r[j, k] = tr(D(j,k)^dag rho)
    is fft2(p)[k, -j] / chi[j, k], and rho = (1/d) sum r[j, k] D(j,k) is
    rho[(n + j) mod d, n] = ifft(r, axis=1)[j, n]: O(d^2 log d), plus O(d^3) for eigvalsh.
    A frame Gram of rank < d^2 (`gram_rank`) is rejected, not pseudo-inverted; at full
    rank every |chi| > tau > 0.  Positivity is diagnosed (min eigenvalue), not enforced.
    """
    ket = as_ket(phi)
    d = ket.shape[0]
    if dist.dim != d:
        raise InvalidInputError(f"distribution has d={dist.dim}, fiducial has d={d}")
    chi = characteristic(ket)
    lam = gram_spectrum(chi)
    rank = gram_rank(lam)
    if rank < d * d:
        raise RankDeficientFrameError(
            f"frame Gram matrix has rank {rank} < {d * d}; fiducial is not "
            "informationally complete"
        )
    y = np.fft.ifft(_moyal(np.fft.fft2(dist.probs.reshape(d, d))) / chi, axis=1)
    rho = cyclic_shifts(y.T)[np.arange(d), -np.arange(d) % d].T  # rho[m, n] = y[m - n, n]
    rho = (rho + rho.conj().T) / 2
    eigs = np.linalg.eigvalsh(rho)
    return DensityMatrix(
        dim=d,
        matrix=rho,
        min_eigenvalue=float(eigs[0]),
        gram_condition=gram_condition(lam),
    )
