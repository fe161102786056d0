"""Block-circulant Naimark extension built from a d x d completion matrix.

The d^2 x d^2 interaction unitary is assembled from d rank-one blocks

    S_k = |f_k><m_k|,   |f_k> = F^dag |k>,   <m_k| = row k of M^T,

laid out block-circulantly with first block row [S_0 S_1 ... S_{d-1}]; the
block at block-position (r, t) is S_{(t - r) mod d}.  M is any unitary whose
first row is the conjugated fiducial, so the normalization 1/sqrt(d) lives
inside the Fourier column and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .fiducials import Fiducial, as_ket
from .wh import (
    DEFAULT_TOL,
    PHYSICAL_TOL,
    fourier,
    max_abs,
    require_normalized,
    require_unitary,
    unitarity_residual,
)


# The provenance tag of each route's extension, keyed by route name.  Both
# routes define the same U; the tag only records which one built it.
PROVENANCE = {"block": "block-construction", "bell": "bell-construction"}


@dataclass(frozen=True, eq=False)
class NaimarkExtension:
    """Bundle of a completion matrix M, the full unitary U, and the route taken."""

    d: int
    M: np.ndarray
    U: np.ndarray
    provenance: str

    @property
    def fiducial(self) -> np.ndarray:
        """The fiducial ket encoded in row 0 of M."""
        return self.M[0].conj()


def complete_unitary(phi: Fiducial | np.ndarray) -> np.ndarray:
    """Deterministically extend a fiducial bra to a full unitary matrix.

    Row 0 is the conjugated fiducial.  The remaining rows come from the
    standard basis with the vector of largest overlap removed, orthonormalized
    against the rows built so far (modified Gram-Schmidt, index order).
    """
    ket = require_normalized(as_ket(phi), "fiducial")
    d = ket.shape[0]
    drop = int(np.argmax(np.abs(ket)))
    rows = [ket.conj()]
    for i in range(d):
        if i == drop:
            continue
        v = np.zeros(d, dtype=complex)
        v[i] = 1.0
        for r in rows:
            v = v - np.vdot(r, v) * r
        n = float(np.linalg.norm(v))
        if n < DEFAULT_TOL:
            raise NumericalFailureError("Gram-Schmidt collapse while completing the unitary")
        rows.append(v / n)
    return np.array(rows)


def _block_row(m: np.ndarray) -> np.ndarray:
    """All blocks as one (d, d, d) array, S[q, s, u] = conj(F)[q, s] M[u, q]."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"completion matrix must be square, got {m.shape}")
    return fourier(m.shape[0]).conj()[:, :, None] * m.T[:, None, :]


def _circulant(s: np.ndarray):
    """Yield (row slice, block row) pairs of the block circulant with first block row s.

    The layout rule, stated only here: block (r, t) is s[(t - r) mod d], so
    block row r is block row 0 rolled r blocks to the right.
    """
    d = len(s)
    row = s.transpose(1, 0, 2).reshape(d, d * d)
    for r in range(d):
        yield slice(r * d, (r + 1) * d), np.roll(row, r * d, axis=1)


def _stack(blocks) -> np.ndarray:
    """A block row given as d blocks, each d x d, as one (d, d, d) array."""
    s = [np.asarray(b, dtype=complex) for b in blocks]
    d = len(s)
    if d == 0:
        raise InvalidInputError("need at least one block")
    if any(b.shape != (d, d) for b in s):
        raise InvalidInputError(f"expected {d} blocks of shape ({d}, {d}), got {[b.shape for b in s]}")
    return np.array(s)


def assemble_unitary(m: np.ndarray) -> np.ndarray:
    """Lay the rank-one blocks out block-circulantly into the full unitary."""
    m = require_unitary(m, tol=PHYSICAL_TOL, what="completion matrix M")
    u = np.empty((m.shape[0] ** 2,) * 2, dtype=complex)
    for rows, row in _circulant(_block_row(m)):
        u[rows] = row
    return u


def diagonal_blocks(m: np.ndarray) -> list[np.ndarray]:
    """Fourier block-diagonalization blocks, U_j = F^dag Z^{-j} M^T.

    Equivalently U_j = sum_k w^{-jk} S_k, the block analogue of circulant
    eigenvalues: one FFT of the first block row over the block index.
    """
    return list(np.fft.fft(_block_row(m), axis=0))


def build_block_naimark(m: np.ndarray) -> NaimarkExtension:
    """Full extension bundle via the block-circulant layout."""
    u = assemble_unitary(m)
    m = np.asarray(m, dtype=complex)
    return NaimarkExtension(d=m.shape[0], M=m, U=u, provenance=PROVENANCE["block"])


def block_constraint_violation(blocks: list[np.ndarray] | tuple[np.ndarray, ...]) -> float:
    """Max violation of the unitarity constraints sum_j S_j^dag S_{j+k} = delta_k0 I.

    The left side is ifft_p(S^_p^dag S^_p) with S^ = fft(S) over the block index.
    """
    sh = np.fft.fft(_stack(blocks), axis=0)
    c = np.fft.ifft(sh.conj().transpose(0, 2, 1) @ sh, axis=0)
    c[0] -= np.eye(c.shape[1])
    return max_abs(c)


def extract_blocks(u: np.ndarray) -> list[np.ndarray]:
    """First block row [S_0 ... S_{d-1}] of a d^2 x d^2 matrix."""
    u = np.asarray(u, dtype=complex)
    n = u.shape[0] if u.ndim else 0
    d = int(round(np.sqrt(n)))
    if u.shape != (n, n) or d * d != n or n == 0:
        raise InvalidInputError(f"expected a d^2 x d^2 matrix, got shape {u.shape}")
    return [u[0:d, t * d : (t + 1) * d] for t in range(d)]


def structure_report(u: np.ndarray, m: np.ndarray | None = None) -> dict:
    """Residuals of every structural property the construction promises.

    Checks unitarity, block-circulance, the rank-one Fourier-column form of
    each block (recovering M from the blocks), the block constraints, and,
    when a completion matrix is supplied, agreement with it.  All entries are
    max-norm residuals; `recovered_m` is the completion matrix implied by U.
    """
    u = np.asarray(u, dtype=complex)
    s = np.array(extract_blocks(u))
    d = len(s)
    if m is not None and np.shape(m) != (d, d):
        raise InvalidInputError(f"completion matrix must be {d} x {d} to match U, got {np.shape(m)}")
    report: dict = {"d": d, "unitarity": unitarity_residual(u)}
    report["block_circulant"] = max(max_abs(u[rows] - row) for rows, row in _circulant(s))
    # Each block must equal |f_q><f_q| S_q; the surviving bra is a row of M^T.
    f = fourier(d)
    m_rec = np.stack([f[q] @ s[q] for q in range(d)], axis=1)
    report["block_rank_one"] = max_abs(s - _block_row(m_rec))
    report["recovered_m"] = m_rec
    report["recovered_m_unitarity"] = unitarity_residual(m_rec)
    report["block_constraints"] = block_constraint_violation(s)
    if m is not None:
        report["m_match"] = max_abs(m_rec - np.asarray(m, dtype=complex))
    return report
