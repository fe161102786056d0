"""Block-circulant Naimark extension built from a d x d completion matrix.

The d^2 x d^2 interaction unitary is assembled from d rank-one blocks

    S_k = |f_k><m_k|,   |f_k> = F^dag |k>,   <m_k| = row k of M^T,

laid out block-circulantly: block (r, t) is S_{(t - r) mod d}, so U = (I x F^dag) P (I x M^T)
with P the controlled shift, written by wh._layout as P and B are.  M is any unitary whose
first row is the conjugated fiducial, so the normalization 1/sqrt(d) lives
inside the Fourier column and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .fiducials import Fiducial, as_ket
from .wh import PHYSICAL_TOL, _blocks, _circulant, _layout, fourier, max_abs
from .wh import require_normalized, require_unitary, unitarity_residual


@dataclass(frozen=True, eq=False)
class NaimarkExtension:
    """Bundle of a completion matrix M and the full unitary U it defines."""

    d: int
    M: np.ndarray
    U: np.ndarray


def complete_unitary(phi: Fiducial | np.ndarray) -> np.ndarray:
    """Deterministically extend a fiducial bra to a full unitary matrix.

    Row 0 is the conjugated fiducial.  The rest is Q of the QR factorization
    of [conj(phi), standard basis without the vector of largest overlap], with
    R's diagonal made positive: the rows Gram-Schmidt gives in index order.
    """
    ket = require_normalized(as_ket(phi), "fiducial")
    d = ket.shape[0]
    drop = int(np.argmax(np.abs(ket)))
    q, r = np.linalg.qr(np.column_stack([ket.conj(), np.delete(np.eye(d), drop, axis=1)]))
    r_diag = np.diag(r)
    m = (q * (r_diag / np.abs(r_diag))).T
    m[0] = ket.conj()
    return m


def _block_row(m: np.ndarray) -> np.ndarray:
    """All blocks as one (d, d, d) array, S[q, s, u] = conj(F)[q, s] M[u, q]."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"completion matrix must be square, got {m.shape}")
    return _blocks(fourier(m.shape[0]).conj().T, m.T)


def diagonal_blocks(m: np.ndarray) -> list[np.ndarray]:
    """Fourier block-diagonalization blocks, U_j = F^dag Z^{-j} M^T.

    Equivalently U_j = sum_k w^{-jk} S_k, the block analogue of circulant
    eigenvalues: one FFT of the first block row over the block index.
    """
    return list(np.fft.fft(_block_row(m), axis=0))


def build_block_naimark(m: np.ndarray) -> NaimarkExtension:
    """Full extension bundle: the rank-one blocks laid out block-circulantly."""
    m = require_unitary(m, PHYSICAL_TOL, "completion matrix M")
    return NaimarkExtension(d=m.shape[0], M=m, U=_layout(fourier(m.shape[0]).conj().T, m.T))


def structure_report(u: np.ndarray, m: np.ndarray | None = None) -> dict:
    """Residuals of every structural property the construction promises.

    Checks unitarity, block-circulance, the rank-one Fourier-column form of
    each block (recovering M from the blocks), the block constraints, and,
    when a completion matrix is supplied, agreement with it.  All entries are
    max-norm residuals; `recovered_m` is the completion matrix implied by U.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0] if u.ndim else 0
    d = int(round(np.sqrt(n)))
    if u.shape != (n, n) or d * d != n or n == 0:
        raise InvalidInputError(f"expected a d^2 x d^2 matrix, got shape {u.shape}")
    if m is not None and np.shape(m) != (d, d):
        raise InvalidInputError(f"completion matrix must be {d} x {d} to match U, got {np.shape(m)}")
    s = u[:d].reshape(d, d, d).transpose(1, 0, 2)  # the first block row, s[t] = block (0, t)
    report: dict = {"d": d, "unitarity": unitarity_residual(u)}
    report["block_circulant"] = max(max_abs(u[index] - part) for index, part in _circulant(s))
    # Each block must equal |f_q><f_q| S_q; the surviving bra is a row of M^T.
    f = fourier(d)
    m_rec = np.stack([f[q] @ s[q] for q in range(d)], axis=1)
    report["block_rank_one"] = max_abs(s - _block_row(m_rec))
    report["recovered_m"] = m_rec
    report["recovered_m_unitarity"] = unitarity_residual(m_rec)
    # The constraints sum_j S_j^dag S_{j+k} = delta_k0 I are ifft_p(S^_p^dag S^_p), S^ = fft(S).
    sh = np.fft.fft(s, axis=0)
    c = np.fft.ifft(sh.conj().transpose(0, 2, 1) @ sh, axis=0)
    c[0] -= np.eye(d)
    report["block_constraints"] = max_abs(c)
    if m is not None:
        report["m_match"] = max_abs(m_rec - np.asarray(m, dtype=complex))
    return report
