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

from .errors import CatalogMissError, InvalidInputError, NumericalFailureError
from .fiducials import Fiducial, as_ket, builtin_fiducial
from .wh import DEFAULT_TOL, clock_op, fourier, max_abs, require_unitary


@dataclass(frozen=True, eq=False)
class NaimarkExtension:
    """Bundle of a completion matrix M, the full unitary U, and its blocks."""

    d: int
    M: np.ndarray
    U: np.ndarray
    diag_blocks: tuple[np.ndarray, ...]
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
    ket = as_ket(phi)
    d = ket.shape[0]
    norm = float(np.linalg.norm(ket))
    if not (abs(norm - 1.0) <= 1e-10):
        raise InvalidInputError(f"fiducial must be normalized, got ||ket|| = {norm:.12g}")
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
        if n < 1e-12:
            raise NumericalFailureError("Gram-Schmidt collapse while completing the unitary")
        rows.append(v / n)
    return np.array(rows)


def _catalog_qubit_m() -> np.ndarray:
    phi = builtin_fiducial(2, "qubit-sic").ket
    return np.array([[phi[0].conj(), phi[1].conj()], [-phi[1], phi[0]]])


def _catalog_hesse_m() -> np.ndarray:
    return np.array([[0, 1, -1], [np.sqrt(2), 0, 0], [0, 1, 1]], dtype=complex) / np.sqrt(2)


def _catalog_ququart_m() -> np.ndarray:
    alpha = np.sqrt(2 + np.sqrt(5))
    scale = np.sqrt((1 - 1 / np.sqrt(5)) / 8)
    a = np.array(
        [
            [1, 1j * alpha, 1, -1j * alpha],
            [-1, 1j, -1, -1j],
            [alpha, -1j, alpha, 1j],
            [-1, -1j, -1, 1j],
        ]
    )
    b = np.array(
        [
            [1, 1j, -1, 1j],
            [-alpha, 1j, alpha, 1j],
            [-1, 1j, 1, 1j],
            [1, 1j * alpha, -1, 1j * alpha],
        ]
    )
    return scale * (np.exp(1j * np.pi / 4) * a + b)


_M_BUILDERS = {
    "qubit": _catalog_qubit_m,
    "hesse": _catalog_hesse_m,
    "ququart": _catalog_ququart_m,
}

M_LABELS = tuple(sorted(_M_BUILDERS))

# Fiducial label paired with each cataloged completion matrix (row 0).
M_FIDUCIAL_LABELS = {"qubit": "qubit-sic", "hesse": "hesse", "ququart": "ququart-sic"}


def catalog_m(label: str) -> np.ndarray:
    """Cataloged completion matrix whose rows are mutually orthogonal fiducials."""
    try:
        return _M_BUILDERS[label]()
    except KeyError:
        raise CatalogMissError(f"no completion matrix {label!r}; catalog has {M_LABELS}") from None


def rank_one_block(m: np.ndarray, k: int) -> np.ndarray:
    """Block S_k = |f_k><m_k|: outer product of column k of F^dag and column k of M.

    No unitarity is required here so that constraint violations of invalid
    completions can be measured.
    """
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    if m.shape != (d, d):
        raise InvalidInputError(f"completion matrix must be square, got {m.shape}")
    if not 0 <= k < d:
        raise InvalidInputError(f"block index {k} out of range for d={d}")
    f_dag_col = fourier(d).conj().T[:, k]
    return np.outer(f_dag_col, m[:, k])


def blocks_of(m: np.ndarray) -> list[np.ndarray]:
    return [rank_one_block(m, k) for k in range(np.asarray(m).shape[0])]


def assemble_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Lay the rank-one blocks out block-circulantly into the full unitary."""
    m = require_unitary(m, tol=max(tol, 1e-10), what="completion matrix M")
    d = m.shape[0]
    s = blocks_of(m)
    u = np.zeros((d * d, d * d), dtype=complex)
    for r in range(d):
        for t in range(d):
            u[r * d : (r + 1) * d, t * d : (t + 1) * d] = s[(t - r) % d]
    return u


def diagonal_blocks(m: np.ndarray) -> list[np.ndarray]:
    """Fourier block-diagonalization blocks, U_j = F^dag Z^{-j} M^T.

    Equivalently U_j = sum_k w^{-jk} S_k, the block analogue of circulant
    eigenvalues.
    """
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    f_dag = fourier(d).conj().T
    z = clock_op(d)
    return [f_dag @ np.linalg.matrix_power(z, (d - j) % d) @ m.T for j in range(d)]


def build_block_naimark(m: np.ndarray, tol: float = DEFAULT_TOL) -> NaimarkExtension:
    """Full extension bundle via the block-circulant layout."""
    u = assemble_unitary(m, tol=tol)
    m = np.asarray(m, dtype=complex)
    return NaimarkExtension(
        d=m.shape[0],
        M=m,
        U=u,
        diag_blocks=tuple(diagonal_blocks(m)),
        provenance="block-construction",
    )


def reassemble_from_blocks(blocks: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Undo the block diagonalization: (F^dag x I) diag(U_0..U_{d-1}) (F x I)."""
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    d = len(blocks)
    if d == 0:
        raise InvalidInputError("need at least one block")
    for b in blocks:
        if b.shape != (d, d):
            raise InvalidInputError(f"expected {d} blocks of shape ({d}, {d}), got {b.shape}")
    big = np.zeros((d * d, d * d), dtype=complex)
    for j, b in enumerate(blocks):
        big[j * d : (j + 1) * d, j * d : (j + 1) * d] = b
    f = fourier(d)
    eye = np.eye(d)
    return np.kron(f.conj().T, eye) @ big @ np.kron(f, eye)


def block_constraint_violation(blocks: list[np.ndarray] | tuple[np.ndarray, ...]) -> float:
    """Max violation of the unitarity constraints sum_j S_j^dag S_{j+k} = delta_k0 I."""
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    d = len(blocks)
    n = blocks[0].shape[0]
    worst = 0.0
    for k in range(d):
        acc = np.zeros((n, n), dtype=complex)
        for j in range(d):
            acc += blocks[j].conj().T @ blocks[(j + k) % d]
        target = np.eye(n) if k == 0 else np.zeros((n, n))
        worst = max(worst, max_abs(acc - target))
    return worst


def extract_blocks(u: np.ndarray) -> list[np.ndarray]:
    """First block row [S_0 ... S_{d-1}] of a d^2 x d^2 matrix."""
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    d = int(round(np.sqrt(n)))
    if u.shape != (n, n) or d * d != n:
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
    n = u.shape[0]
    d = int(round(np.sqrt(n)))
    if u.shape != (n, n) or d * d != n:
        raise InvalidInputError(f"expected a square d^2 x d^2 matrix, got shape {u.shape}")
    report: dict = {"d": d}
    report["unitarity"] = max_abs(u.conj().T @ u - np.eye(n))

    s = extract_blocks(u)
    circ = 0.0
    for r in range(d):
        for t in range(d):
            circ = max(circ, max_abs(u[r * d : (r + 1) * d, t * d : (t + 1) * d] - s[(t - r) % d]))
    report["block_circulant"] = circ

    # Each block must equal |f_q><f_q| S_q; the surviving bra is a row of M^T.
    f_dag = fourier(d).conj().T
    m_rec = np.zeros((d, d), dtype=complex)
    rank_one = 0.0
    for q in range(d):
        f_col = f_dag[:, q]
        m_row = f_col.conj() @ s[q]
        rank_one = max(rank_one, max_abs(s[q] - np.outer(f_col, m_row)))
        m_rec[:, q] = m_row
    report["block_rank_one"] = rank_one
    report["recovered_m"] = m_rec
    report["recovered_m_unitarity"] = max_abs(m_rec.conj().T @ m_rec - np.eye(d))
    report["block_constraints"] = block_constraint_violation(s)

    if m is not None:
        m = np.asarray(m, dtype=complex)
        report["m_match"] = max_abs(m_rec - m)
    return report
