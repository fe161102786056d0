"""Fiducial-state catalog, Weyl-Heisenberg orbits, and POVM property checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CatalogMissError, InvalidDimensionError, InvalidInputError
from .wh import DEFAULT_TOL, PHYSICAL_TOL, _omega_table, max_abs, require_normalized, require_unitary


@dataclass(frozen=True, eq=False)
class Fiducial:
    """A normalized state whose WH orbit defines a covariant measurement."""

    dim: int
    ket: np.ndarray
    label: str = ""

    def __post_init__(self):
        ket = as_ket(self.ket)
        if ket.shape[0] != self.dim:
            raise InvalidInputError(f"ket has length {ket.shape[0]}, expected {self.dim}")
        object.__setattr__(self, "ket", require_normalized(ket, "fiducial"))


@dataclass(frozen=True, eq=False)
class WHFrame:
    """The d^2 orbit vectors D(j,k)|phi>, stored as rows ordered by j*d + k."""

    dim: int
    vectors: np.ndarray

    def elements(self) -> list[np.ndarray]:
        """Measurement operators E(j,k) = (1/d)|phi_jk><phi_jk|."""
        return [np.outer(v, v.conj()) / self.dim for v in self.vectors]


def as_ket(phi: Fiducial | np.ndarray) -> np.ndarray:
    """The ket of a Fiducial, or an array flattened to a complex vector.

    Raises InvalidDimensionError below d = 2 and InvalidInputError on NaN or Inf entries.
    """
    if isinstance(phi, Fiducial):
        return phi.ket
    ket = np.asarray(phi, dtype=complex).reshape(-1)
    if ket.shape[0] < 2:
        raise InvalidDimensionError(f"WH orbits need d >= 2, got {ket.shape[0]}")
    if not np.isfinite(ket).all():
        raise InvalidInputError("ket has non-finite entries (NaN or Inf)")
    return ket


def _qubit_sic() -> tuple[np.ndarray, np.ndarray]:
    """The qubit SIC fiducial and its completion matrix."""
    phi = np.array(
        [np.sqrt(3 + np.sqrt(3)), np.exp(1j * np.pi / 4) * np.sqrt(3 - np.sqrt(3))]
    ) / np.sqrt(6)
    return phi, np.array([[phi[0].conj(), phi[1].conj()], [-phi[1], phi[0]]])


def _ququart_sic() -> tuple[np.ndarray, np.ndarray]:
    # The ququart SIC fiducial and its completion matrix, stored via alpha =
    # sqrt(2 + sqrt 5) and the nested-radical normalization, not as decimal literals.
    alpha = np.sqrt(2 + np.sqrt(5))
    scale = np.sqrt((1 - 1 / np.sqrt(5)) / 8)
    u = np.exp(-1j * np.pi / 4)
    ket = scale * np.array(
        [u + 1, -1j * (alpha * u + 1), u - 1, 1j * (alpha * u - 1)]
    )
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
    return ket, scale * (np.exp(1j * np.pi / 4) * a + b)


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """A cataloged fiducial and, where one is tabulated, its completion matrix (row 0 = bra)."""

    label: str
    ket: np.ndarray
    m: np.ndarray | None = None
    m_label: str | None = None


_HESSE_M = np.array([[0, 1, -1], [np.sqrt(2), 0, 0], [0, 1, 1]], dtype=complex) / np.sqrt(2)

# The catalog, one record per fiducial, keyed by label, in (d, label) order.
CATALOG: dict[str, CatalogEntry] = {
    e.label: e
    for e in (
        CatalogEntry("qubit-sic", *_qubit_sic(), "qubit"),
        CatalogEntry("hesse", np.array([0, 1, -1]) / np.sqrt(2), _HESSE_M, "hesse"),
        CatalogEntry("hesse-partner", np.array([0, 1, 1]) / np.sqrt(2)),
        CatalogEntry("ququart-sic", *_ququart_sic(), "ququart"),
    )
}


def builtin_fiducial(d: int, label: str) -> Fiducial:
    """Look up a cataloged fiducial state by (dimension, label)."""
    entry = CATALOG.get(label)
    if entry is None or len(entry.ket) != d:
        known = ", ".join(f"({len(e.ket)}, {e.label!r})" for e in CATALOG.values())
        raise CatalogMissError(f"no fiducial ({d}, {label!r}); catalog has {known}")
    return Fiducial(dim=d, ket=entry.ket.copy(), label=label)


def catalog_m(label: str) -> np.ndarray:
    """Cataloged completion matrix whose rows are mutually orthogonal fiducials."""
    for e in CATALOG.values():
        if e.m is not None and e.m_label == label:
            return e.m.copy()
    known = tuple(sorted(e.m_label for e in CATALOG.values() if e.m is not None))
    raise CatalogMissError(f"no completion matrix {label!r}; catalog has {known}")


def wh_orbit(phi: Fiducial | np.ndarray) -> WHFrame:
    """All d^2 orbit vectors D(j,k)|phi> in (j, k) order.

    Closed form by index arithmetic: (D(j,k) phi)_m = w^{k(m-j)} phi_{m-j}.
    """
    ket = as_ket(phi)
    d = ket.shape[0]
    ell = (np.arange(d) - np.arange(d)[:, None]) % d  # ell[j, m] = m - j
    vecs = _omega_table(d)[:, ell].transpose(1, 0, 2) * ket[ell][:, None, :]
    return WHFrame(dim=d, vectors=vecs.reshape(d * d, d))


def characteristic(phi: Fiducial | np.ndarray) -> np.ndarray:
    """chi[j, k] = <phi| D(j,k) |phi>, computed as d FFTs of conj(phi_{l+j}) phi_l.

    The frame Gram of the orbit is tr(E_a E_b) = |chi(b - a)|^2 / d^2, a
    convolution over Z_d x Z_d, so chi decides everything the Gram does.
    """
    ket = as_ket(phi)
    return ket.shape[0] * np.fft.ifft(cyclic_shifts(ket).conj() * ket, axis=1)


def cyclic_shifts(v: np.ndarray) -> np.ndarray:
    """The d cyclic shifts of a d-vector as rows: out[j, l] = v[(l + j) mod d]."""
    d = v.shape[0]
    return v[(np.arange(d)[:, None] + np.arange(d)) % d]


def _moyal(table: np.ndarray) -> np.ndarray:
    """out[x, y] = table[y, -x], the map from 2-D DFT indices over Z_d x Z_d to Weyl indices.

    Discrete Moyal identity: D(a) D(c) D(a)^dag = w^{[a,c]} D(c), [a,c] = j_c k_a - k_c j_a.
    Put |phi><phi| = (1/d) sum_c conj(chi(c)) D(c) and rho = (1/d) sum_c r(c) D(c), with
    r(c) = tr(D(c)^dag rho), into p(a) = tr(D(a)|phi><phi|D(a)^dag rho) / d: then
    sum_a w^{[a,c]} p(a) = chi(c) r(c), and at c = (x, y) w^{[a,c]} is the fft2 kernel at
    (y, -x), so _moyal(fft2(p)) = chi * r.  rho = |phi><phi| gives r = conj(chi).
    """
    return table.T[-np.arange(len(table)) % len(table)]


def gram_spectrum(chi: np.ndarray) -> np.ndarray:
    """Eigenvalues of the d^2 x d^2 frame Gram, lam[p, q] = |chi(q, -p)|^2 / d.

    lam is the 2-D DFT of the Gram's kernel |chi|^2 / d^2 (`_moyal`, with |chi(-c)| = |chi(c)|),
    so lam >= 0 exactly, with chi's relative accuracy (an FFT of |chi|^2 errs by eps * lam_max).
    """
    return np.abs(_moyal(chi)) ** 2 / chi.shape[0]


def gram_condition(spectrum: np.ndarray) -> float:
    """Condition number lam_max / lam_min of the frame Gram; inf when lam_min <= 0."""
    lam_min, lam_max = float(spectrum.min()), float(spectrum.max())
    return lam_max / lam_min if lam_min > 0 else math.inf


def gram_rank(spectrum: np.ndarray) -> int:
    """Rank of the frame Gram: the count of lam > tau^2 / d, i.e. of |chi| > tau.

    tau = 16 eps sqrt(d) log2(2d) bounds the rounding of `characteristic`, whose rows
    are FFTs y of v_l = conj(phi_{l+j}) phi_l, ||y||_2 = sqrt(d) ||v||_2 <= sqrt(d).  An FFT
    errs by about 7u log2(n) ||y||_2 (Higham, Accuracy and Stability of Numerical
    Algorithms, section 24.1; u = eps / 2); Bluestein's algorithm for large prime factors
    runs three of length < 4d: 3 * 7u log2(4d) <= 32u log2(2d).  tau(1024) = 1.3e-12.
    """
    d = spectrum.shape[0]
    tau = 16 * np.finfo(float).eps * math.sqrt(d) * math.log2(2 * d)
    return int(np.count_nonzero(spectrum > tau**2 / d))


@dataclass(frozen=True, eq=False)
class ICResult:
    """Outcome of an informational-completeness check.

    IC means Gram rank d^2 and a witness overlap above tol.  The witness is the
    first (j, k) in row-major order whose overlap |<phi| D(j,k) |phi>| lies within
    DEFAULT_TOL of the minimum, so rounding noise cannot move it between indices
    whose overlaps are equal in exact arithmetic (a SIC has d^2 - 1 of them, and
    |chi(a)| = |chi(-a)| always).  Each |chi| <= tau(d) is a zero Gram eigenvalue
    (`gram_rank`), so at tol >= tau(d) + DEFAULT_TOL, the default included, the
    witness clause implies full rank; it also rejects full-rank orbits, which
    `tomography_reconstruct` inverts, whose least overlap is <= tol - DEFAULT_TOL.

    `gram_condition` is reported, not gated: a full-rank Gram can still be
    ill-conditioned, and linear-inversion tomography then loses about that
    factor in precision.
    """

    is_ic: bool
    witness_index: tuple[int, int]
    witness_overlap: float
    gram_rank: int
    gram_condition: float
    overlaps: np.ndarray = field(repr=False)

    def __bool__(self) -> bool:
        return self.is_ic


def is_informationally_complete(phi: Fiducial | np.ndarray, tol: float = PHYSICAL_TOL) -> ICResult:
    """Check whether the WH orbit of phi spans operator space.

    The overlaps are |chi(j, k)|; the Gram rank and condition number come
    from its spectrum, `gram_spectrum`.  IC needs full rank d^2 and a
    witness overlap above tol.
    """
    chi = characteristic(phi)
    d = chi.shape[0]
    overlaps = np.abs(chi)
    flat_arg = int(np.flatnonzero(overlaps <= overlaps.min() + DEFAULT_TOL)[0])
    witness = (flat_arg // d, flat_arg % d)
    lam = gram_spectrum(chi)
    rank = gram_rank(lam)
    return ICResult(
        is_ic=bool(rank == d * d and overlaps[witness] > tol),
        witness_index=witness,
        witness_overlap=float(overlaps[witness]),
        gram_rank=rank,
        gram_condition=gram_condition(lam),
        overlaps=overlaps,
    )


def sic_report(phi: Fiducial | np.ndarray) -> float:
    """Largest deviation of squared orbit overlaps from the simplex values.

    A fiducial generates a SIC exactly when every |<phi_jk|phi_j'k'>|^2 equals
    (d*delta + 1)/(d + 1); the returned number is the max-norm violation.
    Those overlaps are |chi(a)|^2 over the d^2 differences a, so the check
    runs over chi alone.
    """
    chi = characteristic(phi)
    d = chi.shape[0]
    target = np.full((d, d), 1.0 / (d + 1.0))
    target[0, 0] = 1.0
    return max_abs(np.abs(chi) ** 2 - target)


def compound_sic_report(m: np.ndarray, tol: float = PHYSICAL_TOL) -> list[float]:
    """SIC deviation of each row of a unitary, rows conjugated to kets."""
    m = require_unitary(m, tol=tol, what="compound-SIC matrix")
    return [sic_report(m[i].conj()) for i in range(m.shape[0])]
