"""Fiducial-state catalog, Weyl-Heisenberg orbits, and POVM property checks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CatalogMissError, InvalidDimensionError, InvalidInputError
from .wh import DEFAULT_TOL, PHYSICAL_TOL, _phases, max_abs, require_unitary


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
        norm = float(np.linalg.norm(ket))
        if not (abs(norm - 1.0) <= PHYSICAL_TOL):
            raise InvalidInputError(f"fiducial must be normalized, got ||ket|| = {norm:.12g}")
        object.__setattr__(self, "ket", ket)


@dataclass(frozen=True, eq=False)
class WHFrame:
    """The d^2 orbit vectors D(j,k)|phi>, stored as rows ordered by j*d + k."""

    dim: int
    vectors: np.ndarray

    def gram(self) -> np.ndarray:
        return self.vectors.conj() @ self.vectors.T

    def resolution_residual(self) -> float:
        """Max-norm distance of (1/d) sum |phi_jk><phi_jk| from the identity."""
        acc = (self.vectors.T @ self.vectors.conj()) / self.dim
        return max_abs(acc - np.eye(self.dim))

    def elements(self) -> list[np.ndarray]:
        """Measurement operators E(j,k) = (1/d)|phi_jk><phi_jk|."""
        return [np.outer(v, v.conj()) / self.dim for v in self.vectors]


def as_ket(phi: Fiducial | np.ndarray) -> np.ndarray:
    """The ket of a Fiducial, or an array flattened to a complex vector.

    Raises InvalidInputError on NaN or Inf entries.
    """
    if isinstance(phi, Fiducial):
        return phi.ket
    ket = np.asarray(phi, dtype=complex).reshape(-1)
    if not np.isfinite(ket).all():
        raise InvalidInputError("ket has non-finite entries (NaN or Inf)")
    return ket


def _orbit_ket(phi: Fiducial | np.ndarray) -> np.ndarray:
    ket = as_ket(phi)
    if ket.shape[0] < 2:
        raise InvalidDimensionError(f"WH orbits need d >= 2, got {ket.shape[0]}")
    return ket


def _qubit_sic_ket() -> np.ndarray:
    return np.array(
        [np.sqrt(3 + np.sqrt(3)), np.exp(1j * np.pi / 4) * np.sqrt(3 - np.sqrt(3))]
    ) / np.sqrt(6)


def _ququart_sic_ket() -> np.ndarray:
    # Stored via alpha = sqrt(2 + sqrt 5) and the nested-radical normalization,
    # not as decimal literals.
    alpha = np.sqrt(2 + np.sqrt(5))
    scale = np.sqrt((1 - 1 / np.sqrt(5)) / 8)
    u = np.exp(-1j * np.pi / 4)
    return scale * np.array(
        [u + 1, -1j * (alpha * u + 1), u - 1, 1j * (alpha * u - 1)]
    )


_CATALOG: dict[tuple[int, str], np.ndarray] = {
    (2, "qubit-sic"): _qubit_sic_ket(),
    (3, "hesse"): np.array([0, 1, -1]) / np.sqrt(2),
    (3, "hesse-partner"): np.array([0, 1, 1]) / np.sqrt(2),
    (4, "ququart-sic"): _ququart_sic_ket(),
}

FIDUCIAL_LABELS = tuple(sorted(label for (_, label) in _CATALOG))


def builtin_fiducial(d: int, label: str) -> Fiducial:
    """Look up a cataloged fiducial state by (dimension, label)."""
    try:
        ket = _CATALOG[(d, label)]
    except KeyError:
        known = ", ".join(f"({dd}, {lb!r})" for dd, lb in sorted(_CATALOG))
        raise CatalogMissError(f"no fiducial ({d}, {label!r}); catalog has {known}") from None
    return Fiducial(dim=d, ket=ket.copy(), label=label)


def wh_orbit(phi: Fiducial | np.ndarray) -> WHFrame:
    """All d^2 orbit vectors D(j,k)|phi> in (j, k) order.

    Closed form by index arithmetic: (D(j,k) phi)_m = w^{k(m-j)} phi_{m-j}.
    """
    ket = _orbit_ket(phi)
    d = ket.shape[0]
    ell = (np.arange(d) - np.arange(d)[:, None]) % d  # ell[j, m] = m - j
    phases = _phases(np.outer(np.arange(d), np.arange(d)), d)  # phases[k, l] = w^{kl}
    vecs = phases[:, ell].transpose(1, 0, 2) * ket[ell][:, None, :]
    return WHFrame(dim=d, vectors=vecs.reshape(d * d, d))


def characteristic(phi: Fiducial | np.ndarray) -> np.ndarray:
    """chi[j, k] = <phi| D(j,k) |phi>, computed as d FFTs of conj(phi_{l+j}) phi_l.

    The frame Gram of the orbit is tr(E_a E_b) = |chi(b - a)|^2 / d^2, a
    convolution over Z_d x Z_d, so chi decides everything the Gram does.
    """
    ket = _orbit_ket(phi)
    d = ket.shape[0]
    shifted = ket[(np.arange(d)[:, None] + np.arange(d)) % d]  # shifted[j, l] = phi_{l+j}
    return d * np.fft.ifft(shifted.conj() * ket, axis=1)


def gram_spectrum(chi: np.ndarray) -> np.ndarray:
    """Eigenvalues of the d^2 x d^2 frame Gram, as the 2-D DFT of |chi|^2 / d^2.

    Entry [p, q] is the eigenvalue of the Fourier mode (p, q); the Gram is
    real symmetric, so the imaginary part is rounding and is dropped.
    """
    d = chi.shape[0]
    return np.fft.fft2(np.abs(chi) ** 2 / d**2).real


def gram_rank(spectrum: np.ndarray) -> int:
    """Rank of the frame Gram by np.linalg.matrix_rank's rule, tol = lam_max * d^2 * eps."""
    mags = np.abs(spectrum)
    tol = mags.max() * mags.size * np.finfo(float).eps
    return int(np.count_nonzero(mags > tol))


@dataclass(frozen=True)
class ICResult:
    """Outcome of an informational-completeness check.

    The Gram-rank criterion is authoritative.  The witness is the first
    (j, k) in row-major order whose overlap |<phi| D(j,k) |phi>| lies within
    DEFAULT_TOL of the minimum overlap, so rounding noise cannot move it
    between indices whose overlaps are equal in exact arithmetic (a SIC has
    d^2 - 1 of them, and |chi(a)| = |chi(-a)| always).
    """

    is_ic: bool
    witness_index: tuple[int, int]
    witness_overlap: float
    gram_rank: int
    overlaps: np.ndarray = field(repr=False)

    def __bool__(self) -> bool:
        return self.is_ic


def is_informationally_complete(phi: Fiducial | np.ndarray, tol: float = PHYSICAL_TOL) -> ICResult:
    """Check whether the WH orbit of phi spans operator space.

    The overlaps are |chi(j, k)|; the Gram rank comes from its spectrum, the
    2-D DFT of |chi|^2 / d^2.  IC needs full rank d^2 and a witness overlap
    above tol.
    """
    chi = characteristic(phi)
    d = chi.shape[0]
    overlaps = np.abs(chi)
    flat_arg = int(np.flatnonzero(overlaps <= overlaps.min() + DEFAULT_TOL)[0])
    witness = (flat_arg // d, flat_arg % d)
    rank = gram_rank(gram_spectrum(chi))
    return ICResult(
        is_ic=bool(rank == d * d and overlaps[witness] > tol),
        witness_index=witness,
        witness_overlap=float(overlaps[witness]),
        gram_rank=rank,
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


def compound_sic_report(m: np.ndarray, tol: float = DEFAULT_TOL) -> list[float]:
    """SIC deviation of each row of a unitary, rows conjugated to kets."""
    m = require_unitary(m, tol=max(tol, PHYSICAL_TOL), what="compound-SIC matrix")
    return [sic_report(m[i].conj()) for i in range(m.shape[0])]
