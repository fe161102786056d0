"""Seeded inputs, independent oracles and failure accounting for the benchmark.

The oracles use plain NumPy and the closed forms of the construction, never
naimark's own code paths, so a wrong answer from the library cannot agree
with its own check.  Every comparison is written as ``not (residual <= tol)``
so that a NaN residual counts as a failure.
"""

from __future__ import annotations

import json

import numpy as np

# Entrywise tolerance for unitaries and probabilities.  The construction is
# exact up to rounding, so errors above this are defects, not noise.
TOL = 1e-10
# Linear-inversion tomography amplifies rounding by the frame Gram condition
# number (about 1e4 to 1e5 for Haar fiducials at d = 32).
TOL_RHO = 1e-8


def haar_ket(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary from the QR of a complex Gaussian matrix."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def ket_json(v: np.ndarray) -> str:
    """A ket as the CLI's ``[[re, im], ...]`` JSON; float repr keeps it exact."""
    return json.dumps([[float(x.real), float(x.imag)] for x in v])


def matrix_from_obj(obj: dict) -> np.ndarray:
    """Decode a ``{"re", "im"}`` matrix object without going through naimark.io."""
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def closed_form_u(m: np.ndarray) -> np.ndarray:
    """<r,s|U|t,u> = d^{-1/2} w^{-s(t-r)} M[u, (t-r) mod d], all entries at once."""
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    r, s, t, u = np.ix_(*(np.arange(d),) * 4)
    q = (t - r) % d
    phase = np.exp(-2j * np.pi * ((s * q) % d) / d)
    return (phase * m[u, q] / np.sqrt(d)).reshape(d * d, d * d)


def outcome_probs(phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Born rule P(j,k) = |<phi|D(j,k)^dag|psi>|^2 / d via one FFT per shift j."""
    d = phi.shape[0]
    shifted = np.stack([np.roll(psi, -j) for j in range(d)])  # row j: psi_{l+j}
    amps = np.fft.fft(phi.conj()[None, :] * shifted, axis=1)
    return (np.abs(amps) ** 2 / d).reshape(-1)


def sic_deviation(phi: np.ndarray) -> float:
    """Max-norm distance of the orbit's squared overlaps from (d*delta + 1)/(d + 1).

    |<phi_a|phi_b>|^2 depends only on the displacement b - a, so the d^2
    values d*P(j,k) of ``outcome_probs(phi, phi)`` cover the whole d^2 x d^2
    matrix of squared overlaps.
    """
    d = phi.shape[0]
    target = np.full(d * d, 1.0 / (d + 1))
    target[0] = 1.0
    return max_dev(d * outcome_probs(phi, phi), target)


def max_dev(a, b) -> float:
    """Max-norm distance; NaN anywhere makes it NaN."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def check(failures: list[str], what: str, residual: float, tol: float) -> None:
    """Record a failure unless residual <= tol; a NaN residual fails."""
    if not (residual <= tol):
        failures.append(f"{what}: residual {residual!r} > {tol:g}")


def check_sic(failures: list[str], what: str, reported, phi: np.ndarray) -> None:
    """A reported SIC deviation must match the oracle's for the same ket."""
    check(failures, what, abs(float(reported) - sic_deviation(phi)), TOL)


def unitary_failures(phi: np.ndarray, m: np.ndarray, u: np.ndarray) -> list[str]:
    """M must be unitary with conj(phi) as row 0, and U the closed form of M."""
    failures: list[str] = []
    check(failures, "M row 0 vs conj(fiducial)", max_dev(m[0], phi.conj()), TOL)
    check(failures, "M unitarity", max_dev(m.conj().T @ m, np.eye(m.shape[0])), TOL)
    check(failures, "U vs closed form", max_dev(u, closed_form_u(m)), TOL)
    return failures


class Tally:
    """Operations attempted and failed; an operation fails on any bad check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures[:3])

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
