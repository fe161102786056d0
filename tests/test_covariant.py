"""The covariant FFT core of the WH frame against the dense d^2 x d^2 oracles.

Property tests draw d in 2..12 with Haar-random fiducials, plus fiducials
with zeroed components and basis states so that rank-deficient frames are
covered; fixed cases at d = 16 and d = 32 follow.  The oracles live in
util.py.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naimark
from naimark import (
    OutcomeDistribution,
    RankDeficientFrameError,
    WHFrame,
    builtin_fiducial,
    direct_probabilities,
    is_informationally_complete,
    sic_report,
    tomography_reconstruct,
    wh_orbit,
)
from naimark.fiducials import characteristic, gram_rank, gram_spectrum
from naimark.wh import max_abs

from util import (
    dense_elements,
    dense_frame_gram,
    dense_orbit,
    dense_overlaps,
    dense_sic_report,
    dense_tomography,
    rand_density,
    rand_ket,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def haar_fiducials(draw):
    d = draw(st.integers(2, 12))
    return rand_ket(d, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@st.composite
def fiducials(draw):
    """Haar kets, Haar kets with some entries zeroed, and basis states."""
    d = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("haar", "support", "basis")))
    if kind == "basis":
        ket = np.zeros(d, dtype=complex)
        ket[rng.integers(d)] = 1.0
        return ket
    ket = rand_ket(d, rng)
    if kind == "support":
        ket[rng.random(d) < 0.5] = 0.0
        ket[rng.integers(d)] = 1.0
        ket /= np.linalg.norm(ket)
    return ket


def relative(a, b):
    return abs(a - b) / abs(b)


def conditioned(tol, cond):
    """tol, widened for ill-conditioned frames.

    Solve and deconvolution both err by about eps * cond (measured: the two
    differ by at most 0.5 eps*cond in rho and 3 eps*cond in the condition
    number over 3000 Haar draws), so no fixed tolerance holds for all frames.
    """
    return max(tol, 16 * np.finfo(float).eps * cond)


@PROPERTY
@given(fiducials())
def test_orbit_matches_displacement_loop(phi):
    assert max_abs(wh_orbit(phi).vectors - dense_orbit(phi)) < 1e-15


@PROPERTY
@given(fiducials())
def test_overlaps_match_dense(phi):
    assert max_abs(np.abs(characteristic(phi)) - dense_overlaps(phi)) < 1e-15


@PROPERTY
@given(fiducials())
def test_spectrum_and_rank_match_dense_gram(phi):
    gram = dense_frame_gram(phi)
    lam = gram_spectrum(characteristic(phi))
    assert max_abs(np.sort(lam.ravel()) - np.linalg.eigvalsh(gram)) < 1e-12
    assert gram_rank(lam) == np.linalg.matrix_rank(gram)
    assert is_informationally_complete(phi).gram_rank == np.linalg.matrix_rank(gram)


@PROPERTY
@given(fiducials())
def test_sic_report_matches_dense(phi):
    assert abs(sic_report(phi) - dense_sic_report(phi)) < 1e-12


@PROPERTY
@given(haar_fiducials(), st.integers(0, 2**32 - 1))
def test_tomography_matches_dense_solve(phi, seed):
    d = phi.shape[0]
    rho = rand_density(d, np.random.default_rng(seed))
    probs = np.einsum("mn,anm->a", rho, dense_elements(phi)).real
    rec = tomography_reconstruct(phi, OutcomeDistribution(d, probs))
    want, cond = dense_tomography(phi, probs)
    assert max_abs(rec.matrix - want) < conditioned(1e-10, cond)
    assert relative(rec.gram_condition, cond) < conditioned(1e-9, cond)


@PROPERTY
@given(fiducials())
def test_gram_condition_matches_dense_gram_and_tomography(phi):
    d = phi.shape[0]
    ic = is_informationally_complete(phi)
    eigs = np.linalg.eigvalsh(dense_frame_gram(phi))
    if ic.gram_rank < d * d:
        # Some |lam| is within lam_max * d^2 * eps of zero.
        assert ic.gram_condition >= 1 / (d**2 * np.finfo(float).eps)
        return
    cond = eigs[-1] / eigs[0]
    assert relative(ic.gram_condition, cond) < conditioned(1e-9, cond)
    rec = tomography_reconstruct(phi, OutcomeDistribution(d, np.full(d * d, 1.0 / d**2)))
    assert rec.gram_condition == ic.gram_condition


@pytest.mark.parametrize("d", [2, 3, 5])
def test_basis_state_gram_condition_is_infinite(d):
    assert is_informationally_complete(np.eye(d)[d - 1]).gram_condition == np.inf


@PROPERTY
@given(fiducials())
def test_rank_deficient_frames_rejected_with_dense_rank(phi):
    d = phi.shape[0]
    rank = np.linalg.matrix_rank(dense_frame_gram(phi))
    dist = OutcomeDistribution(d, np.full(d * d, 1.0 / d**2))
    if rank == d * d:
        tomography_reconstruct(phi, dist)
    else:
        with pytest.raises(RankDeficientFrameError, match=f"rank {rank} < {d * d}"):
            tomography_reconstruct(phi, dist)


@pytest.fixture(scope="module", params=[16, 32])
def big_case(request):
    d = request.param
    phi = rand_ket(d, np.random.default_rng(1600 + d))
    gram = dense_frame_gram(phi)
    return phi, gram


def test_big_orbit_overlaps_and_sic_report(big_case):
    phi, _ = big_case
    assert max_abs(wh_orbit(phi).vectors - dense_orbit(phi)) < 1e-15
    assert max_abs(np.abs(characteristic(phi)) - dense_overlaps(phi)) < 1e-15
    assert abs(sic_report(phi) - dense_sic_report(phi)) < 1e-12


def test_big_spectrum_and_rank(big_case):
    phi, gram = big_case
    lam = gram_spectrum(characteristic(phi))
    assert max_abs(np.sort(lam.ravel()) - np.linalg.eigvalsh(gram)) < 1e-12
    assert gram_rank(lam) == np.linalg.matrix_rank(gram) == phi.shape[0] ** 2


def test_big_tomography(big_case):
    phi, gram = big_case
    d = phi.shape[0]
    psi = rand_ket(d, np.random.default_rng(3200 + d))
    dist = direct_probabilities(phi, psi)
    rec = tomography_reconstruct(phi, dist)
    want, cond = dense_tomography(phi, dist.probs, gram)
    assert max_abs(rec.matrix - want) < 1e-10
    assert relative(rec.gram_condition, cond) < 1e-9
    assert max_abs(rec.matrix - np.outer(psi, psi.conj())) < 1e-8


@pytest.mark.parametrize("label,d", [("qubit-sic", 2), ("hesse", 3), ("ququart-sic", 4)])
def test_sic_witness_is_first_index_of_the_tied_minimum(label, d):
    res = is_informationally_complete(builtin_fiducial(d, label))
    assert res.witness_index == (0, 1)
    assert res.witness_overlap == pytest.approx(1 / np.sqrt(d + 1), abs=1e-12)


def test_no_dense_fallback_at_d64(monkeypatch):
    """The IC check, SIC report, tomography and the Born oracle never touch dense d^2 algebra."""
    d = 64

    def forbidden(*args, **kwargs):
        raise AssertionError("dense fallback called")

    for name in ("matrix_rank", "solve", "svd", "lstsq", "pinv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    eigvalsh = np.linalg.eigvalsh

    def small_eigvalsh(a, *args, **kwargs):
        if np.shape(a)[-1] > d:
            raise AssertionError(f"eigvalsh on a {np.shape(a)} matrix")
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", small_eigvalsh)
    monkeypatch.setattr(WHFrame, "elements", forbidden)
    original = naimark.wh.displacement
    for name, module in list(sys.modules.items()):
        if name.startswith("naimark") and getattr(module, "displacement", None) is original:
            monkeypatch.setattr(module, "displacement", forbidden)

    rng = np.random.default_rng(6400)
    phi, psi = rand_ket(d, rng), rand_ket(d, rng)
    res = is_informationally_complete(phi)
    assert res and res.gram_rank == d * d
    assert 0 < sic_report(phi) < 1
    rec = tomography_reconstruct(phi, direct_probabilities(phi, psi))
    assert max_abs(rec.matrix - np.outer(psi, psi.conj())) < 1e-8
