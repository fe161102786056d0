"""Admitting a fiducial from d x d data, against the orbit and loop forms.

The Gram spectrum read off chi, tomography by the Moyal identity, the QR
completion and the slice-copy layout are checked against the 2-D FFT, states
built as orbit frame sums, the Gram-Schmidt loop and the block-row rolls in
util.py.  The rank rule is checked on kets whose chi has exact zeros and on
a fiducial whose chi has one entry of 1e-7.  Guards show that tomography reads
the fiducial through one `characteristic` call, and that tomography and the
completion never build the orbit.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import naimark
from naimark import (
    OutcomeDistribution,
    RankDeficientFrameError,
    build_block_naimark,
    complete_unitary,
    direct_probabilities,
    is_informationally_complete,
    measure_probabilities,
    tomography_reconstruct,
)
from naimark.fiducials import characteristic, gram_rank, gram_spectrum
from naimark.wh import max_abs

from util import (
    dense_elements,
    fft2_gram_spectrum,
    gram_schmidt_completion,
    loop_blocks,
    orbit_frame_sum,
    rand_ket,
    rand_unitary,
    roll_layout,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def kets(draw, max_d):
    """Haar kets, and Haar kets with some entries zeroed, for d in [2, max_d]."""
    d = draw(st.integers(2, max_d))
    rng = np.random.default_rng(draw(seeds))
    ket = rand_ket(d, rng)
    if draw(st.booleans()):
        ket[rng.random(d) < 0.5] = 0.0
        ket[rng.integers(d)] = 1.0
        ket /= np.linalg.norm(ket)
    return ket


@PROPERTY
@given(kets(64))
def test_completion_matches_gram_schmidt(ket):
    m = complete_unitary(ket)
    assert max_abs(m - gram_schmidt_completion(ket)) < 1e-13
    assert np.array_equal(m[0], ket.conj())
    assert np.array_equal(complete_unitary(ket), m)


@PROPERTY
@given(kets(24), seeds)
def test_tomography_returns_a_frame_sum_state(ket, seed):
    """rho = sum_a x_a E(a) with x >= 0 and sum x = d is a state; tomography of its
    law gives rho back when the frame is IC, and RankDeficientFrameError when not."""
    d = ket.shape[0]
    x = np.random.default_rng(seed).random((d, d))
    rho = orbit_frame_sum(ket, x * (d / x.sum()))
    dist = OutcomeDistribution(d, np.einsum("mn,anm->a", rho, dense_elements(ket)).real)
    if gram_rank(gram_spectrum(characteristic(ket))) < d * d:
        with pytest.raises(RankDeficientFrameError):
            tomography_reconstruct(ket, dist)
        return
    rec = tomography_reconstruct(ket, dist)
    assert max_abs(rec.matrix - rho) < max(1e-12, 16 * np.finfo(float).eps * rec.gram_condition)


@PROPERTY
@given(kets(32))
def test_gram_spectrum_matches_fft2(ket):
    d = ket.shape[0]
    lam = gram_spectrum(characteristic(ket))
    assert lam.min() >= 0
    assert max_abs(lam - fft2_gram_spectrum(characteristic(ket))) < 1e-15 * d


@PROPERTY
@given(st.integers(2, 24), seeds)
def test_layout_matches_block_row_rolls(d, seed):
    m = rand_unitary(d, np.random.default_rng(seed))
    assert np.array_equal(build_block_naimark(m).U, roll_layout(loop_blocks(m)))


def two_spike_rank(d, s):
    """Nonzero count of chi for (e_0 + e_s) / sqrt(2), in integer arithmetic.

    chi(0, k) = (1 + w^{ks}) / 2 vanishes where ks = d/2 mod d; rows s and -s
    hold one product each, unless s = d/2 makes them one row with chi(0, .)'s zeros.
    """
    row0 = d - sum(1 for k in range(d) if 2 * (k * s % d) == d)
    return row0 + (row0 if 2 * s == d else 2 * d)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 1024), seeds)
@example(2, 0)
@example(1024, 0)
def test_exact_zeros_of_chi_stay_below_the_rank_cut(d, seed):
    rng = np.random.default_rng(seed)
    ell = np.arange(d)
    # Exponents reduced before exponentiating, so the zeros of chi are exact.
    chirp = np.exp(2j * np.pi * (ell**2 % d) / d if d % 2 else 1j * np.pi * (ell**2 % (2 * d)) / d)
    s = int(rng.integers(1, d))
    spikes = np.zeros(d)
    spikes[[0, s]] = 1
    cases = [
        (chirp / np.sqrt(d), d),
        (np.full(d, 1 / np.sqrt(d)), d),
        (np.eye(d)[rng.integers(d)], d),
        (spikes / np.sqrt(2), two_spike_rank(d, s)),
    ]
    for ket, rank in cases:
        assert gram_rank(gram_spectrum(characteristic(ket))) == rank


def near_singular_fiducial(d=32, chi_min=1e-7, seed=0):
    """A Haar ket whose second half is rotated until chi(d/2, 0) = 2 Re<b|a> = chi_min."""
    ket = rand_ket(d, np.random.default_rng(seed))
    a, b = ket[: d // 2], ket[d // 2 :]
    z = np.vdot(b, a)
    theta = np.angle(z) - np.arccos(chi_min / (2 * abs(z)))
    return np.concatenate([a, b * np.exp(1j * theta)])


def test_near_singular_fiducial_is_ic_and_inverts():
    d = 32
    ket = near_singular_fiducial(d)
    overlaps = np.abs(characteristic(ket))
    assert overlaps.min() == pytest.approx(1e-7, rel=1e-6)
    res = is_informationally_complete(ket)
    assert res and res.gram_rank == d * d
    m = complete_unitary(ket)
    rng = np.random.default_rng(1)
    for _ in range(3):
        psi = rand_ket(d, rng)
        rho = tomography_reconstruct(ket, measure_probabilities(m, psi))
        assert max_abs(rho.matrix - np.outer(psi, psi.conj())) < 1e-8


def test_no_orbit_and_no_fft_for_the_spectrum_at_d64(monkeypatch):
    """Tomography and the completion run without wh_orbit; the Born oracle still uses it."""
    d = 64

    def forbidden(*args, **kwargs):
        raise AssertionError("orbit built")

    for name, module in list(sys.modules.items()):
        if name.startswith("naimark") and hasattr(module, "wh_orbit"):
            monkeypatch.setattr(module, "wh_orbit", forbidden)
    rng = np.random.default_rng(6401)
    phi, psi = rand_ket(d, rng), rand_ket(d, rng)
    m = complete_unitary(phi)
    rho = tomography_reconstruct(phi, measure_probabilities(m, psi))
    assert max_abs(rho.matrix - np.outer(psi, psi.conj())) < 1e-8
    with pytest.raises(AssertionError, match="orbit built"):
        direct_probabilities(phi, psi)

    chi = characteristic(phi)
    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, forbidden)
    assert gram_rank(gram_spectrum(chi)) == d * d


def test_tomography_reads_the_fiducial_through_one_characteristic_call(monkeypatch):
    d = 16
    rng = np.random.default_rng(1601)
    phi, psi = rand_ket(d, rng), rand_ket(d, rng)
    dist = measure_probabilities(complete_unitary(phi), psi)
    calls = []

    def counted(ket):
        calls.append(ket)
        return characteristic(ket)

    def forbidden(*args, **kwargs):
        raise AssertionError("orbit built")

    monkeypatch.setattr(naimark.simulate, "characteristic", counted)
    for name, module in list(sys.modules.items()):
        if name.startswith("naimark") and hasattr(module, "wh_orbit"):
            monkeypatch.setattr(module, "wh_orbit", forbidden)
    rec = tomography_reconstruct(phi, dist)
    assert len(calls) == 1
    assert max_abs(rec.matrix - np.outer(psi, psi.conj())) < 1e-12
