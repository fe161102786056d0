"""Relations from Weyl-Heisenberg covariance, checked without a dense or orbit oracle.

D(a,b)^dag D(j,k) is a phase times D(j-a, k-b).  So displacing the input state
rolls the outcome law by (a, b), from the kernel and from the Born oracle alike, and
tomography of the rolled law must be the displaced reconstruction; displacing the
fiducial only multiplies chi by phases, so the frame Gram's spectrum and rank, the
SIC deviation and the IC verdict must not move.  The qubit gate circuit's law
rolls with a displaced state as the kernel's does.  Each test runs every
(a, b) for its d.  The displacement is the index loop `loop_displacement` in
util.py, not the library's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naimark import (
    OutcomeDistribution,
    apply_circuit,
    complete_unitary,
    direct_probabilities,
    embed,
    full_naimark_circuit,
    is_informationally_complete,
    measure_probabilities,
    sic_report,
    tomography_reconstruct,
)
from naimark.fiducials import characteristic, gram_rank, gram_spectrum
from naimark.wh import max_abs

from util import loop_displacement, rand_ket, rand_unitary

EPS = np.finfo(float).eps
COVARIANCE = settings(max_examples=20, deadline=None, derandomize=True)
dims = st.integers(2, 24)
seeds = st.integers(0, 2**32 - 1)


def chi_rounding(d):
    """tau(d), `gram_rank`'s bound on the rounding of each computed chi(j, k)."""
    return 16 * EPS * np.sqrt(d) * np.log2(2 * d)


@COVARIANCE
@given(dims, seeds)
def test_tomography_of_the_rolled_law_is_the_displaced_state(d, seed):
    rng = np.random.default_rng(seed)
    phi, psi = rand_ket(d, rng), rand_ket(d, rng)
    p = measure_probabilities(complete_unitary(phi), psi).probs.reshape(d, d)
    rho = tomography_reconstruct(phi, OutcomeDistribution(d, p))
    tol = max(1e-12, 16 * EPS * rho.gram_condition)
    for a in range(d):
        for b in range(d):
            shift = loop_displacement(d, a, b)
            rolled = OutcomeDistribution(d, np.roll(p, (a, b), axis=(0, 1)))
            got = tomography_reconstruct(phi, rolled).matrix
            assert max_abs(got - shift @ rho.matrix @ shift.conj().T) < tol


@COVARIANCE
@given(dims, seeds)
def test_gram_spectrum_and_rank_ignore_a_displaced_fiducial(d, seed):
    """Each computed |chi| is within tau of the exact one (`gram_rank`), and the exact
    |chi| do not move, so lam = |chi|^2 / d moves by at most 4 tau (1 + tau) / d."""
    phi = rand_ket(d, np.random.default_rng(seed))
    lam = gram_spectrum(characteristic(phi))
    tau = chi_rounding(d)
    for a in range(d):
        for b in range(d):
            moved = gram_spectrum(characteristic(loop_displacement(d, a, b) @ phi))
            assert max_abs(moved - lam) <= 5 * tau / d
            assert gram_rank(moved) == gram_rank(lam)


@COVARIANCE
@given(dims, seeds)
def test_kernel_and_oracle_laws_roll_with_a_displaced_state(d, seed):
    """|<phi| D(j,k)^dag D(a,b) |psi>|^2 = P(j - a, k - b).  Both laws are sums of d
    unit-bounded products (FFT or matvec), each entry within tau(d) of the exact one."""
    rng = np.random.default_rng(seed)
    phi, psi = rand_ket(d, rng), rand_ket(d, rng)
    m = complete_unitary(phi)
    laws = ((measure_probabilities, m), (direct_probabilities, phi))
    bases = [law(arg, psi).probs.reshape(d, d) for law, arg in laws]
    for a in range(d):
        for b in range(d):
            moved = loop_displacement(d, a, b) @ psi
            for (law, arg), base in zip(laws, bases):
                got = law(arg, moved).probs.reshape(d, d)
                assert max_abs(got - np.roll(base, (a, b), axis=(0, 1))) <= 2 * chi_rounding(d)


@COVARIANCE
@given(dims, seeds)
def test_sic_report_and_ic_verdict_ignore_a_displaced_fiducial(d, seed):
    """Every |chi| is within tau of the exact one, which does not move, so the SIC
    deviation max | |chi|^2 - target | moves by at most 5 tau and the overlaps by 2 tau."""
    phi = rand_ket(d, np.random.default_rng(seed))
    sic, ic = sic_report(phi), is_informationally_complete(phi)
    for a in range(d):
        for b in range(d):
            moved = loop_displacement(d, a, b) @ phi
            assert abs(sic_report(moved) - sic) <= 5 * chi_rounding(d)
            got = is_informationally_complete(moved)
            assert (got.is_ic, got.gram_rank) == (ic.is_ic, ic.gram_rank)
            assert got.witness_index == ic.witness_index
            assert max_abs(got.overlaps - ic.overlaps) <= 2 * chi_rounding(d)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@COVARIANCE
@given(seeds)
def test_circuit_law_rolls_with_a_displaced_state(n, seed):
    """|apply_circuit(full_naimark_circuit(m, n), embed(D(a,b) psi, 0))|^2 is the law of psi
    rolled by (a, b).  Each circuit law is within 1e-12 of the Born law (the bound of
    test_circuit_route_matches_born_oracle), which rolls to within 2 tau(d)."""
    d = 2**n
    rng = np.random.default_rng(seed)
    m, psi = rand_unitary(d, rng), rand_ket(d, rng)
    moved = [loop_displacement(d, a, b) @ psi for a in range(d) for b in range(d)]
    states = np.stack([embed(v, 0) for v in [psi, *moved]], axis=1)
    laws = np.abs(apply_circuit(full_naimark_circuit(m, n), states)) ** 2
    base = laws[:, 0].reshape(d, d)
    for col, (a, b) in enumerate(np.ndindex(d, d), start=1):
        got = laws[:, col].reshape(d, d)
        assert max_abs(got - np.roll(base, (a, b), axis=(0, 1))) <= 2e-12 + 2 * chi_rounding(d)
