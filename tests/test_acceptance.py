"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Criterion 3 documents a known inconsistency between the two
tabulated fixtures it compares (see the test body) and is expected to stay
red until the upstream tables are corrected.
"""

import itertools

import numpy as np
import pytest

from naimark import (
    OutcomeDistribution,
    RankDeficientFrameError,
    bell_change_of_basis,
    bell_vector,
    build_bell_naimark,
    build_block_naimark,
    builtin_fiducial,
    catalog_m,
    clock_op,
    complete_unitary,
    compound_sic_report,
    cx_qudit_circuit,
    cz_qudit_circuit,
    diagonal_blocks,
    direct_probabilities,
    displacement,
    expand,
    fiducial_for_embedding,
    fourier,
    full_naimark_circuit,
    measure_probabilities,
    qcz_circuit,
    qudit_fourier_circuit,
    qudit_z_circuit,
    shift_op,
    sic_report,
    tomography_reconstruct,
    wh_orbit,
)
from naimark.wh import max_abs

from util import (
    clock_decomposition,
    expected_hesse_u,
    expected_qubit_diag_blocks,
    expected_qubit_u,
    expected_ququart_diag_blocks,
    rand_density,
    rand_ket,
    rand_unitary,
)


def test_criterion_01_qutrit_unitary_matches_reference():
    got = build_block_naimark(catalog_m("hesse")).U
    assert max_abs(got - expected_hesse_u()) < 1e-12


def test_criterion_02_qubit_unitary_and_blocks_match_reference():
    m = catalog_m("qubit")
    assert max_abs(build_block_naimark(m).U - expected_qubit_u()) < 1e-12
    got_blocks = diagonal_blocks(m)
    for got, want in zip(got_blocks, expected_qubit_diag_blocks()):
        assert max_abs(got - want) < 1e-12


def test_criterion_03_ququart_blocks_match_reference_tables():
    """Known red: the tabulated ququart blocks are inconsistent with the
    cataloged completion matrix.

    The four reference tables below are internally consistent (they all stem
    from one completion matrix), but that matrix carries the e^{i pi/4} phase
    on the *other* summand of its two-matrix form: the tables correspond to
    scale*(A + e^{i pi/4} B) while the cataloged (and fiducial-consistent)
    matrix is scale*(e^{i pi/4} A + B).  Equivalently, the tabulated blocks
    encode the fiducial e^{-i pi/4} Z^2 |phi*> instead of |phi>.  The catalog
    keeps the fiducial-consistent matrix, whose first row is exactly the
    conjugated ququart fiducial, so this entrywise comparison fails by ~0.4.
    """
    got = diagonal_blocks(catalog_m("ququart"))
    for block, want in zip(got, expected_ququart_diag_blocks()):
        assert max_abs(block - want) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_criterion_04_three_routes_agree(d):
    rng = np.random.default_rng(1234 + d)
    for _ in range(20):
        m = rand_unitary(d, rng)
        u_block = build_block_naimark(m).U
        u_bell = build_bell_naimark(m).U
        u_clock = clock_decomposition(m)
        assert max_abs(u_block - u_bell) < 1e-10
        assert max_abs(u_bell - u_clock) < 1e-10
        assert max_abs(u_block - u_clock) < 1e-10


def test_criterion_05_sic_structure():
    for label, d in [("qubit-sic", 2), ("hesse", 3), ("ququart-sic", 4)]:
        assert sic_report(builtin_fiducial(d, label)) < 1e-10
    assert all(dev < 1e-10 for dev in compound_sic_report(catalog_m("qubit")))
    assert all(dev < 1e-10 for dev in compound_sic_report(catalog_m("ququart")))
    hesse_devs = compound_sic_report(catalog_m("hesse"))
    assert hesse_devs[0] < 1e-10
    assert hesse_devs[2] < 1e-10
    assert hesse_devs[1] > 0.5  # two, but not three


def test_criterion_06_qutrit_blocks_related_by_row_permutations():
    u0, u1, u2 = diagonal_blocks(catalog_m("hesse"))
    found = {}
    for target_name, target in (("u1", u1), ("u2", u2)):
        for perm in itertools.permutations(range(3)):
            if max_abs(target - u0[list(perm), :]) < 1e-12:
                found[target_name] = perm
                break
    assert found.get("u1") == (1, 2, 0)
    assert found.get("u2") == (2, 0, 1)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_criterion_07_measurement_correctness(d):
    rng = np.random.default_rng(7000 + d)
    for _ in range(50):
        ket = rand_ket(d, rng)
        psi = rand_ket(d, rng)
        ext = build_block_naimark(complete_unitary(ket))
        got = measure_probabilities(ext, psi, 0)
        want = direct_probabilities(ket, psi)
        assert max_abs(got.probs - want.probs) < 1e-10
        assert abs(got.probs.sum() - 1.0) < 1e-10


@pytest.mark.parametrize("label", ["qubit", "hesse", "ququart"])
def test_criterion_08_per_embedding_fiducials(label):
    m = catalog_m(label)
    d = m.shape[0]
    ext = build_block_naimark(m)
    rng = np.random.default_rng(800 + d)
    for i in range(d):
        row_fid = fiducial_for_embedding(m, i)
        for _ in range(5):
            psi = rand_ket(d, rng)
            got = measure_probabilities(ext, psi, i)
            want = direct_probabilities(row_fid, psi)
            assert max_abs(got.probs - want.probs) < 1e-10
    kets = np.array([fiducial_for_embedding(m, i).ket for i in range(d)])
    assert max_abs(kets.conj() @ kets.T - np.eye(d)) < 1e-12


def _proj(d, m):
    p = np.zeros((d, d))
    p[m, m] = 1.0
    return p


@pytest.mark.parametrize("n", [1, 2])
def test_criterion_09_circuit_closed_forms(n):
    d = 2**n
    assert max_abs(expand(qudit_z_circuit(n)) - clock_op(d)) < 1e-12
    qcz = expand(qcz_circuit(n, 0, list(range(1, n + 1))))
    want_qcz = np.kron(_proj(2, 0), np.eye(d)) + np.kron(_proj(2, 1), clock_op(d))
    assert max_abs(qcz - want_qcz) < 1e-12
    want_cz = sum(np.kron(np.linalg.matrix_power(clock_op(d), m), _proj(d, m)) for m in range(d))
    assert max_abs(expand(cz_qudit_circuit(n)) - want_cz) < 1e-12
    want_cx = sum(np.kron(np.linalg.matrix_power(shift_op(d), m), _proj(d, m)) for m in range(d))
    assert max_abs(expand(cx_qudit_circuit(n)) - want_cx) < 1e-12
    assert max_abs(expand(qudit_fourier_circuit(n)) - fourier(d)) < 1e-12


def test_criterion_09_full_measurement_circuit_qubit():
    circ = full_naimark_circuit(catalog_m("qubit"), 1)
    assert max_abs(expand(circ) - expected_qubit_u()) < 1e-12
    bell_circ = full_naimark_circuit(np.eye(2), 1)
    assert max_abs(expand(bell_circ) - bell_change_of_basis(2)) < 1e-12


@pytest.mark.slow
def test_criterion_09_slow_cz_n3():
    want = sum(np.kron(np.linalg.matrix_power(clock_op(8), m), _proj(8, m)) for m in range(8))
    assert max_abs(expand(cz_qudit_circuit(3)) - want) < 1e-12


@pytest.mark.parametrize("label,d", [("qubit-sic", 2), ("hesse", 3), ("ququart-sic", 4)])
def test_criterion_10_tomography_round_trip(label, d):
    fid = builtin_fiducial(d, label)
    elements = wh_orbit(fid).elements()
    rng = np.random.default_rng(10_000 + d)
    for _ in range(20):
        rho = rand_density(d, rng)
        probs = np.array([np.trace(rho @ e).real for e in elements])
        rec = tomography_reconstruct(fid, OutcomeDistribution(d, probs))
        assert max_abs(rec.matrix - rho) < 1e-8


def test_criterion_10_non_ic_fiducial_rejected():
    dist = OutcomeDistribution(2, np.full(4, 0.25))
    with pytest.raises(RankDeficientFrameError):
        tomography_reconstruct(np.array([1.0, 0.0]), dist)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_criterion_11_bell_amplitude_identity(d):
    rng = np.random.default_rng(11_000 + d)
    for _ in range(5):
        psi, phi = rand_ket(d, rng), rand_ket(d, rng)
        joint = np.kron(psi, phi.conj())
        for j in range(d):
            for k in range(d):
                lhs = np.vdot(bell_vector(d, j, k), joint)
                rhs = np.vdot(displacement(d, j, k) @ phi, psi) / np.sqrt(d)
                assert abs(lhs - rhs) < 1e-12
