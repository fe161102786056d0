"""Bell-basis route, closed-form matrix elements, and control/target duality."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naimark import (
    InvalidInputError,
    bell_change_of_basis,
    bell_vector,
    build_bell_naimark,
    build_block_naimark,
    builtin_fiducial,
    catalog_m,
    displacement,
    fiducial_for_embedding,
    is_informationally_complete,
    sic_report,
)
from naimark.bell import controlled_clock, controlled_shift
from naimark.block import structure_report
from naimark.cli import main
from naimark.wh import DEFAULT_TOL, max_abs

from util import (
    bell_product_u,
    clock_decomposition,
    closed_form_u,
    controlled_clock_closed_form,
    controlled_shift_closed_form,
    expected_hesse_u,
    expected_qubit_u,
    rand_ket,
    rand_unitary,
    shift_decomposition,
)


def test_bell_route_reproduces_expected_matrices():
    assert max_abs(build_bell_naimark(catalog_m("qubit")).U - expected_qubit_u()) < 1e-12
    assert max_abs(build_bell_naimark(catalog_m("hesse")).U - expected_hesse_u()) < 1e-12


def test_identity_completion_gives_bell_rotation():
    ext = build_bell_naimark(np.eye(2))
    assert max_abs(ext.U - bell_change_of_basis(2)) < 1e-14
    for j in range(2):
        for k in range(2):
            assert max_abs(ext.U[j * 2 + k] - bell_vector(2, j, k).conj()) < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_block_and_bell_routes_agree(d):
    rng = np.random.default_rng(1000 + d)
    for _ in range(20):
        m = rand_unitary(d, rng)
        u_block = build_block_naimark(m).U
        u_bell = build_bell_naimark(m).U
        assert max_abs(u_block - u_bell) < 1e-10
        assert max_abs(bell_product_u(m) - u_bell) < 1e-12


def test_matrix_element_trivial_entries():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        m = rand_unitary(d, rng)
        u = build_bell_naimark(m).U
        for r in range(d):
            assert u[r * d, r * d] == pytest.approx(m[0, 0] / np.sqrt(d))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_matrix_element_exhaustive_against_product(d):
    rng = np.random.default_rng(77 + d)
    m = rand_unitary(d, rng)
    assert max_abs(closed_form_u(m) - build_bell_naimark(m).U) < 1e-12
    assert max_abs(closed_form_u(m) - bell_product_u(m)) < 1e-12


def test_bell_route_peak_memory_is_about_one_u_at_d32():
    """U alone is 16 d^4 bytes; a dense B would be as large again (a peak of 2.0 U)."""
    d = 32
    m = rand_unitary(d, np.random.default_rng(32))
    tracemalloc.start()
    try:
        u = build_bell_naimark(m).U
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.nbytes == 16 * d**4
    assert peak <= 1.25 * u.nbytes


def test_matrix_element_spot_checks_hesse():
    u = closed_form_u(catalog_m("hesse"))
    want = expected_hesse_u()
    for (r, s, t, v) in [(0, 0, 0, 1), (1, 2, 2, 0), (2, 1, 0, 2), (2, 2, 1, 1)]:
        assert abs(u[r * 3 + s, t * 3 + v] - want[r * 3 + s, t * 3 + v]) < 1e-12


def test_bell_route_forms_no_kronecker_product_at_d32(monkeypatch, capsys):
    """No np.kron or matrix_power in the Bell layer: the d = 32 Bell route, the
    controlled shift and clock and the clock route at d = 8, and the circuit
    expansions checked against them."""
    m = rand_unitary(32, np.random.default_rng(3232))
    m8 = rand_unitary(8, np.random.default_rng(808))
    want = closed_form_u(m)
    want8 = closed_form_u(m8)
    clock8, shift8 = controlled_clock_closed_form(8), controlled_shift_closed_form(8)

    def forbidden(*args, **kwargs):
        raise AssertionError("Bell layer formed a Kronecker product or matrix power")

    monkeypatch.setattr(np, "kron", forbidden)
    monkeypatch.setattr(np.linalg, "matrix_power", forbidden)
    assert max_abs(build_bell_naimark(m).U - want) < 1e-12
    assert max_abs(controlled_clock(8).conj() - clock8) < 1e-14
    assert np.array_equal(controlled_shift(8).conj().T, shift8)
    assert max_abs(clock_decomposition(m8) - want8) < 1e-12
    for target in ("cz", "cx"):
        assert main(["circuit", target, "--n", "3", "--expand"]) == 0
        assert json.loads(capsys.readouterr().out)["closed_form_residual"] < 1e-12


def test_controlled_shift_d2_is_cnot_on_second_control():
    want = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
    assert max_abs(controlled_shift(2) - want) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_shift_decomposition_equals_bell_rotation(d):
    assert max_abs(shift_decomposition(d) - bell_change_of_basis(d)) < 1e-12


def test_clock_decomposition_identity_reduces_to_bell_rotation():
    assert max_abs(clock_decomposition(np.eye(3)) - bell_change_of_basis(3)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_clock_decomposition_duality(d):
    rng = np.random.default_rng(300 + d)
    for _ in range(5):
        m = rand_unitary(d, rng)
        assert max_abs(clock_decomposition(m) - build_bell_naimark(m).U) < 1e-12


def test_clock_decomposition_expected_qubit_matrix():
    assert max_abs(clock_decomposition(catalog_m("qubit")) - expected_qubit_u()) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_bell_amplitude_law(d):
    rng = np.random.default_rng(600 + d)
    psi, phi = rand_ket(d, rng), rand_ket(d, rng)
    joint = np.kron(psi, phi.conj())
    for j in range(d):
        for k in range(d):
            lhs = np.vdot(bell_vector(d, j, k), joint)
            rhs = np.vdot(displacement(d, j, k) @ phi, psi) / np.sqrt(d)
            assert abs(lhs - rhs) < 1e-12


class TestFiducialForEmbedding:
    def test_index_zero_recovers_catalog_fiducial(self):
        for label, (d, fl) in [("qubit", (2, "qubit-sic")), ("hesse", (3, "hesse")), ("ququart", (4, "ququart-sic"))]:
            fid = fiducial_for_embedding(catalog_m(label), 0)
            assert max_abs(fid.ket - builtin_fiducial(d, fl).ket) < 1e-14

    def test_qubit_partner_is_sic(self):
        p = builtin_fiducial(2, "qubit-sic").ket
        partner = fiducial_for_embedding(catalog_m("qubit"), 1)
        assert max_abs(partner.ket - np.array([-p[1].conj(), p[0].conj()])) < 1e-14
        assert sic_report(partner) < 1e-12

    def test_hesse_second_row_is_basis_state_and_not_ic(self):
        fid = fiducial_for_embedding(catalog_m("hesse"), 1)
        assert max_abs(fid.ket - np.array([1, 0, 0])) < 1e-14
        res = is_informationally_complete(fid)
        assert not res
        assert res.witness_overlap == pytest.approx(0.0, abs=1e-15)
        assert res.witness_index == (1, 0)

    @pytest.mark.parametrize("label", ["qubit", "hesse", "ququart"])
    def test_embedding_fiducials_orthonormal(self, label):
        m = catalog_m(label)
        d = m.shape[0]
        kets = np.array([fiducial_for_embedding(m, i).ket for i in range(d)])
        assert max_abs(kets.conj() @ kets.T - np.eye(d)) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInputError):
            fiducial_for_embedding(np.eye(2), 2)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_controlled_closed_forms_with_positive_powers(d):
    # The forms the qudit CZ / CX circuits realize, from the inverse-power
    # forms of the bell module.
    assert max_abs(controlled_clock(d).conj() - controlled_clock_closed_form(d)) < 1e-14
    assert np.array_equal(controlled_shift(d).conj().T, controlled_shift_closed_form(d))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 16))
def test_controlled_index_rules_match_kronecker_sums(d):
    # The oracle's matrix powers drift from the exact phases as d grows (1.1e-14 at d = 16).
    assert np.array_equal(controlled_shift(d).conj().T, controlled_shift_closed_form(d))
    assert max_abs(controlled_clock(d).conj() - controlled_clock_closed_form(d)) < DEFAULT_TOL


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 16))
def test_bell_rotation_is_exactly_u_of_the_identity(d):
    # B = (I x F^dag) P and U(I) = (I x F^dag) P (I x I) come from one layout, entry for entry.
    b = bell_change_of_basis(d)
    assert np.array_equal(b, build_block_naimark(np.eye(d)).U)
    assert structure_report(b)["block_circulant"] == 0.0
    assert structure_report(controlled_shift(d))["block_circulant"] == 0.0


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the residual
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("route", [build_block_naimark, build_bell_naimark])
def test_routes_reject_non_finite_completion(route, bad):
    m = catalog_m("hesse")
    m[1, 2] = bad
    with pytest.raises(InvalidInputError, match="not unitary"):
        route(m)


def test_extension_bundle_has_no_diag_blocks():
    ext = build_block_naimark(catalog_m("qubit"))
    assert not hasattr(ext, "diag_blocks")
