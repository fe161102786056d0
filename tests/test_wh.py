"""Core operator family: shift, clock, displacements, Fourier, Bell basis."""

import numpy as np
import pytest

from naimark import (
    InvalidCircuitError,
    InvalidDimensionError,
    bell_change_of_basis,
    bell_vector,
    clock_op,
    cz_qudit_circuit,
    displacement,
    fourier,
    full_naimark_circuit,
    qudit_fourier_circuit,
    qudit_z_circuit,
    shift_op,
)
from naimark.bell import controlled_clock, controlled_shift
from naimark.wh import max_abs

from util import shift_decomposition


def test_invalid_dimensions_rejected():
    for fn in (shift_op, clock_op, bell_change_of_basis, controlled_shift, controlled_clock):
        for d in (0, 1):
            with pytest.raises(InvalidDimensionError):
                fn(d)
    with pytest.raises(InvalidDimensionError):
        fourier(0)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: fourier(2.5), InvalidDimensionError),
        (lambda: bell_change_of_basis(2.5), InvalidDimensionError),
        (lambda: controlled_clock(3.5), InvalidDimensionError),
        (lambda: displacement(3, 1.5, 0), InvalidDimensionError),
        (lambda: displacement(3, 0, "1"), InvalidDimensionError),
        (lambda: shift_op(2.5), InvalidDimensionError),
        (lambda: controlled_shift(3.5), InvalidDimensionError),
        (lambda: qudit_z_circuit(1.5), InvalidCircuitError),
        (lambda: cz_qudit_circuit(2.0), InvalidCircuitError),
        (lambda: qudit_fourier_circuit(2.5), InvalidCircuitError),
        (lambda: full_naimark_circuit(np.eye(2), 1.0), InvalidCircuitError),
    ],
    ids=["fourier", "bell-basis", "controlled-clock", "displacement-j", "displacement-k",
         "shift", "controlled-shift", "z-circuit", "cz-circuit", "fourier-circuit",
         "naimark-circuit"],
)
def test_non_integer_dimensions_raise_package_errors(call, error):
    # operator.index refuses a float even when it holds an integer, as GateList does.
    with pytest.raises(error, match="got "):
        call()


def test_numpy_integer_dimensions_are_accepted():
    d = np.int64(3)
    assert np.array_equal(displacement(d, np.int64(1), np.int64(2)), displacement(3, 1, 2))
    assert np.array_equal(controlled_clock(d), controlled_clock(3))
    assert np.array_equal(fourier(d), fourier(3))


def test_shift_clock_small_fixtures():
    assert np.allclose(shift_op(2), [[0, 1], [1, 0]])
    assert np.allclose(clock_op(2), np.diag([1, -1]))
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(clock_op(3), np.diag([1, w, w**2]))


def test_shift_action_on_basis():
    for d in (2, 3, 5):
        x = shift_op(d)
        for k in range(d):
            e = np.zeros(d)
            e[k] = 1
            out = x @ e
            assert out[(k + 1) % d] == pytest.approx(1)


def test_displacement_small_fixtures():
    assert np.allclose(displacement(2, 0, 0), np.eye(2))
    assert np.allclose(displacement(2, 1, 1), [[0, -1], [1, 0]])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_displacement_matches_matrix_products(d):
    # independent oracle: explicit powers of X and Z multiplied out
    x, z = shift_op(d), clock_op(d)
    for j in range(d):
        for k in range(d):
            want = np.linalg.matrix_power(x, j) @ np.linalg.matrix_power(z, k)
            assert max_abs(displacement(d, j, k) - want) < 1e-12


@pytest.mark.parametrize("d", list(range(2, 9)))
def test_displacement_unitarity(d):
    for j in range(d):
        for k in range(d):
            dd = displacement(d, j, k)
            assert max_abs(dd.conj().T @ dd - np.eye(d)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_displacements_orthonormal_operator_basis(d):
    ops = [displacement(d, j, k) for j in range(d) for k in range(d)]
    for a, da in enumerate(ops):
        for b, db in enumerate(ops):
            want = d if a == b else 0.0
            assert abs(np.trace(da.conj().T @ db) - want) < 1e-12


def test_displacement_index_arithmetic_mod_d():
    d = 3
    assert max_abs(displacement(d, 4, 5) - displacement(d, 1, 2)) < 1e-15
    assert max_abs(displacement(d, -1, -2) - displacement(d, 2, 1)) < 1e-15


def test_fourier_small_fixtures():
    assert np.allclose(fourier(1), [[1]])
    assert np.allclose(fourier(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2))


@pytest.mark.parametrize("d", list(range(2, 9)))
def test_fourier_conjugates_clock_into_shift(d):
    f = fourier(d)
    assert max_abs(f.conj().T @ f - np.eye(d)) < 1e-12
    assert max_abs(shift_op(d) - f.conj().T @ clock_op(d) @ f) < 1e-12


def test_bell_vector_d2_fixtures():
    assert np.allclose(bell_vector(2, 0, 0), np.array([1, 0, 0, 1]) / np.sqrt(2))
    # (j,k) = (1,1): component w^{k*l} on |1+l, l>, i.e. +1 on |10>, -1 on |01>
    assert np.allclose(bell_vector(2, 1, 1), np.array([0, -1, 1, 0]) / np.sqrt(2))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_bell_vectors_vectorize_displacements(d):
    # alternative definitional route: (D x I) applied to the entangled pair
    omega = np.zeros(d * d, dtype=complex)
    for ell in range(d):
        omega[ell * d + ell] = 1
    omega /= np.sqrt(d)
    for j in range(d):
        for k in range(d):
            want = np.kron(displacement(d, j, k), np.eye(d)) @ omega
            assert max_abs(bell_vector(d, j, k) - want) < 1e-12


def test_bell_basis_gram_is_identity_d3():
    # brute-force inner products
    vecs = [bell_vector(3, j, k) for j in range(3) for k in range(3)]
    for a, va in enumerate(vecs):
        for b, vb in enumerate(vecs):
            want = 1.0 if a == b else 0.0
            assert abs(np.vdot(va, vb) - want) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_bell_basis_complete(d):
    acc = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            v = bell_vector(d, j, k)
            acc += np.outer(v, v.conj())
    assert max_abs(acc - np.eye(d * d)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_bell_vectors_maximally_entangled(d):
    for j in range(d):
        for k in range(d):
            v = bell_vector(d, j, k).reshape(d, d)
            left = v @ v.conj().T
            right = v.T @ v.conj()
            assert max_abs(left - np.eye(d) / d) < 1e-12
            assert max_abs(right - np.eye(d) / d) < 1e-12


def test_bell_change_of_basis_rows_and_action():
    d = 2
    basis_change = bell_change_of_basis(d)
    for j in range(d):
        for k in range(d):
            assert max_abs(basis_change[j * d + k] - bell_vector(d, j, k).conj()) < 1e-15
    # sends its own basis vector to a computational one
    mapped = basis_change @ bell_vector(2, 0, 0)
    assert np.allclose(mapped, [1, 0, 0, 0])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_bell_change_of_basis_unitary(d):
    b = bell_change_of_basis(d)
    assert max_abs(b @ b.conj().T - np.eye(d * d)) < 1e-12


def test_bell_change_of_basis_matches_circuit_decomposition():
    # cross-module oracle: controlled shift followed by the Fourier rotation
    for d in (2, 3):
        assert max_abs(bell_change_of_basis(d) - shift_decomposition(d)) < 1e-12


@pytest.mark.parametrize("d", range(2, 13))
def test_bell_change_of_basis_rows_are_conjugated_bell_vectors(d):
    rows = np.array([bell_vector(d, j, k).conj() for j in range(d) for k in range(d)])
    assert np.array_equal(bell_change_of_basis(d), rows)
