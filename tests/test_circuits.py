"""Qubit-level synthesis of the qudit clock, controlled clock/shift, Fourier,
and the complete measurement circuit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naimark import (
    Gate,
    GateList,
    InvalidCircuitError,
    InvalidInputError,
    bell_change_of_basis,
    build_bell_naimark,
    catalog_m,
    clock_op,
    cx_qudit_circuit,
    cz_qudit_circuit,
    expand,
    fourier,
    full_naimark_circuit,
    qcz_circuit,
    qudit_fourier_circuit,
    qudit_z_circuit,
)
from naimark.circuits import bell_rotation_circuit
from naimark.wh import max_abs, unitarity_residual

from util import (
    controlled_clock_closed_form,
    controlled_shift_closed_form,
    expected_qubit_u,
    proj,
    rand_unitary,
)


class TestExpand:
    def test_single_hadamard(self):
        circ = GateList(1, (Gate("H", (0,)),))
        assert max_abs(expand(circ) - np.array([[1, 1], [1, -1]]) / np.sqrt(2)) < 1e-15

    def test_empty_circuit(self):
        assert max_abs(expand(GateList(2, ())) - np.eye(4)) < 1e-15

    def test_swap_matrix(self):
        want = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert max_abs(expand(GateList(2, (Gate("SWAP", (0, 1)),))) - want) < 1e-15

    def test_application_order_is_list_order(self):
        r_mat = np.diag([1, np.exp(2j * np.pi / 2)])
        h_mat = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        circ = GateList(1, (Gate("R", (0,), k=1), Gate("H", (0,))))
        assert max_abs(expand(circ) - h_mat @ r_mat) < 1e-15

    def test_embedding_on_noncontiguous_wires(self):
        # CR on (wire 2 control, wire 0 target) among 3 wires
        circ = GateList(3, (Gate("CR", (2, 0), k=1),))
        got = expand(circ)
        want = np.eye(8, dtype=complex)
        # phase -1 exactly when wire 2 (bit value 1) and wire 0 (bit value 4) are set
        for idx in range(8):
            if idx & 1 and idx & 4:
                want[idx, idx] = -1
        assert max_abs(got - want) < 1e-15

    def test_gate_validation(self):
        with pytest.raises(InvalidCircuitError):
            Gate("R", (0,))  # missing k
        with pytest.raises(InvalidCircuitError):
            Gate("R", (0,), k=0)
        with pytest.raises(InvalidCircuitError):
            Gate("CR", (1, 1), k=2)
        with pytest.raises(InvalidCircuitError):
            Gate("H", (0, 1))
        with pytest.raises(InvalidCircuitError):
            Gate("NOT-A-GATE", (0,))
        with pytest.raises(InvalidCircuitError):
            Gate("U", (0, 1), matrix=np.eye(2))

    @pytest.mark.parametrize("matrix", [np.ones((2, 2)), 1.01 * np.eye(2), np.diag([1, np.nan])])
    def test_non_unitary_u_gate_rejected(self, matrix):
        with pytest.raises(InvalidInputError, match="U-gate matrix is not unitary"):
            Gate("U", (0,), matrix=matrix)

    def test_full_circuit_rejects_a_non_unitary_m(self):
        with pytest.raises(InvalidInputError, match="not unitary"):
            full_naimark_circuit(2 * np.eye(2), 1)

    def test_wire_bounds_checked(self):
        with pytest.raises(InvalidCircuitError):
            GateList(1, (Gate("H", (1,)),))

    def test_inverse_circuit(self):
        rng = np.random.default_rng(12)
        circ = qudit_fourier_circuit(2)
        u = expand(circ)
        assert max_abs(expand(circ.inverse()) - u.conj().T) < 1e-13
        opaque = GateList(1, (Gate("U", (0,), matrix=rand_unitary(2, rng)),))
        assert max_abs(expand(opaque.inverse()) - expand(opaque).conj().T) < 1e-14


class TestQuditZ:
    def test_n1_is_pauli_z(self):
        assert max_abs(expand(qudit_z_circuit(1)) - np.diag([1, -1])) < 1e-15

    def test_n2_phase_pattern(self):
        got = expand(qudit_z_circuit(2))
        want = np.diag([1, np.exp(1j * np.pi / 2), np.exp(1j * np.pi), np.exp(3j * np.pi / 2)])
        assert max_abs(got - want) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_clock(self, n):
        assert max_abs(expand(qudit_z_circuit(n)) - clock_op(2**n)) < 1e-12


class TestQCZ:
    def test_n1_is_controlled_z(self):
        got = expand(qcz_circuit(1, 0, [1]))
        assert max_abs(got - np.diag([1, 1, 1, -1])) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_control_first_block_structure(self, n):
        d = 2**n
        got = expand(qcz_circuit(n, 0, list(range(1, n + 1))))
        want = np.kron(proj(2, 0), np.eye(d)) + np.kron(proj(2, 1), clock_op(d))
        assert max_abs(got - want) < 1e-12

    def test_control_in_zero_acts_trivially(self):
        rng = np.random.default_rng(9)
        n = 2
        got = expand(qcz_circuit(n, 0, [1, 2]))
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = np.kron(np.array([1.0, 0.0]), v)
        assert max_abs(got @ state - state) < 1e-13

    def test_wire_collision_rejected(self):
        with pytest.raises(InvalidCircuitError):
            qcz_circuit(2, 1, [1, 2])


class TestCZandCX:
    def test_n1_cz_is_qubit_controlled_z(self):
        assert max_abs(expand(cz_qudit_circuit(1)) - np.diag([1, 1, 1, -1])) < 1e-15

    @pytest.mark.parametrize("n", [1, 2])
    def test_cz_closed_form(self, n):
        assert max_abs(expand(cz_qudit_circuit(n)) - controlled_clock_closed_form(2**n)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_cx_closed_form(self, n):
        assert max_abs(expand(cx_qudit_circuit(n)) - controlled_shift_closed_form(2**n)) < 1e-12

    @pytest.mark.slow
    def test_cz_closed_form_n3(self):
        assert max_abs(expand(cz_qudit_circuit(3)) - controlled_clock_closed_form(8)) < 1e-12

    @pytest.mark.slow
    def test_cx_closed_form_n3(self):
        assert max_abs(expand(cx_qudit_circuit(3)) - controlled_shift_closed_form(8)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_fourier_conjugacy_between_cx_and_cz(self, n):
        d = 2**n
        f = fourier(d)
        lhs = expand(cx_qudit_circuit(n))
        rhs = np.kron(f.conj().T, np.eye(d)) @ expand(cz_qudit_circuit(n)) @ np.kron(f, np.eye(d))
        assert max_abs(lhs - rhs) < 1e-12


class TestFourierCircuit:
    def test_n1_is_single_hadamard(self):
        circ = qudit_fourier_circuit(1)
        assert [g.kind for g in circ] == ["H"]
        assert max_abs(expand(circ) - fourier(2)) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_dense_fourier(self, n):
        assert max_abs(expand(qudit_fourier_circuit(n)) - fourier(2**n)) < 1e-12


@pytest.mark.parametrize(
    "factory",
    [
        lambda n: qudit_z_circuit(n),
        lambda n: qcz_circuit(n, 0, list(range(1, n + 1))),
        lambda n: cz_qudit_circuit(n),
        lambda n: cx_qudit_circuit(n),
        lambda n: qudit_fourier_circuit(n),
    ],
)
@pytest.mark.parametrize("n", [1, 2])
def test_every_emitted_circuit_is_unitary(factory, n):
    assert unitarity_residual(expand(factory(n))) < 1e-12


class TestFullNaimarkCircuit:
    def test_qubit_catalog_matches_expected_matrix(self):
        circ = full_naimark_circuit(catalog_m("qubit"), 1)
        assert max_abs(expand(circ) - expected_qubit_u()) < 1e-12

    def test_identity_completion_gives_bell_rotation(self):
        circ = full_naimark_circuit(np.eye(2), 1)
        assert max_abs(expand(circ) - bell_change_of_basis(2)) < 1e-12

    def test_seeded_two_qubit_completions(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            m = rand_unitary(4, rng)
            circ = full_naimark_circuit(m, 2)
            assert max_abs(expand(circ) - build_bell_naimark(m).U) < 1e-10

    def test_gatelist_input(self):
        # a gate list implementing F_2 stands in for the completion matrix
        m_circ = GateList(1, (Gate("H", (0,)),))
        circ = full_naimark_circuit(m_circ, 1)
        assert max_abs(expand(circ) - build_bell_naimark(fourier(2)).U) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            full_naimark_circuit(np.eye(3), 1)
        with pytest.raises(InvalidInputError):
            full_naimark_circuit(GateList(2, ()), 1)


@pytest.mark.parametrize("n", [1, 2])
def test_bell_rotation_circuit_is_bell_change_of_basis(n):
    assert max_abs(expand(bell_rotation_circuit(n)) - bell_change_of_basis(2**n)) < 1e-12


def test_full_circuit_is_preparation_then_bell_rotation():
    m = catalog_m("qubit")
    circ = full_naimark_circuit(m, 1)
    assert circ.gates[0].kind == "U"
    assert [(g.kind, g.wires, g.k, g.dagger) for g in circ.gates[1:]] == [
        (g.kind, g.wires, g.k, g.dagger) for g in bell_rotation_circuit(1).gates
    ]


@st.composite
def gate_lists(draw):
    """Random H, R, CR, SWAP and U gates, with and without dagger, on 1..3 wires."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["H", "R", "U"] + (["CR", "SWAP"] if n > 1 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        arity = {"H": 1, "R": 1, "CR": 2, "SWAP": 2}.get(kind) or draw(st.integers(1, min(2, n)))
        wires = tuple(int(w) for w in rng.permutation(n)[:arity])
        k = draw(st.integers(1, 4)) if kind in ("R", "CR") else None
        matrix = rand_unitary(2**arity, rng) if kind == "U" else None
        gates.append(Gate(kind, wires, k=k, dagger=draw(st.booleans()), matrix=matrix))
    return GateList(n, gates)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gate_lists())
def test_inverse_composes_to_identity(circ):
    prod = expand(circ.inverse()) @ expand(circ)
    assert max_abs(prod - np.eye(2**circ.n_qubits)) < 1e-12
