"""The gate-application kernel: `expand` and `apply_circuit` against the dense
loop oracle, and the circuit route to outcome probabilities against the
Born-rule oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naimark import (
    Gate,
    GateList,
    InvalidInputError,
    apply_circuit,
    direct_probabilities,
    embed,
    expand,
    fiducial_for_embedding,
    full_naimark_circuit,
)
from naimark import circuits
from naimark.wh import max_abs

from util import gate_matrix, loop_expand, rand_ket, rand_unitary


@st.composite
def kernel_gate_lists(draw):
    """Random H, R/CR (with and without dagger), SWAP and 1-3-wire U gates on
    1..4 wires; a gate may be repeated, or repeated on its reversed wires."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["H", "R", "U"] + (["CR", "SWAP"] if n > 1 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=16)):
        arity = {"H": 1, "R": 1, "CR": 2, "SWAP": 2}.get(kind) or draw(st.integers(1, min(3, n)))
        wires = tuple(draw(st.permutations(range(n)))[:arity])
        k = draw(st.integers(1, 4)) if kind in ("R", "CR") else None
        matrix = rand_unitary(2**arity, rng) if kind == "U" else None
        gate = Gate(kind, wires, k=k, dagger=draw(st.booleans()), matrix=matrix)
        gates.append(gate)
        repeat = draw(st.sampled_from(["none", "same", "reversed"]))
        if repeat == "same":
            gates.append(gate)
        elif repeat == "reversed":
            gates.append(Gate(kind, wires[::-1], k=k, dagger=gate.dagger, matrix=matrix))
    return GateList(n, gates)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kernel_gate_lists())
def test_expand_equals_loop_oracle(circ):
    assert max_abs(expand(circ) - loop_expand(circ)) < 1e-13


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kernel_gate_lists(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_apply_circuit_on_a_batch_equals_expand_times_states(circ, k, seed):
    rng = np.random.default_rng(seed)
    dim = 2**circ.n_qubits
    states = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    kept = states.copy()
    got = apply_circuit(circ, states)
    assert got.shape == (dim, k)
    assert max_abs(got - expand(circ) @ states) < 1e-13
    assert max_abs(apply_circuit(circ, states[:, 0]) - got[:, 0]) < 1e-13
    assert np.array_equal(states, kept)  # the input is never written


def circuit_route_residual(n, seed, i):
    """max |P_circuit - P_Born| for a Haar M and psi on a d = 2**n qudit."""
    rng = np.random.default_rng(seed)
    d = 2**n
    m, psi = rand_unitary(d, rng), rand_ket(d, rng)
    amps = apply_circuit(full_naimark_circuit(m, n), embed(psi, i))
    oracle = direct_probabilities(fiducial_for_embedding(m, i), psi)
    return max_abs(np.abs(amps) ** 2 - oracle.probs)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
def test_circuit_route_matches_born_oracle(n, seed, data):
    i = data.draw(st.integers(0, 2**n - 1))
    assert circuit_route_residual(n, seed, i) < 1e-12


@pytest.mark.slow
@pytest.mark.parametrize("n", [7, 8])
def test_circuit_route_matches_born_oracle_large(n):
    assert circuit_route_residual(n, seed=700 + n, i=2**n - 3) < 1e-12


@pytest.mark.parametrize(
    "shape", [(), (3,), (4, 2, 1), (5, 2), (2, 4), (0,)],
)
def test_apply_circuit_rejects_mismatched_shapes(shape):
    with pytest.raises(InvalidInputError):
        apply_circuit(GateList(2, (Gate("H", (0,)),)), np.zeros(shape))


def test_apply_circuit_takes_an_empty_batch():
    assert apply_circuit(GateList(2, (Gate("H", (1,)),)), np.zeros((4, 0))).shape == (4, 0)


def test_kernel_leaves_gate_matrices_unchanged():
    rng = np.random.default_rng(5)
    u = rand_unitary(4, rng)
    gates = (Gate("U", (1, 0), matrix=u), Gate("U", (0, 1), matrix=u, dagger=True), Gate("H", (1,)))
    kept = u.copy()
    expand(GateList(2, gates))
    assert np.array_equal(gates[0].matrix, kept) and np.array_equal(gates[1].matrix, kept)
    assert np.array_equal(circuits._H, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


@pytest.mark.parametrize("kind, wires", [("R", (0,)), ("CR", (0, 1))])
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("dagger", [False, True])
def test_phase_is_the_last_entry_of_the_local_matrix(kind, wires, k, dagger):
    gate = Gate(kind, wires, k=k, dagger=dagger)
    want = np.exp((-1 if dagger else 1) * 2j * np.pi / 2**k)
    assert gate.phase == want
    assert gate_matrix(gate)[-1, -1] == gate.phase
