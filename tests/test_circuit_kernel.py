"""The gate-application kernel: `expand` and `apply_circuit` against the dense
loop oracle, and the circuit route to outcome probabilities against the
Born-rule oracle."""

import tracemalloc

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
    """Random H, R/CR (with and without dagger), SWAP and 1-5-wire U gates on
    1..6 wires, so that fused blocks fill, close and are skipped by wide U gates;
    a gate may be repeated, or repeated on its reversed wires."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["H", "R", "U"] + (["CR", "SWAP"] if n > 1 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=16)):
        arity = {"H": 1, "R": 1, "CR": 2, "SWAP": 2}.get(kind) or draw(st.integers(1, min(5, n)))
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


@settings(max_examples=200, deadline=None, derandomize=True)
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
    assert gate.turns == (-1 if dagger else 1) * 2.0**-k
    assert gate.phase == want
    assert gate_matrix(gate)[-1, -1] == gate.phase


def test_phase_is_bit_identical_to_the_closed_form_for_k_up_to_60():
    for k in range(1, 61):
        for sign, dagger in ((1.0, False), (-1.0, True)):
            want = np.exp(sign * 2j * np.pi / 2**k)
            assert Gate("CR", (0, 1), k=k, dagger=dagger).phase == want, (k, dagger)


@pytest.mark.parametrize("k", [1075, 1100, 10**6])
@pytest.mark.parametrize("dagger", [False, True])
def test_phase_of_a_huge_k_is_one(k, dagger):
    """2.0**-k underflows to 0.0 past k = 1074, where 2**k as a float would overflow."""
    gate = Gate("R", (0,), k=k, dagger=dagger)
    assert gate.turns == 0
    assert gate.phase == 1
    circ = GateList(1, (Gate("H", (0,)), gate, Gate("H", (0,))))
    assert max_abs(expand(circ) - np.eye(2)) < 1e-15


# The kernel reads the gates once: each run of H, U, R and CR gates that fits in
# circuits._BLOCK tensor axes becomes one small matrix applied by one matmul, a
# wider U gate is applied alone, and the R/CR gates that do not fit the open
# block are summed per axis set into one phase table.


@st.composite
def diagonal_run_lists(draw):
    """Runs of 8-40 R/CR gates, with SWAPs inside them, each closed by an H or a
    1-3-wire U gate, on 2..5 wires."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates = []
    for _ in range(draw(st.integers(1, 3))):
        for _ in range(draw(st.integers(8, 40))):
            kind = draw(st.sampled_from(["R", "CR", "CR", "SWAP"]))
            wires = tuple(draw(st.permutations(range(n)))[: 1 if kind == "R" else 2])
            if kind == "SWAP":
                gates.append(Gate(kind, wires))
            else:
                k, dagger = draw(st.integers(1, 6)), draw(st.booleans())
                gates.append(Gate(kind, wires, k=k, dagger=dagger))
        arity = draw(st.integers(1, min(3, n)))
        wires = tuple(draw(st.permutations(range(n)))[:arity])
        if draw(st.booleans()):
            gates.append(Gate("H", wires[:1]))
        else:
            gates.append(Gate("U", wires, matrix=rand_unitary(2**arity, rng)))
    return GateList(n, gates)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(diagonal_run_lists())
def test_diagonal_runs_equal_loop_oracle(circ):
    assert max_abs(expand(circ) - loop_expand(circ)) < 1e-13


def test_a_swap_inside_an_r_cr_run_moves_the_later_phases():
    gates = [Gate("H", (w,)) for w in range(3)]
    gates += [
        Gate("CR", (0, 1), k=2),
        Gate("R", (2,), k=3),
        Gate("SWAP", (0, 2)),
        Gate("CR", (0, 1), k=1),
        Gate("R", (0,), k=2, dagger=True),
        Gate("SWAP", (1, 2)),
        Gate("CR", (2, 0), k=3),
        Gate("H", (0,)),
        Gate("R", (1,), k=1),
    ]
    circ = GateList(3, gates)
    assert max_abs(expand(circ) - loop_expand(circ)) < 1e-14


@pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
def test_odd_and_even_h_counts_equal_loop_oracle(h):
    gates = []
    for i in range(h):
        gates += [Gate("H", (i % 3,)), Gate("CR", ((i + 1) % 3, i % 3), k=i + 1)]
    circ = GateList(3, gates)
    u = expand(circ)
    assert max_abs(u - loop_expand(circ)) < 1e-14
    assert max_abs(u.conj().T @ u - np.eye(8)) < 1e-14


@pytest.mark.parametrize(
    "wires",
    [(0, 2), (2, 0), (1, 3), (3, 1), (0, 1), (1, 0), (3, 0, 2), (0, 2, 3), (1, 2, 3), (3, 2, 1)],
)
def test_wide_u_after_a_swap_equals_loop_oracle(wires):
    """After SWAP(1, 3) wire 1 sits on axis 3 and wire 3 on axis 1, so each wire
    tuple here is consecutive, gapped or reversed on the tensor's axes."""
    rng = np.random.default_rng(sum(w * 4**i for i, w in enumerate(wires)))
    u = rand_unitary(2 ** len(wires), rng)
    gates = (
        Gate("H", (1,)),
        Gate("CR", (1, 2), k=2),
        Gate("SWAP", (1, 3)),
        Gate("U", wires, matrix=u),
        Gate("H", (3,)),
        Gate("R", (1,), k=3),
        Gate("U", wires[::-1], matrix=u, dagger=True),
        Gate("H", (0,)),
        Gate("CR", (2, 3), k=1),
    )
    circ = GateList(4, gates)
    assert max_abs(expand(circ) - loop_expand(circ)) < 1e-13


@settings(max_examples=20, deadline=None, derandomize=True)
@given(diagonal_run_lists(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_batch_columns_equal_single_vector_calls(circ, k, seed):
    rng = np.random.default_rng(seed)
    dim = 2**circ.n_qubits
    states = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    got = apply_circuit(circ, states)
    for j in range(k):
        assert max_abs(got[:, j] - apply_circuit(circ, states[:, j])) < 1e-14


@pytest.mark.parametrize("layout", ["vector", "C", "F", "strided"])
def test_the_input_is_never_written(layout):
    rng = np.random.default_rng(11)
    base = rng.standard_normal((16, 6)) + 1j * rng.standard_normal((16, 6))
    states = {
        "vector": base[:, 0].copy(),
        "C": base.copy(),
        "F": np.asfortranarray(base),
        "strided": base[:, ::2],
    }[layout]
    kept = states.copy()
    circ = GateList(
        4,
        (
            Gate("H", (3,)),
            Gate("CR", (3, 0), k=2),
            Gate("U", (2, 0), matrix=rand_unitary(4, rng)),
            Gate("R", (1,), k=1),
            Gate("U", (0, 1, 2, 3), matrix=rand_unitary(16, rng)),
            Gate("H", (0,)),
        ),
    )
    got = apply_circuit(circ, states)
    assert np.array_equal(states, kept)
    assert not np.shares_memory(got, states)
    assert max_abs(got - loop_expand(circ) @ kept) < 1e-13


def test_h_and_r_cr_gates_allocate_no_state_sized_temporaries():
    """Peak traced memory with 60 H, R, CR and SWAP gates stays within half a state
    of one block that needs a transposing copy, H(0) then CR(0, n-1); one
    state-sized temporary per gate, or a half-state one per H, would exceed it."""
    n, k = 6, 1024
    rng = np.random.default_rng(3)
    gates = []
    for i in range(60):
        kind = ("H", "R", "CR", "SWAP")[i % 4]
        wires = tuple(int(w) for w in rng.permutation(n)[: 1 if kind in ("H", "R") else 2])
        gates.append(Gate(kind, wires, k=int(rng.integers(1, 5)) if kind in ("R", "CR") else None))
    states = np.ones((2**n, k), dtype=complex)

    def peak(circ):
        tracemalloc.start()
        try:
            apply_circuit(circ, states)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    bare = peak(GateList(n, (Gate("H", (0,)), Gate("CR", (0, n - 1), k=2))))
    assert peak(GateList(n, gates)) - bare < states.nbytes // 2


@pytest.mark.parametrize("h", [2048, 2049, 3000])
def test_thousands_of_h_gates_stay_finite(h):
    """Thousands of H gates in one block stay finite and unitary: an unscaled
    butterfly would double the norm squared per H and overflow past about 2046."""
    step = GateList(2, (Gate("H", (0,)), Gate("CR", (0, 1), k=3)))
    circ = GateList(2, step.gates * h)
    assert max_abs(expand(circ) - np.linalg.matrix_power(loop_expand(step), h)) < 1e-11


def expand_recording_blocks(circ, monkeypatch):
    """expand(circ), and the blocks it built as (shape of each step, tensor axes):
    () for a phase, (2**m, 2**m) for a matrix on m wires."""
    blocks, real = [], circuits._block_matrix

    def spy(block, wide):
        blocks.append(([np.shape(op) for op, _ in block], list(wide)))
        return real(block, wide)

    monkeypatch.setattr(circuits, "_block_matrix", spy)
    return expand(circ), blocks


def steps(gates):
    """The step shapes expand_recording_blocks reports for these gates, SWAPs aside."""
    return [
        () if g.kind in ("R", "CR") else (2 ** len(g.wires),) * 2 for g in gates if g.kind != "SWAP"
    ]


C = circuits._BLOCK


def full_block(rng):
    """H on each of wires 0..C-1, CR gates between them and a 2-wire U: one block exactly C wide."""
    gates = [Gate("H", (w,)) for w in range(C)]
    gates += [Gate("CR", (w, w + 1), k=w + 1) for w in range(C - 1)]
    return gates + [Gate("U", (C - 1, 0), matrix=rand_unitary(4, rng))]


def test_a_block_exactly_c_wide_is_one_block(monkeypatch):
    rng = np.random.default_rng(21)
    gates = full_block(rng) + [Gate("H", (C + 1,))]
    circ = GateList(C + 2, gates)
    u, blocks = expand_recording_blocks(circ, monkeypatch)
    assert max_abs(u - loop_expand(circ)) < 1e-13
    assert blocks == [(steps(gates[:-1]), list(range(C))), (steps(gates[-1:]), [C + 1])]


def test_a_cr_that_would_widen_a_full_block_joins_the_phase_run(monkeypatch):
    rng = np.random.default_rng(22)
    first = full_block(rng)
    gates = first + [Gate("CR", (0, C), k=2), Gate("CR", (C, 1), k=1, dagger=True), Gate("H", (0,))]
    circ = GateList(C + 1, gates)
    u, blocks = expand_recording_blocks(circ, monkeypatch)
    assert max_abs(u - loop_expand(circ)) < 1e-13
    assert blocks == [(steps(first), list(range(C))), (steps(gates[-1:]), [0])]


def test_a_swap_inside_a_block_moves_its_later_gates(monkeypatch):
    gates = [
        Gate("H", (0,)),
        Gate("CR", (0, 1), k=2),
        Gate("SWAP", (0, C)),  # wire 0 now sits on axis C, wire C on axis 0
        Gate("H", (0,)),
        Gate("CR", (0, 1), k=3),
        Gate("H", (C,)),
        Gate("SWAP", (1, C)),
        Gate("R", (1,), k=1, dagger=True),
        Gate("H", (1,)),
    ]
    circ = GateList(C + 1, gates)
    u, blocks = expand_recording_blocks(circ, monkeypatch)
    assert max_abs(u - loop_expand(circ)) < 1e-13
    assert blocks == [(steps(gates), [0, 1, C])]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_a_u_gate_wider_than_a_block_is_applied_alone(seed, monkeypatch):
    """Seed 0 puts the U gate on consecutive axes in order; the others scramble them."""
    rng = np.random.default_rng(seed)
    wires = tuple(int(w) for w in rng.permutation(C + 2)[: C + 1]) if seed else tuple(range(C + 1))
    u = rand_unitary(2 ** len(wires), rng)
    gates = [Gate("H", (0,)), Gate("CR", (0, C + 1), k=2), Gate("U", wires, matrix=u)]
    gates += [Gate("H", (1,)), Gate("R", (C + 1,), k=3), Gate("U", wires[::-1], matrix=u, dagger=True)]
    circ = GateList(C + 2, gates)
    got, blocks = expand_recording_blocks(circ, monkeypatch)
    assert max_abs(got - loop_expand(circ)) < 1e-13
    assert all(shape in ((), (2, 2)) for shapes, _ in blocks for shape in shapes)


@pytest.mark.parametrize("j, k", [(0, 1), (3, 2), (10, 11), (12, 13), (14, 1), (14, 3), (12, 60), (1, 60)])
@pytest.mark.parametrize("dagger", [False, True])
@pytest.mark.parametrize("after_a_full_block", [False, True])
def test_a_cr_repeated_2_to_the_j_times_is_its_controlled_power(j, k, dagger, after_a_full_block):
    """CR(k) repeated 2**j times is CR(k - j) for k > j and the identity for k <= j."""
    prefix = full_block(np.random.default_rng(23)) if after_a_full_block else []
    suffix = [Gate("H", (0,)), Gate("H", (C,))]
    cr = Gate("CR", (C, 0), k=k, dagger=dagger)
    power = [Gate("CR", (0, C), k=k - j, dagger=dagger)] if k > j else []
    got = expand(GateList(C + 1, prefix + [cr] * 2**j + suffix))
    assert max_abs(got - loop_expand(GateList(C + 1, prefix + power + suffix))) < 1e-13
