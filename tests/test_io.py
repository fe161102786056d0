"""JSON round trips for matrices, circuits, and outcome data."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naimark import Gate, GateList, InvalidInputError, ParseError, expand
from naimark.io import (
    counts_to_obj,
    distribution_to_obj,
    dumps,
    gatelist_to_obj,
    load_matrices,
    load_matrix,
    matrix_to_obj,
    obj_to_gate,
    obj_to_gatelist,
    obj_to_matrix,
)
from naimark.wh import max_abs

from util import rand_unitary


def test_matrix_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(17)
    a = rand_unitary(3, rng) / 3 + (1 / 3 + 1e-17j)  # awkward fractions on purpose
    path = tmp_path / "m.json"
    path.write_text(dumps(matrix_to_obj(a, 3)))
    b, d = load_matrix(str(path))
    assert d == 3
    assert np.array_equal(a, b)  # exact, not approximate


def test_obj_round_trip_through_json_text():
    rng = np.random.default_rng(18)
    a = rand_unitary(4, rng)
    text = json.dumps(matrix_to_obj(a, 2))
    b, d = obj_to_matrix(json.loads(text))
    assert d == 2
    assert np.array_equal(a, b)


def test_malformed_matrix_objects_rejected():
    with pytest.raises(ParseError):
        obj_to_matrix({"d": 2, "rows": 2, "cols": 2, "re": [[1, 0]], "im": [[0, 0]]})
    with pytest.raises(ParseError):
        obj_to_matrix({"rows": 2, "cols": 2})
    with pytest.raises(ParseError):
        obj_to_matrix([1, 2, 3])


def test_load_matrix_unwraps_build_bundles(tmp_path):
    inner = matrix_to_obj(np.eye(2), 2)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"U": inner, "other": 1}))
    a, d = load_matrix(str(path))
    assert np.array_equal(a, np.eye(2))


def test_load_matrix_missing_file():
    with pytest.raises(ParseError):
        load_matrix("/nonexistent/never.json")


def test_gatelist_round_trip():
    rng = np.random.default_rng(19)
    circ = GateList(
        2,
        (
            Gate("H", (0,)),
            Gate("CR", (1, 0), k=2, dagger=True),
            Gate("SWAP", (0, 1)),
            Gate("U", (0, 1), matrix=rand_unitary(4, rng)),
        ),
    )
    obj = gatelist_to_obj(circ)
    back = obj_to_gatelist(json.loads(json.dumps(obj)))
    assert back.n_qubits == 2
    kinds = [g.kind for g in back]
    assert kinds == ["H", "CR", "SWAP", "U"]
    assert back.gates[1].dagger and back.gates[1].k == 2
    assert max_abs(expand(back) - expand(circ)) < 1e-12


def test_malformed_gatelist_rejected():
    with pytest.raises(ParseError):
        obj_to_gatelist({"gates": []})
    with pytest.raises(ParseError):
        obj_to_gatelist({"n_qubits": 1, "gates": [{"kind": "U", "wires": [0]}]})


def test_non_unitary_u_gate_rejected():
    gate = {"kind": "U", "wires": [0], "re": [[1, 1], [1, 1]], "im": [[0, 0], [0, 0]]}
    with pytest.raises(InvalidInputError, match="not unitary"):
        obj_to_gate(gate)
    with pytest.raises(ParseError, match="not unitary"):
        obj_to_gatelist({"n_qubits": 1, "gates": [gate]})


def test_distribution_objects():
    probs = np.array([0.5, 0.25, 0.25, 0.0])
    obj = distribution_to_obj(2, probs)
    assert obj["index"] == "j*d+k"
    assert obj["probs"] == [0.5, 0.25, 0.25, 0.0]
    cobj = counts_to_obj(2, np.array([5, 3, 2, 0]))
    assert cobj["counts"] == [5, 3, 2, 0]


finite_floats = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    data=st.data(),
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    d=st.integers(1, 64),
)
@example(data=None, rows=1, cols=2, d=1)  # signed zeros, see below
def test_save_load_round_trip_is_bit_exact(tmp_path_factory, data, rows, cols, d):
    shape = (rows, cols)
    if data is None:
        re, im = [-0.0, -0.0], [1.0, 0.0]
    else:
        re = data.draw(st.lists(finite_floats, min_size=rows * cols, max_size=rows * cols))
        im = data.draw(st.lists(finite_floats, min_size=rows * cols, max_size=rows * cols))
    a = np.empty(shape, dtype=complex)
    a.real, a.imag = np.reshape(re, shape), np.reshape(im, shape)  # keeps -0.0 real parts
    path = tmp_path_factory.mktemp("rt") / "m.json"
    path.write_text(dumps(matrix_to_obj(a, d)))
    b, d_back = load_matrix(str(path))
    assert d_back == d
    assert np.array_equal(a.view(float), b.view(float))  # same bits, signed zeros included
    assert np.array_equal(np.signbit(a.view(float)), np.signbit(b.view(float)))


def test_load_matrix_key_selects_bundle_entry(tmp_path):
    u, m = np.eye(4), np.array([[0, 1], [1, 0]], dtype=complex)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"M": matrix_to_obj(m, 2), "U": matrix_to_obj(u, 2)}))
    assert np.array_equal(load_matrix(str(path), "M")[0], m)
    assert np.array_equal(load_matrix(str(path))[0], u)
    assert np.array_equal(load_matrix(str(path), "U")[0], u)
    (u2, d_u), (m2, d_m) = load_matrices(str(path), "U", "M")
    assert np.array_equal(u2, u) and np.array_equal(m2, m) and d_u == d_m == 2


@pytest.mark.parametrize("key", ["U", "M", "anything"])
def test_plain_matrix_file_loads_under_any_key(tmp_path, key):
    a = np.array([[1, 2j], [3, 4]])
    path = tmp_path / "plain.json"
    path.write_text(dumps(matrix_to_obj(a, 2)))
    b, d = load_matrix(str(path), key)
    assert d == 2
    assert np.array_equal(a, b)
    assert all(np.array_equal(a, c) for c, _ in load_matrices(str(path), key, "U"))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("part", ["re", "im"])
def test_non_finite_matrix_entries_rejected(tmp_path, bad, part):
    obj = matrix_to_obj(np.eye(2), 2)
    obj[part][1][0] = bad
    with pytest.raises(ParseError, match="non-finite"):
        obj_to_matrix(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))  # Python writes NaN / Infinity tokens
    with pytest.raises(ParseError, match="non-finite"):
        load_matrix(str(path))


def test_non_finite_u_gate_rejected():
    gate = {"kind": "U", "wires": [0], "re": [[1, 0], [0, float("nan")]], "im": [[0, 0], [0, 0]]}
    with pytest.raises(ParseError, match="non-finite"):
        obj_to_gatelist({"n_qubits": 1, "gates": [gate]})
