"""JSON round trips for matrices, the circuit writer, and outcome data."""

import json
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naimark import Gate, GateList, ParseError, build_block_naimark, expand
from naimark.io import (
    distribution_to_obj,
    dumps,
    gatelist_to_obj,
    load_matrices,
    matrix_to_obj,
    obj_to_matrix,
)
from naimark.wh import max_abs

from util import plain_json_parts, rand_unitary


def test_matrix_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(17)
    a = rand_unitary(3, rng) / 3 + (1 / 3 + 1e-17j)  # awkward fractions on purpose
    path = tmp_path / "m.json"
    path.write_text(dumps(matrix_to_obj(a, 3)))
    [(b, d)] = load_matrices(str(path), "A")
    assert d == 3
    assert np.array_equal(a, b)  # exact, not approximate


def test_obj_round_trip_through_json_text():
    rng = np.random.default_rng(18)
    a = rand_unitary(4, rng)
    text = dumps(matrix_to_obj(a, 2))
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
    # Only JSON ints and floats are numbers, and d, rows and cols are ints: nothing is coerced.
    eye = matrix_to_obj(np.eye(2), 2)
    for bad in [
        {**eye, "re": [["1.0", "0.0"], ["0.0", "1.0"]]},
        {**eye, "d": 3.9},
        {**eye, "d": True},
        {**eye, "rows": "2"},
        {**eye, "cols": 2.0},
        {**eye, "re": [[True, 0.0], [0.0, 1.0]]},
        {**eye, "im": [[0.0, None], [0.0, 0.0]]},
        {**eye, "im": [[0.0, [0.0]], [0.0, 0.0]]},
        {**eye, "re": "1001"},
        {**eye, "re": [[1.0, 0.0], [0.0]]},
        {**eye, "re": [[1.0, 0.0], [0.0, 10**400]]},
    ]:
        with pytest.raises(ParseError, match="malformed matrix object"):
            obj_to_matrix(bad)


def test_load_matrix_unwraps_build_bundles(tmp_path):
    inner = matrix_to_obj(np.eye(2), 2)
    path = tmp_path / "bundle.json"
    path.write_text(dumps({"A": inner, "other": 1}))
    [(a, d)] = load_matrices(str(path), "A")
    assert np.array_equal(a, np.eye(2))


def test_load_matrix_missing_file():
    with pytest.raises(ParseError):
        load_matrices("/nonexistent/never.json", "U")


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
    obj = json.loads(dumps(gatelist_to_obj(circ)))
    assert obj["n_qubits"] == 2
    assert [g["kind"] for g in obj["gates"]] == ["H", "CR", "SWAP", "U"]
    assert obj["gates"][1] == {"kind": "CR", "wires": [1, 0], "k": 2, "dagger": True}
    # The written fields rebuild the circuit; nothing in the package reads them back.
    back = GateList(obj["n_qubits"], [
        Gate(g["kind"], g["wires"], k=g.get("k"), dagger=g.get("dagger", False),
             matrix=np.array(g["re"]) + 1j * np.array(g["im"]) if "re" in g else None)
        for g in obj["gates"]
    ])
    assert max_abs(expand(back) - expand(circ)) < 1e-12


def test_a_numpy_integer_k_is_written_as_a_json_int():
    g = Gate("CR", (np.int64(1), 0), k=np.int64(3))
    obj = json.loads(json.dumps(gatelist_to_obj(GateList(2, (g,)))))
    assert obj["gates"] == [{"kind": "CR", "wires": [1, 0], "k": 3}]
    assert type(g.k) is int and all(type(w) is int for w in g.wires)


def test_distribution_objects():
    probs = np.array([0.5, 0.25, 0.25, 0.0])
    obj = distribution_to_obj(2, probs)
    assert obj["index"] == "j*d+k"
    assert obj["probs"].tolist() == [0.5, 0.25, 0.25, 0.0]


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
    [(b, d_back)] = load_matrices(str(path), "A")
    assert d_back == d
    assert np.array_equal(a.view(float), b.view(float))  # same bits, signed zeros included
    assert np.array_equal(np.signbit(a.view(float)), np.signbit(b.view(float)))


def test_load_matrix_key_selects_bundle_entry(tmp_path):
    u, m = np.eye(4), np.array([[0, 1], [1, 0]], dtype=complex)
    path = tmp_path / "bundle.json"
    path.write_text(dumps({"M": matrix_to_obj(m, 2), "U": matrix_to_obj(u, 2)}))
    assert np.array_equal(load_matrices(str(path), "M")[0][0], m)
    assert np.array_equal(load_matrices(str(path), "U")[0][0], u)
    (u2, d_u), (m2, d_m) = load_matrices(str(path), "U", "M")
    assert np.array_equal(u2, u) and np.array_equal(m2, m) and d_u == d_m == 2


@pytest.mark.parametrize("key", ["A", "M", "anything"])
def test_plain_matrix_file_loads_under_any_key(tmp_path, key):
    a = np.array([[1, 2j], [3, 4]])
    path = tmp_path / "plain.json"
    path.write_text(dumps(matrix_to_obj(a, 2)))
    [(b, d)] = load_matrices(str(path), key)
    assert d == 2
    assert np.array_equal(a, b)
    assert all(np.array_equal(a, c) for c, _ in load_matrices(str(path), key, "A"))


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (9, 9), (1, 1)])
@pytest.mark.parametrize("bundle", [True, False], ids=["bundle", "plain"])
def test_an_m_must_be_d_by_d_for_its_file_d(tmp_path, shape, bundle):
    obj = matrix_to_obj(np.ones(shape), 2)
    path = tmp_path / "m.json"
    path.write_text(dumps({"M": obj, "U": matrix_to_obj(np.eye(4), 2)} if bundle else obj))
    want = f"file says d=2 but M is {shape[0]}x{shape[1]}"
    with pytest.raises(ParseError, match=want):
        load_matrices(str(path), "M")
    with pytest.raises(ParseError, match=want):
        load_matrices(str(path), "U", "M")


@pytest.mark.parametrize(
    "shape, d", [((3, 3), 3), ((2, 2), 2), ((4, 4), 4), ((1, 1), -1), ((1, 1), 0)]
)
@pytest.mark.parametrize("bundle", [True, False], ids=["bundle", "plain"])
def test_a_u_must_be_d_squared_for_its_file_d(tmp_path, shape, d, bundle):
    obj = matrix_to_obj(np.ones(shape), d)
    path = tmp_path / "u.json"
    path.write_text(dumps({"U": obj, "M": matrix_to_obj(np.eye(2), 2)} if bundle else obj))
    with pytest.raises(ParseError, match=f"file says d={d} but U is {shape[0]}x{shape[1]}"):
        load_matrices(str(path), "U")
    if bundle:  # with a good M beside it
        with pytest.raises(ParseError, match=f"file says d={d} but U is"):
            load_matrices(str(path), "M", "U")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("part", ["re", "im"])
def test_non_finite_matrix_entries_rejected(tmp_path, bad, part):
    obj = json.loads(dumps(matrix_to_obj(np.eye(2), 2)))  # JSON types, as a file gives them
    obj[part][1][0] = bad
    with pytest.raises(ParseError, match="non-finite"):
        obj_to_matrix(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))  # Python writes NaN / Infinity tokens
    with pytest.raises(ParseError, match="non-finite"):
        load_matrices(str(path), "U")


def number_texts(x):
    """JSON texts of the float x: its repr, upper-cased, 18 and 25 significant digits, and an
    integer mantissa with a shifted exponent; an integral x adds 1, 1.00, 10e-1, 1E0 alike."""
    texts = [repr(x), repr(x).upper(), "%.17e" % x, "%.25g" % x]
    if x != 0:  # a zero mantissa would be written with leading zeros, which JSON refuses
        mantissa, exp = ("%.16e" % x).split("e")
        texts.append(f"{mantissa.replace('.', '')}e{int(exp) - 16}")
    if x == int(x) and abs(x) < 2**53:  # "-0" is an int text: json gives 0, not -0.0
        texts += ["%.0f" % x, "%.2f" % x, ("%.0f0e-1" if x else "%.0fe-1") % x, "%.0fE0" % x]
    return texts


def matrix_text(d, re, im):
    """A matrix object written by hand from rows of number texts."""

    def rows(texts):
        return "[" + ", ".join("[" + ", ".join(row) + "]" for row in texts) + "]"

    shape = f'"rows": {len(re)}, "cols": {len(re[0])}'
    return f'{{"d": {d}, {shape}, "re": {rows(re)}, "im": {rows(im)}}}'


# Repeated values, signed zeros, subnormals and the largest finite exponents.
reader_values = st.one_of(
    finite_floats,
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                     1e300, -1.5e-300, 1.7976931348623157e308, -1.7976931348623157e308]),
)


# Zeros of both signs, each first in one part, and one value in several spellings.
SPELLINGS = [
    ["0.0", "-0.0", "0", "-0", "0e0", "-0E-5"],
    ["1", "1.0", "1.00", "10e-1", "1E0", "5e-324"],
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    data=st.data(),
    pool=st.lists(reader_values, min_size=1, max_size=4),
    shapes=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=2),
    bundle=st.booleans(),
)
@example(data=None, pool=[], shapes=[(2, 6), (2, 6)], bundle=True)
def test_load_matrices_gives_json_loads_bits(tmp_path_factory, data, pool, shapes, bundle):
    parts = iter([SPELLINGS, [row[::-1] for row in SPELLINGS]] * 2)

    def texts(rows, cols):  # entries from a small pool, each in a drawn spelling
        if data is None:
            return next(parts)
        picks = st.tuples(st.sampled_from(pool), st.integers(0, 8))
        drawn = data.draw(st.lists(picks, min_size=rows * cols, max_size=rows * cols))
        spelled = [number_texts(x)[k % len(number_texts(x))] for x, k in drawn]
        return [spelled[r * cols : (r + 1) * cols] for r in range(rows)]

    objs = [matrix_text(3, texts(*shape), texts(*shape)) for shape in shapes]
    keys = [f"K{i}" for i in range(len(objs))] if bundle else ["K0"]
    text = "{" + ", ".join(f'"{k}": {o}' for k, o in zip(keys, objs)) + "}" if bundle else objs[0]
    path = tmp_path_factory.mktemp("bits") / "m.json"
    path.write_text(text)
    oracle = plain_json_parts(str(path), *keys)
    for (a, d), (re, im) in zip(load_matrices(str(path), *keys), oracle, strict=True):
        assert d == 3
        assert np.array_equal(a.real.view(np.int64), re.view(np.int64))
        assert np.array_equal(a.imag.view(np.int64), im.view(np.int64))


def test_a_repeated_number_text_is_converted_once(tmp_path, monkeypatch):
    import naimark.io

    path = tmp_path / "m.json"
    re, im = [["0.1", "0.1"], ["0.0", "-0.0"]], [["-0.0", "0.1"], ["0.1", "0.0"]]
    path.write_text(matrix_text(2, re, im))
    parsed = []
    real_loads = naimark.io.json.loads
    monkeypatch.setattr(
        naimark.io.json, "loads", lambda s, **kw: parsed.append(real_loads(s, **kw)) or parsed[-1]
    )
    [(a, _)] = load_matrices(str(path), "A")
    assert a[0, 0] == 0.1 + 0j and np.signbit(a[1, 1].real) and not np.signbit(a[1, 0].real)
    # A conversion makes a new float: one object per distinct text means one conversion each.
    entries = list(chain(*parsed[0]["re"], *parsed[0]["im"]))
    assert len(entries) == 8 and len({id(x) for x in entries}) == 3


def spy_loads(monkeypatch):
    """The keyword arguments of each json.loads call the reader makes, in order."""
    import naimark.io

    calls, real_loads = [], naimark.io.json.loads
    monkeypatch.setattr(
        naimark.io.json, "loads", lambda s, **kw: calls.append(kw) or real_loads(s, **kw)
    )
    return calls


def test_a_block_circulant_u_at_d16_is_parsed_once_through_the_memo(tmp_path, monkeypatch):
    # U's d**4 entries hold at most d**3 distinct values; this 4 MB bundle of a Haar M holds
    # 4,986 distinct number texts, under the memo's cap of 8,754.
    m = rand_unitary(16, np.random.default_rng(16))
    path = tmp_path / "b.json"
    bundle = {"U": matrix_to_obj(build_block_naimark(m).U, 16), "M": matrix_to_obj(m, 16)}
    path.write_text(dumps(bundle))
    calls = spy_loads(monkeypatch)
    (u, _), (a, _) = load_matrices(str(path), "U", "M")
    memo = calls[0]["parse_float"].__self__
    assert len(calls) == 1 and len(memo) < memo.cap
    for got, (re, im) in zip((u, a), plain_json_parts(str(path), "U", "M"), strict=True):
        assert np.array_equal(got.real.view(np.int64), re.view(np.int64))
        assert np.array_equal(got.imag.view(np.int64), im.view(np.int64))


def test_a_file_of_distinct_numbers_is_parsed_again_without_the_memo(tmp_path, monkeypatch):
    # 4,608 distinct texts in 129 kB, past the cap of 1,274 (1,024 plus one per 512 characters):
    # the memo stops at its cap and a plain parse gives the values, so memory stays bounded.
    path = tmp_path / "m.json"
    path.write_text(dumps(matrix_to_obj(rand_unitary(48, np.random.default_rng(48)), 48)))
    calls = spy_loads(monkeypatch)
    [(a, _)] = load_matrices(str(path), "A")
    memo = calls[0]["parse_float"].__self__
    assert memo.cap == 1024 + len(path.read_text()) // 512 and len(memo) == memo.cap
    assert calls[1:] == [{}]
    [(re, im)] = plain_json_parts(str(path), "A")
    assert np.array_equal(a.real.view(np.int64), re.view(np.int64))
    assert np.array_equal(a.imag.view(np.int64), im.view(np.int64))
