"""`io.dumps`, the writer of every CLI output, against its oracle
json.dumps(obj, indent=2, allow_nan=False)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naimark import catalog_m
from naimark.cli import _emit, main
from naimark.errors import NumericalFailureError
from naimark.io import dumps, matrix_to_obj


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


# Floats whose text is easy to get wrong, drawn often so that repeats are common.
AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e16, -1e16, 1e-5, 1e-4,
           0.1, 1 / 3, 1.0, -1.0, 1.7976931348623157e308, 123456789012345.67]
finite_floats = st.sampled_from(AWKWARD) | st.floats(allow_nan=False, allow_infinity=False)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
scalars = st.none() | st.booleans() | st.integers() | st.text() | finite_floats
keys = st.text() | st.integers() | st.booleans() | st.none() | finite_floats


@st.composite
def grids(draw, cells=finite_floats):
    """A list of rows; mostly rectangular float rows, sometimes ragged or with
    ints and bools among the floats."""
    width = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), max_size=5))
    if rows and draw(st.booleans()):
        row = draw(st.integers(0, len(rows) - 1))
        rows[row] = rows[row] + draw(st.lists(st.integers() | st.booleans() | cells, max_size=2))
    return rows


def json_values(cells=finite_floats):
    leaves = scalars | grids(cells) | st.lists(cells) | st.just([[]])
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(keys, children, max_size=4),
        max_leaves=12,
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(json_values())
def test_dumps_is_json_dumps_indent_2(obj):
    assert dumps(obj) == oracle(obj)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(json_values(finite_floats | non_finite))
def test_dumps_raises_where_json_dumps_raises(obj):
    try:
        expected = oracle(obj)
    except ValueError:
        with pytest.raises(ValueError):
            dumps(obj)
    else:
        assert dumps(obj) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(1, 5).flatmap(lambda w: st.lists(st.lists(finite_floats, min_size=w, max_size=w), min_size=1)),
    non_finite,
    st.integers(0, 2**16),
    st.sampled_from(["cell", "item", "key", "value"]),
)
def test_non_finite_anywhere_raises_value_error(rows, bad, pos, where):
    flat = [x for row in rows for x in row]
    if where == "cell":  # in a rectangular grid of floats
        width = len(rows[0])
        flat[pos % len(flat)] = bad
        obj = {"m": [flat[i : i + width] for i in range(0, len(flat), width)]}
    elif where == "item":  # in a list of floats
        obj = flat[: pos % len(flat)] + [bad] + flat[pos % len(flat) :]
    elif where == "key":
        obj = {"a": rows, bad: 1}
    else:
        obj = {"a": rows, "b": bad}
    with pytest.raises(ValueError):
        oracle(obj)
    with pytest.raises(ValueError):
        dumps(obj)


@pytest.mark.parametrize(
    "obj", [{(1, 2): 0}, {"a": np.int64(3)}, [1.0, {1, 2}], [[1.0], [object()]], np.zeros(2)]
)
def test_unsupported_types_and_keys_raise_type_error(obj):
    with pytest.raises(TypeError):
        oracle(obj)
    with pytest.raises(TypeError):
        dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [[], {}, [[]], [[], []], [[1.0, 2.0]], [[1.0], [2.0]], [[1.0, 2], [3.0, 4.0]],
     [[1.0, True], [0.0, -0.0]], [[1.0, 2.0], [3.0]], [-0.0, 0.0, -0.0], "ünïcode ☃", 5e-324],
)
def test_dumps_shapes(obj):
    assert dumps(obj) == oracle(obj)


def test_block_circulant_u_is_written_as_json_writes_it():
    u = np.roll(np.kron(np.eye(4), catalog_m("ququart")), 3, axis=1)
    obj = {"re": u.real.tolist(), "im": u.imag.tolist()}
    assert dumps(obj) == oracle(obj)


def cli_outputs(tmp_path, capsys):
    """The output of every command: its stdout, or its --out file."""
    m_path, build_path = tmp_path / "m.json", tmp_path / "build.json"
    m_path.write_text(dumps(matrix_to_obj(catalog_m("ququart"), 4)))
    commands = [
        ["catalog"],
        ["build", "--catalog", "hesse"],
        ["build", "--catalog", "ququart-sic", "--construction", "bell", "--out", str(build_path)],
        ["verify", "--u", str(build_path), "--m", str(build_path)],
        ["simulate", "--catalog", "qubit-sic", "--state", "[1,0]", "--check", "--shots", "100"],
        ["circuit", "cz", "--n", "2", "--expand"],
        ["circuit", "naimark", "--n", "2", "--m", str(m_path), "--expand"],
    ]
    for argv in commands:
        assert main(argv) == 0
        out = capsys.readouterr().out
        yield build_path.read_text() if "--out" in argv else out


def test_every_cli_output_is_json_indent_2_text(tmp_path, capsys):
    outputs = list(cli_outputs(tmp_path, capsys))
    assert all(outputs)
    for out in outputs:
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_emit_of_a_non_finite_value_raises_and_writes_no_file(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(NumericalFailureError):
        _emit({"U": [[1.0, math.nan]]}, str(path))
    assert not path.exists()


def test_non_finite_result_exits_2_and_leaves_no_out_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("naimark.cli.unitarity_residual", lambda u: math.nan)
    path = tmp_path / "out.json"
    assert main(["build", "--catalog", "hesse", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert not path.exists()
    assert captured.out == ""
    assert "non-finite" in captured.err
