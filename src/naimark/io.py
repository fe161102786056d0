"""JSON schemas for matrices, gate lists, and outcome data.

Matrix files are plain JSON objects

    {"d": int, "rows": int, "cols": int, "re": [[...]], "im": [[...]]}

with row-major nested arrays; Python's repr-based float serialization makes
the round trip bit-exact.  Circuit files are

    {"n_qubits": int, "gates": [{"kind": "H"|"R"|"CR"|"SWAP"|"U", ...}]}

where gates appear in application order (first element applied first), R/CR
carry "k" and an optional "dagger" flag for conjugated phases, and opaque "U"
gates carry their matrix as "re"/"im" arrays.

Command output is written by `dumps`, whose text is, byte for byte, what
Python's json module writes with indent 2 and NaN/Inf refused.  A list of floats,
or a rectangular list of float rows, is formatted in bulk: each distinct bit
pattern is formatted once by `float.__repr__` and the rows are gathered from
those strings.  That pays because U is block circulant: every block row is the
first one rolled, so its d**4 entries hold at most d**3 distinct values.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .circuits import Gate, GateList
from .errors import ParseError


# json's own encoder for scalars: what json.dumps runs with allow_nan=False.
_SCALAR = json.JSONEncoder(allow_nan=False)


def dumps(obj) -> str:
    """The text json.dumps writes for obj with indent 2 and allow_nan=False,
    byte for byte.

    NaN and Inf raise ValueError, and unsupported types or keys TypeError,
    before any text is returned.
    """
    out: list[str] = []
    _write(obj, 0, out)
    return "".join(out)


def _write(o, level: int, out: list[str]) -> None:
    """Append the text of o, nested level deep, to out."""
    indent = "\n" + "  " * level
    inner = indent + "  "
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        sep = "{" + inner
        for k, v in o.items():
            out += (sep, _key(k), ": ")
            _write(v, level + 1, out)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        if not _write_floats(o, inner, out):
            sep = "[" + inner
            for v in o:
                out.append(sep)
                _write(v, level + 1, out)
                sep = "," + inner
        out.append(indent + "]")
    elif type(o) is int:  # what json writes for an int, without its encoder's 1 us per call
        out.append(int.__repr__(o))
    else:
        out.append(_SCALAR.encode(o))


def _key(k) -> str:
    if isinstance(k, str):
        return _SCALAR.encode(k)
    if k is None or isinstance(k, (int, float)):  # bool is an int
        return _SCALAR.encode(_SCALAR.encode(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write_floats(o, inner: str, out: list[str]) -> bool:
    """Append the text of o, less its closing bracket, if o is a list of floats or
    a rectangular list of float rows; inner is the newline and indent of its items."""
    if set(map(type, o)) == {float}:
        out.append("[" + inner + ("," + inner).join(_float_reprs(o)))
        return True
    width = len(o[0]) if type(o[0]) is list else 0
    if not (width and set(map(type, o)) == {list} and set(map(len, o)) == {width}):
        return False
    flat = list(chain.from_iterable(o))
    if set(map(type, flat)) != {float}:
        return False
    reprs = _float_reprs(flat)
    row_inner = inner + "  "
    sep = "[" + inner
    for start in range(0, len(reprs), width):
        row = ("," + row_inner).join(reprs[start : start + width])
        out.append(f"{sep}[{row_inner}{row}{inner}]")
        sep = "," + inner
    return True


def _float_reprs(values: list) -> list[str]:
    """float.__repr__ of each value, called once per distinct bit pattern (so -0.0 and
    0.0 stay apart)."""
    a = np.array(values, dtype=np.float64)
    finite = np.isfinite(a)
    if not finite.all():
        _SCALAR.encode(values[int(np.argmin(finite))])  # raises json's ValueError
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    reprs = np.array([float.__repr__(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return reprs[inverse].tolist()


def matrix_to_obj(a: np.ndarray, d: int) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ParseError(f"expected a 2-d array, got ndim={a.ndim}")
    return {
        "d": int(d),
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def obj_to_matrix(obj: dict) -> tuple[np.ndarray, int]:
    """Parse a matrix object, returning (matrix, d)."""
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    try:
        d = int(obj["d"])
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed matrix object: {exc}") from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise ParseError(
            f"array shapes {re.shape}/{im.shape} do not match rows x cols = {rows}x{cols}"
        )
    return _complex(re, im, "matrix"), d


def _complex(re: np.ndarray, im: np.ndarray, what: str) -> np.ndarray:
    """re + i*im with the bits of both parts kept (re + 1j*im turns -0.0 into 0.0)."""
    a = np.empty(np.broadcast_shapes(re.shape, im.shape), dtype=complex)
    a.real, a.imag = re, im
    if not np.isfinite(a).all():
        raise ParseError(f"{what} has non-finite entries (NaN or Inf)")
    return a


def load_matrices(path: str, *keys: str) -> list[tuple[np.ndarray, int]]:
    """Read a matrix file once and take one matrix per key: from a bundle (such as
    build output) its `key` entry, from a plain matrix file the matrix itself."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read matrix file {path}: {exc}") from exc
    bundle = isinstance(obj, dict) and "re" not in obj
    return [obj_to_matrix(obj[key] if bundle and key in obj else obj) for key in keys]


def load_matrix(path: str, key: str = "U") -> tuple[np.ndarray, int]:
    """Read a matrix file; from a bundle (such as build output), take its `key` entry."""
    return load_matrices(path, key)[0]


def gate_to_obj(g: Gate) -> dict:
    out: dict = {"kind": g.kind, "wires": list(g.wires)}
    if g.k is not None:
        out["k"] = int(g.k)
    if g.dagger:
        out["dagger"] = True
    if g.kind == "U":
        out["re"] = g.matrix.real.tolist()
        out["im"] = g.matrix.imag.tolist()
    return out


def obj_to_gate(obj: dict) -> Gate:
    try:
        kind = obj["kind"]
        wires = tuple(int(w) for w in obj["wires"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed gate object: {exc}") from exc
    matrix = None
    if kind == "U":
        try:
            re = np.asarray(obj["re"], dtype=float)
            im = np.asarray(obj["im"], dtype=float)
            matrix = _complex(re, im, "U-gate matrix")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed U-gate matrix: {exc}") from exc
    k = obj.get("k")
    return Gate(kind, wires, k=None if k is None else int(k), dagger=bool(obj.get("dagger", False)), matrix=matrix)


def gatelist_to_obj(circuit: GateList) -> dict:
    return {"n_qubits": circuit.n_qubits, "gates": [gate_to_obj(g) for g in circuit.gates]}


def obj_to_gatelist(obj: dict) -> GateList:
    try:
        n = int(obj["n_qubits"])
        gates = tuple(obj_to_gate(g) for g in obj["gates"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed circuit object: {exc}") from exc
    return GateList(n, gates)


def distribution_to_obj(d: int, probs: np.ndarray) -> dict:
    """Flat probability array indexed by j*d + k."""
    return {"d": int(d), "index": "j*d+k", "probs": [float(p) for p in np.asarray(probs)]}


def counts_to_obj(d: int, counts: np.ndarray) -> dict:
    return {"d": int(d), "index": "j*d+k", "counts": [int(c) for c in np.asarray(counts)]}
