"""JSON schemas for matrices, gate lists, and outcome data.

Matrix files are plain JSON objects

    {"d": int, "rows": int, "cols": int, "re": [[...]], "im": [[...]]}

with row-major nested arrays; Python's repr-based float serialization makes
the round trip bit-exact.  Reading is strict, by the rule kets follow too:
only JSON ints and floats are numbers, and `d`, `rows` and `cols` must be
ints.  A bundle, such as `build` output, holds matrices under keys, and a
missing key is named.  The `circuit` command writes gate lists as

    {"n_qubits": int, "gates": [{"kind": "H"|"R"|"CR"|"SWAP"|"U", ...}]}

where gates appear in application order (first element applied first), R/CR
carry "k" and an optional "dagger" flag for conjugated phases, and opaque "U"
gates carry their matrix as "re"/"im" arrays.  Nothing reads them back.

Command output is written by `dumps`, whose text is, byte for byte, what
Python's json module writes with indent 2 and NaN/Inf refused, reading a float
array as its `tolist()`.  The producers here put float64 arrays, not lists, into
their objects.  A 1-d or 2-d float64 array is written in bulk: each distinct bit
pattern is formatted once by `float.__repr__` and the rows are gathered from
those strings.  That pays because U is block circulant: every block row is the
first one rolled, so its d**4 entries hold at most d**3 distinct values.  Lists
and tuples are written item by item.  The reader converts each distinct number
text once (up to a cap, see `_parse`) and gives json.load's values bit for bit.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .circuits import Gate, GateList
from .errors import ParseError


# json's own encoder for scalars: what json.dumps runs with allow_nan=False.
_SCALAR = json.JSONEncoder(allow_nan=False)

# The types of JSON numbers as json parses them.  json also gives bool for true and
# false, str and None; none of them is a number, and nothing coerces them into one.
NUMBERS = frozenset((int, float))


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
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write(v, level + 1, out)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(o, np.ndarray):
        _write_array(o, indent, out)
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


def _write_array(a: np.ndarray, indent: str, out: list[str]) -> None:
    """Append the text of a.tolist() for a 1-d or 2-d float64 array a; indent is the
    newline and indent of its closing bracket.  float.__repr__ is called once per
    distinct bit pattern (so -0.0 and 0.0 stay apart)."""
    if a.dtype != np.float64 or a.ndim not in (1, 2):
        raise TypeError(f"Object of type ndarray ({a.ndim}-d {a.dtype}) is not JSON serializable")
    finite = np.isfinite(a)
    if not finite.all():
        _SCALAR.encode(float(a[~finite][0]))  # raises json's ValueError
    bits, inverse = np.unique(a.ravel().view(np.int64), return_inverse=True)
    reprs = np.array([float.__repr__(x) for x in bits.view(np.float64).tolist()], dtype=object)
    texts = reprs[inverse].reshape(a.shape).tolist()
    if a.ndim == 2:
        texts = ["".join(_bracket(row, indent + "  ")) for row in texts]
    out += _bracket(texts, indent)


def _bracket(items: list[str], indent: str) -> tuple[str, ...]:
    """The text, in pieces, of a list whose items have the texts given; indent is the
    newline and indent of its closing bracket."""
    inner = indent + "  "
    return ("[", inner, ("," + inner).join(items), indent, "]") if items else ("[]",)


def matrix_to_obj(a: np.ndarray, d: int) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ParseError(f"expected a 2-d array, got ndim={a.ndim}")
    return {
        "d": int(d),
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real,
        "im": a.imag,
    }


def obj_to_matrix(obj: dict) -> tuple[np.ndarray, int]:
    """Parse a matrix object, returning (matrix, d)."""
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    try:
        d, rows, cols, re, im = (obj[k] for k in ("d", "rows", "cols", "re", "im"))
        if {type(d), type(rows), type(cols)} != {int}:
            raise TypeError("d, rows and cols must be JSON integers")
        if not set(map(type, chain(*re, *im))) <= NUMBERS:  # the entries of the rows
            raise TypeError("re and im must hold JSON numbers only")
        re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix object: {exc}") from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise ParseError(
            f"array shapes {re.shape}/{im.shape} do not match rows x cols = {rows}x{cols}"
        )
    a = np.empty((rows, cols), dtype=complex)
    a.real, a.imag = re, im  # keeps the bits of both parts: re + 1j*im turns -0.0 into 0.0
    if not np.isfinite(a).all():
        raise ParseError("matrix has non-finite entries (NaN or Inf)")
    return a, d


class _Memo(dict):
    """json's parse_float: float(text) once per distinct number text, up to `cap` texts."""

    class Full(Exception):
        pass

    def __init__(self, cap: int):
        self.cap = cap

    def __missing__(self, text: str) -> float:
        if len(self) >= self.cap:
            raise _Memo.Full
        value = self[text] = float(text)
        return value


def _parse(text: str):
    """json.loads(text), converting each distinct number text once while there are at most
    1,024 plus one per 512 characters (one number in 16 of an indented matrix file); a file
    with more is parsed again without the memo, which would otherwise grow with the file."""
    try:
        return json.loads(text, parse_float=_Memo(1024 + len(text) // 512).__getitem__)
    except _Memo.Full:
        pass  # leaving the handler frees the memo before the second parse
    return json.loads(text)


def load_matrices(path: str, *keys: str) -> list[tuple[np.ndarray, int]]:
    """Read a matrix file once and take one matrix per key: a bundle's `key` entry
    (as in build output) or a plain file's matrix.  For its file's d >= 1, an "M"
    must be d x d and a "U" d**2 x d**2; M is checked first."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = _parse(fh.read())
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8, long ints
        raise ParseError(f"cannot read matrix file {path}: {exc}") from exc
    bundle = isinstance(obj, dict) and "re" not in obj
    missing = [key for key in keys if bundle and key not in obj]
    if missing:
        raise ParseError(f"matrix file {path} has no {missing[0]!r} entry")
    out = [obj_to_matrix(obj[key] if bundle else obj) for key in keys]
    loaded = dict(zip(keys, out))
    for key, power in (("M", 1), ("U", 2)):  # M is d x d, U is d**2 x d**2
        if key in loaded:
            a, d = loaded[key]
            if d < 1 or a.shape != (d**power, d**power):
                raise ParseError(f"file says d={d} but {key} is {a.shape[0]}x{a.shape[1]}")
    return out


def gate_to_obj(g: Gate) -> dict:
    out: dict = {"kind": g.kind, "wires": list(g.wires)}
    if g.k is not None:
        out["k"] = g.k
    if g.dagger:
        out["dagger"] = True
    if g.kind == "U":
        out["re"] = g.matrix.real
        out["im"] = g.matrix.imag
    return out


def gatelist_to_obj(circuit: GateList) -> dict:
    return {"n_qubits": circuit.n_qubits, "gates": [gate_to_obj(g) for g in circuit.gates]}


def distribution_to_obj(d: int, probs: np.ndarray) -> dict:
    """Flat probability array indexed by j*d + k."""
    return {"d": int(d), "index": "j*d+k", "probs": np.asarray(probs, dtype=float)}
