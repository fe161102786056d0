"""JSON schemas for matrices, gate lists, and outcome data.

Matrix files are plain JSON objects

    {"d": int, "rows": int, "cols": int, "re": [[...]], "im": [[...]]}

with row-major nested arrays; Python's repr-based float serialization makes
the round trip bit-exact.  Circuit files are

    {"n_qubits": int, "gates": [{"kind": "H"|"R"|"CR"|"SWAP"|"U", ...}]}

where gates appear in application order (first element applied first), R/CR
carry "k" and an optional "dagger" flag for conjugated phases, and opaque "U"
gates carry their matrix as "re"/"im" arrays.
"""

from __future__ import annotations

import json

import numpy as np

from .circuits import Gate, GateList
from .errors import ParseError


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


def save_matrix(path: str, a: np.ndarray, d: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_obj(a, d), fh)
        fh.write("\n")


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
