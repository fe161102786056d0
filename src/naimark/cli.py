"""Command-line interface: build, verify, simulate, circuit, catalog.

All outputs are UTF-8 JSON on stdout (or --out FILE); human-oriented one-line
summaries go to stderr.  Exit codes: 0 success, 1 a requested check failed,
2 invalid input, 3 unreadable/malformed file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .bell import build_bell_naimark, fiducial_for_embedding
from .block import (
    M_FIDUCIAL_LABELS,
    M_LABELS,
    build_block_naimark,
    catalog_m,
    complete_unitary,
    structure_report,
)
from .circuits import (
    GateList,
    cx_qudit_circuit,
    cz_qudit_circuit,
    expand,
    full_naimark_circuit,
    qudit_fourier_circuit,
)
from .errors import (
    InvalidInputError,
    NaimarkError,
    ParseError,
    UnsupportedDimensionError,
)
from .fiducials import (
    _CATALOG,
    Fiducial,
    builtin_fiducial,
    is_informationally_complete,
    sic_report,
    compound_sic_report,
)
from .io import (
    counts_to_obj,
    distribution_to_obj,
    gatelist_to_obj,
    matrix_to_obj,
    obj_to_matrix,
)
from .simulate import direct_probabilities, measure_probabilities, sample
from .wh import bell_change_of_basis, clock_op, fourier, max_abs, shift_op

_FIDUCIAL_TO_M = {v: k for k, v in M_FIDUCIAL_LABELS.items()}


def _default_tol(args) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("NAIMARK_TOL")
    if env:
        try:
            return float(env)
        except ValueError:
            raise InvalidInputError(f"NAIMARK_TOL is not a number: {env!r}") from None
    return 1e-10


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_ket(text: str) -> np.ndarray:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"ket is not valid JSON: {exc}") from exc
    try:
        entries = [complex(x[0], x[1]) if isinstance(x, list) else complex(x) for x in raw]
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"ket must be a list of numbers or [re, im] pairs: {exc}") from exc
    return np.array(entries, dtype=complex)


def _resolve_fiducial(args) -> Fiducial:
    if args.catalog:
        for (d, label) in _CATALOG:
            if label == args.catalog:
                return builtin_fiducial(d, label)
        known = ", ".join(sorted(label for _, label in _CATALOG))
        raise InvalidInputError(f"unknown catalog label {args.catalog!r}; known: {known}")
    if args.ket:
        ket = _parse_ket(args.ket)
    elif args.ket_file:
        try:
            with open(args.ket_file, "r", encoding="utf-8") as fh:
                ket = _parse_ket(fh.read())
        except OSError as exc:
            raise ParseError(f"cannot read ket file: {exc}") from exc
    else:
        raise InvalidInputError("provide a fiducial via --catalog, --ket, or --ket-file")
    return Fiducial(dim=ket.shape[0], ket=ket, label=args.catalog or "inline")


def _completion_for(fid: Fiducial) -> tuple[np.ndarray, str]:
    """Catalog completion when the fiducial is cataloged, else deterministic."""
    m_label = _FIDUCIAL_TO_M.get(fid.label)
    if m_label is not None:
        return catalog_m(m_label), m_label
    return complete_unitary(fid), "completed"


def _build_extension(m: np.ndarray, construction: str):
    if construction == "bell":
        return build_bell_naimark(m)
    return build_block_naimark(m)


def _load_matrix_flexible(path: str, key: str) -> tuple[np.ndarray, int]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read matrix file {path}: {exc}") from exc
    if isinstance(obj, dict) and "re" not in obj and key in obj:
        obj = obj[key]
    return obj_to_matrix(obj)


def cmd_build(args) -> int:
    tol = _default_tol(args)
    fid = _resolve_fiducial(args)
    m, m_source = _completion_for(fid)
    ext = _build_extension(m, args.construction)
    residual = max_abs(ext.U.conj().T @ ext.U - np.eye(ext.d**2))
    ic = is_informationally_complete(fid, tol=tol)
    if not ic:
        print(
            f"warning: fiducial is not informationally complete "
            f"(Gram rank {ic.gram_rank} < {fid.dim ** 2}, witness overlap "
            f"{ic.witness_overlap:.3e} at {ic.witness_index})",
            file=sys.stderr,
        )
    out = {
        "d": ext.d,
        "construction": ext.provenance,
        "fiducial_label": fid.label,
        "completion_source": m_source,
        "unitarity_residual": residual,
        "informationally_complete": bool(ic),
        "sic_deviation": sic_report(fid),
        "M": matrix_to_obj(ext.M, ext.d),
        "U": matrix_to_obj(ext.U, ext.d),
    }
    _emit(out, args.out)
    print(f"{ext.provenance}: d={ext.d}, unitarity residual {residual:.3e}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    tol = _default_tol(args)
    u, d = _load_matrix_flexible(args.u, "U")
    m = None
    if args.m:
        m, _ = _load_matrix_flexible(args.m, "M")
    report = structure_report(u, m)
    if report["d"] != d:
        print(f"warning: file says d={d} but U is {u.shape[0]}x{u.shape[1]}", file=sys.stderr)
    checks = {
        k: report[k]
        for k in (
            "unitarity",
            "block_circulant",
            "block_rank_one",
            "recovered_m_unitarity",
            "block_constraints",
        )
    }
    if "m_match" in report:
        checks["m_match"] = report["m_match"]
    ok = all(v <= tol for v in checks.values())
    out = {"d": report["d"], "tol": tol, "checks": checks, "pass": ok}
    if ok:
        m_rec = report["recovered_m"]
        out["fiducial_sic_deviation"] = sic_report(m_rec[0].conj())
        out["compound_sic_deviations"] = compound_sic_report(m_rec, tol=tol)
    _emit(out, args.out)
    status = "pass" if ok else "FAIL"
    worst = max(checks.values())
    print(f"verify: {status} (worst residual {worst:.3e}, tol {tol:.1e})", file=sys.stderr)
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    tol = _default_tol(args)
    fid = _resolve_fiducial(args)
    if args.state:
        psi = _parse_ket(args.state)
    elif args.state_file:
        try:
            with open(args.state_file, "r", encoding="utf-8") as fh:
                psi = _parse_ket(fh.read())
        except OSError as exc:
            raise ParseError(f"cannot read state file: {exc}") from exc
    else:
        raise InvalidInputError("provide an input state via --state or --state-file")
    norm = float(np.linalg.norm(psi))
    if not (abs(norm - 1.0) <= 1e-10):
        raise InvalidInputError(f"input state is not normalized: ||psi|| = {norm:.12g}")
    if psi.shape[0] != fid.dim:
        raise InvalidInputError(f"state has dim {psi.shape[0]}, fiducial has dim {fid.dim}")

    m, m_source = _completion_for(fid)
    ext = _build_extension(m, args.construction)
    dist = measure_probabilities(ext, psi, args.index)
    out = distribution_to_obj(ext.d, dist.probs)
    out["construction"] = ext.provenance
    out["completion_source"] = m_source
    out["embedding_index"] = args.index
    rc = 0
    if args.check:
        oracle = direct_probabilities(fiducial_for_embedding(m, args.index), psi)
        residual = max_abs(dist.probs - oracle.probs)
        out["check_residual"] = residual
        if residual > tol:
            rc = 1
        print(f"oracle cross-check residual {residual:.3e}", file=sys.stderr)
    if args.shots > 0:
        counts = sample(dist, args.shots, args.seed)
        out.update(counts_to_obj(ext.d, counts))
        out["shots"] = args.shots
        out["seed"] = args.seed
    _emit(out, args.out)
    return rc


_CIRCUIT_TARGETS = ("cz", "cx", "fourier", "bell", "naimark")


def _bell_rotation_circuit(n: int) -> GateList:
    shift_inv = cx_qudit_circuit(n).inverse()
    f_dag = qudit_fourier_circuit(n, wire_offset=n, n_qubits=2 * n).inverse()
    return GateList(2 * n, shift_inv.gates + f_dag.gates)


def cmd_circuit(args) -> int:
    tol = _default_tol(args)
    n = args.n
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    d = 2**n
    closed_form = None
    if args.target == "cz":
        circ = cz_qudit_circuit(n)
        closed_form = sum(
            np.kron(np.linalg.matrix_power(clock_op(d), mm), _proj(d, mm)) for mm in range(d)
        )
    elif args.target == "cx":
        circ = cx_qudit_circuit(n)
        closed_form = sum(
            np.kron(np.linalg.matrix_power(shift_op(d), mm), _proj(d, mm)) for mm in range(d)
        )
    elif args.target == "fourier":
        circ = qudit_fourier_circuit(n)
        closed_form = fourier(d)
    elif args.target == "bell":
        circ = _bell_rotation_circuit(n)
        closed_form = bell_change_of_basis(d)
    else:
        if not args.m:
            raise InvalidInputError("circuit naimark needs --m FILE")
        m, _ = _load_matrix_flexible(args.m, "M")
        if m.shape != (d, d):
            raise UnsupportedDimensionError(
                f"completion matrix is {m.shape[0]}x{m.shape[1]}; qubit synthesis needs d = 2**n = {d}"
            )
        circ = full_naimark_circuit(m, n)
        closed_form = build_bell_naimark(m).U

    out = gatelist_to_obj(circ)
    out["target"] = args.target
    rc = 0
    if args.expand:
        mat = expand(circ)
        residual = max_abs(mat - closed_form)
        out["expanded"] = matrix_to_obj(mat, d)
        out["closed_form_residual"] = residual
        if residual > tol:
            rc = 1
        print(f"expansion residual vs closed form: {residual:.3e}", file=sys.stderr)
    _emit(out, args.out)
    return rc


def _proj(d: int, m: int) -> np.ndarray:
    p = np.zeros((d, d))
    p[m, m] = 1.0
    return p


def cmd_catalog(args) -> int:
    fiducials = []
    for (d, label), ket in sorted(_CATALOG.items()):
        fiducials.append(
            {
                "label": label,
                "d": d,
                "re": ket.real.tolist(),
                "im": ket.imag.tolist(),
                "sic_deviation": sic_report(ket),
            }
        )
    completions = []
    for label in M_LABELS:
        m = catalog_m(label)
        completions.append(
            {
                "label": label,
                "d": m.shape[0],
                "fiducial_label": M_FIDUCIAL_LABELS[label],
                "M": matrix_to_obj(m, m.shape[0]),
            }
        )
    _emit({"fiducials": fiducials, "completions": completions}, args.out)
    return 0


def _add_fiducial_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--catalog", help="catalog fiducial label (see `naimark catalog`)")
    p.add_argument("--ket", help="inline JSON ket: [[re,im],...] or [re,...]")
    p.add_argument("--ket-file", help="file containing a JSON ket")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="naimark",
        description="Construct, verify, and simulate Naimark extensions of "
        "Weyl-Heisenberg covariant rank-one measurements.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct the extension unitary from a fiducial")
    _add_fiducial_flags(p)
    p.add_argument("--construction", choices=("block", "bell"), default="block")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run structural checks on a stored unitary")
    p.add_argument("--u", required=True, help="matrix file (or build output) holding U")
    p.add_argument("--m", help="optional matrix file holding M for cross-checking")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="outcome distribution for an input state")
    _add_fiducial_flags(p)
    p.add_argument("--state", help="inline JSON ket for the input state")
    p.add_argument("--state-file")
    p.add_argument("--index", type=int, default=0, help="embedding index i (default 0)")
    p.add_argument("--shots", type=int, default=0, help="sampled counts (0 = exact only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true", help="cross-check against the direct oracle")
    p.add_argument("--construction", choices=("block", "bell"), default="block")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("circuit", help="emit qubit-level circuits (d = 2**n)")
    p.add_argument("target", choices=_CIRCUIT_TARGETS)
    p.add_argument("--n", type=int, required=True, help="qubits per register")
    p.add_argument("--m", help="matrix file with M (naimark target)")
    p.add_argument("--expand", action="store_true", help="include the expanded matrix")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("catalog", help="list built-in fiducials and completion matrices")
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NaimarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
