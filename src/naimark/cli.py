"""Command-line interface: build, verify, simulate, circuit, catalog.

All outputs are UTF-8 JSON on stdout (or --out FILE); human-oriented one-line
summaries go to stderr.  Exit codes: 0 success, 1 a requested check failed,
2 invalid input or out of memory, 3 unreadable/malformed file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys

import numpy as np

from . import __version__
from .bell import controlled_clock, controlled_shift, fiducial_for_embedding
from .block import build_block_naimark, complete_unitary, structure_report
from .circuits import (
    bell_rotation_circuit,
    cx_qudit_circuit,
    cz_qudit_circuit,
    expand,
    full_naimark_circuit,
    qudit_fourier_circuit,
)
from .errors import InvalidInputError, NaimarkError, NumericalFailureError, ParseError
from .fiducials import (
    CATALOG,
    Fiducial,
    is_informationally_complete,
    sic_report,
    compound_sic_report,
)
from .io import (
    NUMBERS,
    distribution_to_obj,
    dumps,
    gatelist_to_obj,
    load_matrices,
    matrix_to_obj,
)
from .simulate import direct_probabilities, measure_probabilities, sample
from .wh import (
    PHYSICAL_TOL,
    bell_change_of_basis,
    fourier,
    max_abs,
    require_normalized,
    require_unitary,
    unitarity_residual,
)


def _tol(args) -> float:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise InvalidInputError(f"--tol must be finite and >= 0, got {args.tol!r}")
    return args.tol


def _emit(obj: dict, out: str | None) -> None:
    try:
        text = dumps(obj)
    except ValueError:
        raise NumericalFailureError("result has non-finite values (NaN or Inf)") from None
    if out:
        try:  # In place, no O_TRUNC: freeing a file's blocks can wait for a discard (README).
            fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
            end = 0  # a failed write leaves no bytes of the old document
            try:
                with open(fd, "w", encoding="utf-8", closefd=False) as fh:
                    print(text, file=fh)
                end = os.lseek(fd, 0, os.SEEK_CUR)
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):  # not /dev/null or a FIFO
                    os.ftruncate(fd, end)
                os.close(fd)
        except OSError as exc:
            raise ParseError(f"cannot write output file: {exc}") from exc
    else:
        print(text)


def _parse_ket(text: str) -> np.ndarray:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or an over-long int
        raise ParseError(f"ket is not valid JSON: {exc}") from exc

    def number(x) -> bool:
        return type(x) in NUMBERS

    def pair(x) -> bool:
        return type(x) is list and len(x) == 2 and all(map(number, x))

    if type(raw) is not list or not all(number(x) or pair(x) for x in raw):
        raise ParseError("ket must be a JSON list of numbers or [re, im] pairs of numbers")
    try:
        return np.array([complex(*x) if pair(x) else complex(x) for x in raw], dtype=complex)
    except OverflowError as exc:  # an integer literal too large for a float
        raise ParseError(f"ket entry out of range: {exc}") from exc


def _read_ket(inline: str | None, path: str, what: str) -> np.ndarray:
    """The ket given inline, else the one in the file at path."""
    if inline is not None:
        return _parse_ket(inline)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: the file is not UTF-8
        raise ParseError(f"cannot read {what} file: {exc}") from exc
    return _parse_ket(text)


def _resolve_fiducial(args) -> tuple[Fiducial, np.ndarray, str]:
    """The fiducial, its completion M, and M's source: the catalog, else "completed"."""
    if args.catalog is not None:
        entry = CATALOG.get(args.catalog)
        if entry is None:
            known = ", ".join(sorted(CATALOG))
            raise InvalidInputError(f"unknown catalog label {args.catalog!r}; known: {known}")
        fid = Fiducial(dim=len(entry.ket), ket=entry.ket.copy(), label=entry.label)
        if entry.m is not None:
            return fid, entry.m.copy(), entry.m_label
    else:
        ket = _read_ket(args.ket, args.ket_file, "ket")
        fid = Fiducial(dim=ket.shape[0], ket=ket, label="inline")
    return fid, complete_unitary(fid), "completed"


def cmd_build(args) -> int:
    tol = _tol(args)
    fid, m, m_source = _resolve_fiducial(args)
    ext = build_block_naimark(m)
    residual = unitarity_residual(ext.U)
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
        "fiducial_label": fid.label,
        "completion_source": m_source,
        "unitarity_residual": residual,
        "informationally_complete": bool(ic),
        "sic_deviation": sic_report(fid),
        "M": matrix_to_obj(ext.M, ext.d),
        "U": matrix_to_obj(ext.U, ext.d),
    }
    _emit(out, args.out)
    print(f"build: d={ext.d}, unitarity residual {residual:.3e}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    tol = _tol(args)
    if args.m == args.u:  # one bundle (build output) holds both: parse it once
        (u, d), (m, _) = load_matrices(args.u, "U", "M")
    else:
        [(u, d)] = load_matrices(args.u, "U")
        m = load_matrices(args.m, "M")[0][0] if args.m is not None else None
    report = structure_report(u, m)
    checks = {k: v for k, v in report.items() if k not in ("d", "recovered_m")}
    ok = all(v <= tol for v in checks.values())
    out = {"d": report["d"], "tol": tol, "checks": checks, "pass": ok}
    if ok:
        # Row 0 of the recovered M is the fiducial's bra.
        compound = compound_sic_report(report["recovered_m"], tol=tol)
        out["fiducial_sic_deviation"] = compound[0]
        out["compound_sic_deviations"] = compound
    _emit(out, args.out)
    status = "pass" if ok else "FAIL"
    worst = max(checks.values())
    print(f"verify: {status} (worst residual {worst:.3e}, tol {tol:.1e})", file=sys.stderr)
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    tol = _tol(args)
    for flag, value in (("--shots", args.shots), ("--seed", args.seed)):
        if value < 0:
            raise InvalidInputError(f"{flag} must be >= 0, got {value}")
    fid, m, m_source = _resolve_fiducial(args)
    psi = _read_ket(args.state, args.state_file, "state")
    require_normalized(psi, "input state")

    dist = measure_probabilities(m, psi, args.index)
    out = distribution_to_obj(fid.dim, dist.probs)
    out["completion_source"] = m_source
    out["embedding_index"] = args.index
    rc = 0
    if args.check:
        oracle = direct_probabilities(fiducial_for_embedding(m, args.index), psi)
        residual = max_abs(dist.probs - oracle.probs)
        out["check_residual"] = residual
        if not (residual <= tol):
            rc = 1
        print(f"oracle cross-check residual {residual:.3e}", file=sys.stderr)
    if args.shots > 0:
        counts = sample(dist, args.shots, args.seed)
        out["counts"] = counts.tolist()
        out["shots"] = args.shots
        out["seed"] = args.seed
    _emit(out, args.out)
    return rc


# Each target's gate list and the dense closed form its expansion must match.  The circuits
# realize sum_m Z^m x |m><m| and sum_m X^m x |m><m|: the conjugate of the bell module's
# controlled clock and the transpose of its controlled shift, which carry inverse powers.
_CIRCUITS = {
    "cz": (cz_qudit_circuit, lambda d: controlled_clock(d).conj()),
    "cx": (cx_qudit_circuit, lambda d: controlled_shift(d).conj().T),
    "fourier": (qudit_fourier_circuit, fourier),
    "bell": (bell_rotation_circuit, bell_change_of_basis),
}
_CIRCUIT_TARGETS = (*_CIRCUITS, "naimark")
# cz alone emits n * (2**n - 1) gates: 10,230 at n = 10.
_MAX_CIRCUIT_N = 10
# --expand writes 4**n entries for a two-register circuit: at n = 5 a 1024 x 1024
# matrix, about 2M floats of JSON.
_MAX_EXPAND_N = 5


def cmd_circuit(args) -> int:
    tol = _tol(args)
    if args.target != "naimark" and args.m is not None:
        raise InvalidInputError(f"only `circuit naimark` reads --m, not `circuit {args.target}`")
    n = args.n
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    limit = _MAX_EXPAND_N if args.expand else _MAX_CIRCUIT_N
    if n > limit:
        flag = " with --expand" if args.expand else ""
        raise InvalidInputError(f"need n <= {limit}{flag}, got {n}")
    d = 2**n
    m = None
    if args.target == "naimark":
        if args.m is None:
            raise InvalidInputError("circuit naimark needs --m FILE")
        [(m, _)] = load_matrices(args.m, "M")
        circ = full_naimark_circuit(require_unitary(m, PHYSICAL_TOL, "completion matrix M"), n)
    else:
        circ = _CIRCUITS[args.target][0](n)

    out = gatelist_to_obj(circ)
    out["target"] = args.target
    rc = 0
    if args.expand:
        mat = expand(circ)
        closed_form = build_block_naimark(m).U if m is not None else _CIRCUITS[args.target][1](d)
        residual = max_abs(mat - closed_form)
        out["expanded"] = matrix_to_obj(mat, d)
        out["closed_form_residual"] = residual
        if not (residual <= tol):
            rc = 1
        print(f"expansion residual vs closed form: {residual:.3e}", file=sys.stderr)
    _emit(out, args.out)
    return rc


def cmd_catalog(args) -> int:
    fiducials = [
        {
            "label": e.label,
            "d": len(e.ket),
            "re": e.ket.real,
            "im": e.ket.imag,
            "sic_deviation": sic_report(e.ket),
        }
        for e in CATALOG.values()
    ]
    tabulated = sorted((e for e in CATALOG.values() if e.m is not None), key=lambda e: e.m_label)
    completions = [
        {
            "label": e.m_label,
            "d": len(e.m),
            "fiducial_label": e.label,
            "M": matrix_to_obj(e.m, len(e.m)),
        }
        for e in tabulated
    ]
    _emit({"fiducials": fiducials, "completions": completions}, args.out)
    return 0


def _add_fiducial_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--catalog", help="catalog fiducial label (see `naimark catalog`)")
    source.add_argument("--ket", help="inline JSON ket: [[re,im],...] or [re,...]")
    source.add_argument("--ket-file", help="file containing a JSON ket")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="naimark",
        description="Construct, verify, and simulate Naimark extensions of "
        "Weyl-Heisenberg covariant rank-one measurements.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=PHYSICAL_TOL)
    common.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("build", parents=[common],
                       help="construct the extension unitary from a fiducial")
    _add_fiducial_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", parents=[common],
                       help="run structural checks on a stored unitary")
    p.add_argument("--u", required=True, help="matrix file (or build output) holding U")
    p.add_argument("--m", help="optional matrix file holding M for cross-checking")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", parents=[common],
                       help="outcome distribution for an input state")
    _add_fiducial_flags(p)
    state = p.add_mutually_exclusive_group(required=True)
    state.add_argument("--state", help="inline JSON ket for the input state")
    state.add_argument("--state-file")
    p.add_argument("--index", type=int, default=0, help="embedding index i (default 0)")
    p.add_argument("--shots", type=int, default=0, help="sampled counts (0 = exact only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true", help="cross-check against the direct oracle")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("circuit", parents=[common], help="emit qubit-level circuits (d = 2**n)")
    p.add_argument("target", choices=_CIRCUIT_TARGETS)
    p.add_argument("--n", type=int, required=True, help="qubits per register")
    p.add_argument("--m", help="matrix file with M (naimark target)")
    p.add_argument("--expand", action="store_true", help="include the expanded matrix")
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("catalog", help="list built-in fiducials and completion matrices")
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Overflow and NaN reach the guards (written `not (x <= tol)`) and _emit, which
        # refuse them; numpy's warnings about them would break the one `error:` line.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NaimarkError, MemoryError) as exc:  # only a bare MemoryError has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
