"""End-to-end exercises of the command-line interface."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from naimark import (
    OutcomeDistribution,
    bell_change_of_basis,
    build_block_naimark,
    catalog_m,
    sic_report,
)
from naimark.block import structure_report
from naimark.cli import main
from naimark.io import dumps, load_matrices, matrix_to_obj, obj_to_matrix
from naimark.wh import max_abs

from util import expected_hesse_u, expected_qubit_u, rand_ket

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_catalog_lists_everything(capsys):
    rc, out, _ = run(capsys, "catalog")
    assert rc == 0
    doc = json.loads(out)
    assert sorted(f["label"] for f in doc["fiducials"]) == [
        "hesse", "hesse-partner", "qubit-sic", "ququart-sic",
    ]
    assert sorted(c["label"] for c in doc["completions"]) == ["hesse", "qubit", "ququart"]


# The keys of `build`, in output order.
BUILD_KEYS = [
    "d", "fiducial_label", "completion_source", "unitarity_residual",
    "informationally_complete", "sic_deviation", "M", "U",
]


def test_build_hesse_block(capsys, tmp_path):
    out_path = tmp_path / "hesse.json"
    rc, _, err = run(capsys, "build", "--catalog", "hesse", "--out", str(out_path))
    assert rc == 0
    assert err.startswith("build: d=3, unitarity residual ")
    doc = json.loads(out_path.read_text())
    assert list(doc) == BUILD_KEYS
    u, d = obj_to_matrix(doc["U"])
    assert d == 3
    assert max_abs(u - expected_hesse_u()) < 1e-12
    assert doc["informationally_complete"] is True


# Each command names its fiducial, and simulate its input state, by exactly one flag.
NO_FIDUCIAL = "error: one of the arguments --catalog --ket --ket-file is required"
NO_STATE = "error: one of the arguments --state --state-file is required"
KET_AFTER_CATALOG = "error: argument --ket: not allowed with argument --catalog"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build"], NO_FIDUCIAL),
        (["build", "--catalog", "hesse", "--ket", "[1, 0]"], KET_AFTER_CATALOG),
        (["build", "--ket", "[1, 0]", "--ket-file", "ket.json"],
         "error: argument --ket-file: not allowed with argument --ket"),
        (["simulate", "--state", "[1, 0]"], NO_FIDUCIAL),
        (["simulate", "--catalog", "qubit-sic", "--ket", "[1, 0]", "--state", "[1, 0]"],
         KET_AFTER_CATALOG),
        (["simulate", "--catalog", "qubit-sic"], NO_STATE),
        (["simulate", "--catalog", "qubit-sic", "--state", "[1, 0]", "--state-file", "state.json"],
         "error: argument --state-file: not allowed with argument --state"),
    ],
    ids=["build-none", "build-two", "build-two-ket", "simulate-none", "simulate-two",
         "simulate-no-state", "simulate-two-states"],
)
def test_each_input_has_exactly_one_source(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, rc, message",
    [
        (["build", "--ket", ""], 3, "error: ket is not valid JSON"),
        (["build", "--ket-file", ""], 3, "error: cannot read ket file"),
        (["build", "--catalog", ""], 2, "error: unknown catalog label ''"),
        (["simulate", "--catalog", "qubit-sic", "--state", ""], 3, "error: ket is not valid JSON"),
        (["simulate", "--catalog", "qubit-sic", "--state-file", ""], 3,
         "error: cannot read state file"),
        (["verify", "--u", "hesse.json", "--m", ""], 3, "error: cannot read matrix file : "),
        (["circuit", "naimark", "--n", "1", "--m", ""], 3, "error: cannot read matrix file : "),
    ],
    ids=["ket", "ket-file", "catalog", "state", "state-file", "verify-m", "circuit-m"],
)
def test_an_empty_flag_value_is_still_the_source(capsys, monkeypatch, tmp_path, argv, rc, message):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "build", "--catalog", "hesse", "--out", "hesse.json")[0] == 0
    got, out, err = run(capsys, *argv)
    assert (got, out) == (rc, "")
    assert err.startswith(message)


def test_build_non_ic_inline_ket_warns_but_succeeds(capsys):
    rc, out, err = run(capsys, "build", "--ket", "[1, 0]")
    assert rc == 0
    assert "not informationally complete" in err
    doc = json.loads(out)
    assert doc["informationally_complete"] is False


def test_build_rejects_unnormalized_ket_with_measured_norm(capsys):
    rc, _, err = run(capsys, "build", "--ket", "[0.5, 0.5]")
    assert rc == 2
    assert "0.7071" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--ket", "[NaN, 0]"],
        ["simulate", "--ket", "[NaN, 0]", "--state", "[1, 0]", "--check"],
        ["simulate", "--ket", "[1, 0]", "--state", "[Infinity, 0]", "--check"],
    ],
)
def test_non_finite_input_exits_2_without_traceback(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "naimark.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_build_unknown_label(capsys):
    rc, _, err = run(capsys, "build", "--catalog", "nope")
    assert rc == 2
    assert "unknown catalog label" in err


def test_verify_good_file(capsys, tmp_path):
    path = tmp_path / "hesse.json"
    run(capsys, "build", "--catalog", "hesse", "--out", str(path))
    rc, out, _ = run(capsys, "verify", "--u", str(path), "--m", str(path))
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["checks"]["m_match"] < 1e-12
    assert doc["compound_sic_deviations"][1] == pytest.approx(0.75, abs=1e-10)


def test_verify_perturbed_entry_fails(capsys, tmp_path):
    path = tmp_path / "hesse.json"
    run(capsys, "build", "--catalog", "hesse", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["U"]["re"][0][0] += 1e-3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", "--u", str(bad))
    assert rc == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["checks"]["unitarity"] > 1e-4


def test_verify_identity_fails_block_structure(capsys, tmp_path):
    path = tmp_path / "eye.json"
    path.write_text(dumps(matrix_to_obj(np.eye(4), 2)))
    rc, out, _ = run(capsys, "verify", "--u", str(path))
    assert rc == 1
    report = json.loads(out)
    assert report["checks"]["unitarity"] < 1e-12
    assert report["checks"]["block_rank_one"] > 0.1


def test_verify_malformed_file(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, "verify", "--u", str(path))
    assert rc == 3
    assert "error" in err


@pytest.mark.parametrize(
    "spoil",
    [
        lambda u: u.update(re=[[str(x) for x in row] for row in u["re"]]),
        lambda u: u.update(d=3.9),
        lambda u: u.update(rows="9"),
        lambda u: u["re"][0].__setitem__(0, True),
        lambda u: u["im"][1].__setitem__(2, None),
    ],
    ids=["string-entries", "float-d", "string-rows", "true-entry", "null-entry"],
)
def test_verify_reads_only_json_numbers(capsys, tmp_path, spoil):
    path = tmp_path / "hesse.json"
    run(capsys, "build", "--catalog", "hesse", "--out", str(path))
    doc = json.loads(path.read_text())
    spoil(doc["U"])
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "verify", "--u", str(path))
    assert (rc, out) == (3, "")
    assert err.startswith("error: malformed matrix object: ")


def test_verify_names_the_entry_a_bundle_lacks(capsys, tmp_path):
    catalog, u_only = tmp_path / "catalog.json", tmp_path / "u.json"
    run(capsys, "catalog", "--out", str(catalog))
    rc, out, err = run(capsys, "verify", "--u", str(catalog))
    assert (rc, out, err) == (3, "", f"error: matrix file {catalog} has no 'U' entry\n")
    u_only.write_text(dumps({"U": matrix_to_obj(expected_hesse_u(), 3)}))
    rc, out, err = run(capsys, "verify", "--u", str(u_only), "--m", str(u_only))
    assert (rc, out, err) == (3, "", f"error: matrix file {u_only} has no 'M' entry\n")


def test_tol_comes_from_the_flag_alone(capsys, tmp_path, monkeypatch):
    path = tmp_path / "hesse.json"
    run(capsys, "build", "--catalog", "hesse", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["U"]["re"][0][0] += 1e-3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    monkeypatch.setenv("NAIMARK_TOL", "1.0")  # an environment variable no command reads
    rc, out, _ = run(capsys, "verify", "--u", str(bad))
    assert rc == 1
    assert json.loads(out)["tol"] == 1e-10
    rc, out, _ = run(capsys, "verify", "--u", str(bad), "--tol", "1.0")
    assert rc == 0
    assert json.loads(out)["tol"] == 1.0


def test_simulate_qubit_basis_state(capsys):
    rc, out, _ = run(capsys, "simulate", "--catalog", "qubit-sic", "--state", "[1, 0]",
                     "--check")
    assert rc == 0
    doc = json.loads(out)
    hi = (3 + np.sqrt(3)) / 12
    lo = (3 - np.sqrt(3)) / 12
    assert doc["probs"] == pytest.approx([hi, hi, lo, lo], abs=1e-12)
    assert doc["check_residual"] < 1e-12
    assert "counts" not in doc  # shots=0 keeps it exact-only


def test_simulate_check_exits_1_when_the_oracle_disagrees(capsys, monkeypatch):
    import naimark.cli as cli

    point = OutcomeDistribution(dim=2, probs=np.eye(4)[0])  # all weight on outcome (0, 0)
    monkeypatch.setattr(cli, "direct_probabilities", lambda *_: point)
    rc, out, err = run(capsys, "simulate", "--catalog", "qubit-sic", "--state", "[1, 0]",
                       "--check")
    assert rc == 1
    doc = json.loads(out)
    assert doc["check_residual"] == max_abs(np.array(doc["probs"]) - point.probs)
    assert doc["check_residual"] > 0.5
    assert err.startswith("oracle cross-check residual ")


# numpy's message when U for d = 322 (16 d^4 bytes) cannot be allocated.
NUMPY_OOM = "Unable to allocate 160. GiB for an array with shape (103684, 103684) and data type complex128"


@pytest.mark.parametrize("error, line", [
    (MemoryError(NUMPY_OOM), f"error: {NUMPY_OOM}\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_running_out_of_memory_exits_2_with_one_error_line(
    capsys, monkeypatch, tmp_path, error, line
):
    """An uncaught MemoryError would exit 1, the code of a failed check, with a
    traceback; stdout stays empty and no --out file is written."""
    import naimark.cli as cli

    def exhausted(_):
        raise error

    monkeypatch.setattr(cli, "complete_unitary", exhausted)
    out_path = tmp_path / "u.json"
    assert run(capsys, "build", "--ket", "[1, 0]", "--out", str(out_path)) == (2, "", line)
    assert not out_path.exists()
    assert run(capsys, "simulate", "--ket", "[1, 0]", "--state", "[1, 0]") == (2, "", line)


def test_simulate_embedding_index_uses_partner_fiducial(capsys):
    rc, out, _ = run(capsys, "simulate", "--catalog", "qubit-sic", "--state", "[1, 0]",
                     "--index", "1", "--check")
    assert rc == 0
    doc = json.loads(out)
    # partner fiducial (-p1*, p0*): |<m_1|Z^{-k}|0>|^2 = |p1|^2, shifted rows |p0|^2
    m = catalog_m("qubit")
    p_row = np.abs(m[1]) ** 2 / 2
    assert doc["probs"] == pytest.approx([p_row[0], p_row[0], p_row[1], p_row[1]], abs=1e-12)
    assert doc["check_residual"] < 1e-12


def test_simulate_with_shots_deterministic(capsys):
    args = ("simulate", "--catalog", "qubit-sic", "--state", "[0, 1]",
            "--shots", "500", "--seed", "11")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    c1 = json.loads(out1)["counts"]
    c2 = json.loads(out2)["counts"]
    assert c1 == c2
    assert sum(c1) == 500


def test_simulate_dimension_mismatch(capsys):
    rc, _, err = run(capsys, "simulate", "--catalog", "hesse", "--state", "[1, 0]")
    assert rc == 2
    assert "dim" in err


def test_circuit_cz_expansion(capsys):
    rc, out, _ = run(capsys, "circuit", "cz", "--n", "2", "--expand")
    assert rc == 0
    doc = json.loads(out)
    assert doc["closed_form_residual"] < 1e-12
    assert doc["n_qubits"] == 4
    assert all(g["kind"] == "CR" for g in doc["gates"])


def test_circuit_bell_n1_is_cnot_then_hadamard(capsys):
    rc, out, _ = run(capsys, "circuit", "bell", "--n", "1", "--expand")
    assert rc == 0
    doc = json.loads(out)
    mat, _ = obj_to_matrix(doc["expanded"])
    assert max_abs(mat - bell_change_of_basis(2)) < 1e-12


def test_circuit_naimark_from_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(dumps(matrix_to_obj(catalog_m("qubit"), 2)))
    rc, out, _ = run(capsys, "circuit", "naimark", "--n", "1", "--m", str(path), "--expand")
    assert rc == 0
    doc = json.loads(out)
    mat, _ = obj_to_matrix(doc["expanded"])
    assert max_abs(mat - expected_qubit_u()) < 1e-12
    assert doc["closed_form_residual"] < 1e-12


@pytest.mark.parametrize("target", ["cz", "cx", "fourier", "bell", "naimark"])
def test_circuit_expand_exits_1_when_the_closed_form_disagrees(
    capsys, monkeypatch, tmp_path, target
):
    import naimark.cli as cli

    argv = ["circuit", target, "--n", "2", "--expand"]
    if target == "naimark":
        path = tmp_path / "m.json"
        path.write_text(dumps(matrix_to_obj(catalog_m("ququart"), 4)))
        argv += ["--m", str(path)]
        closed_form = build_block_naimark(catalog_m("ququart")).U
        monkeypatch.setattr(cli, "build_block_naimark", lambda m: build_block_naimark(-m))
    else:
        build, dense = cli._CIRCUITS[target]
        closed_form = dense(4)
        monkeypatch.setitem(cli._CIRCUITS, target, (build, lambda d: -dense(d)))
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    doc = json.loads(out)
    assert doc["closed_form_residual"] == pytest.approx(2 * max_abs(closed_form), abs=1e-12)
    assert err.startswith("expansion residual vs closed form: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cz", "--n", "0"], "error: need n >= 1, got 0\n"),
        (["naimark", "--n", "1"], "error: circuit naimark needs --m FILE\n"),
    ],
    ids=["n-0", "naimark-without-m"],
)
def test_circuit_input_errors_exit_2(capsys, argv, message):
    assert run(capsys, "circuit", *argv) == (2, "", message)


@pytest.mark.parametrize(
    "u, d, shape",
    [(expected_hesse_u(), 2, "9x9"), (expected_hesse_u(), -3, "9x9"), (np.eye(8), 2, "8x8")],
    ids=["hesse-says-d2", "hesse-says-d-3", "8x8"],
)
def test_verify_exits_3_when_the_file_d_contradicts_u(capsys, monkeypatch, tmp_path, u, d, shape):
    import naimark.cli as cli

    def boom(*_):
        raise AssertionError("checked the structure of a U whose d is wrong")

    monkeypatch.setattr(cli, "structure_report", boom)
    path = tmp_path / "u.json"
    path.write_text(dumps(matrix_to_obj(u, d)))
    rc, out, err = run(capsys, "verify", "--u", str(path))
    assert (rc, out, err) == (3, "", f"error: file says d={d} but U is {shape}\n")


def test_circuit_naimark_exits_3_when_the_file_d_contradicts_m(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(dumps(matrix_to_obj(catalog_m("ququart"), 7)))
    rc, out, err = run(capsys, "circuit", "naimark", "--n", "2", "--m", str(path))
    assert (rc, out, err) == (3, "", "error: file says d=7 but M is 4x4\n")


@pytest.mark.parametrize("same_file", [True, False], ids=["one-bundle", "two-files"])
def test_verify_exits_3_when_the_bundle_d_contradicts_m(capsys, monkeypatch, tmp_path, same_file):
    import naimark.cli as cli

    def boom(*_):
        raise AssertionError("checked the structure against an M whose d is wrong")

    good, bad = tmp_path / "hesse.json", tmp_path / "bad.json"
    assert run(capsys, "build", "--catalog", "hesse", "--out", str(good))[0] == 0
    doc = json.loads(good.read_text())
    doc["M"]["d"] = 5
    bad.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "structure_report", boom)
    rc, out, err = run(capsys, "verify", "--u", str(bad if same_file else good), "--m", str(bad))
    assert (rc, out, err) == (3, "", "error: file says d=5 but M is 3x3\n")


@pytest.mark.parametrize(
    "argv",
    [["build", "--ket", "[1]"], ["simulate", "--ket", "[1]", "--state", "[1]", "--check"]],
    ids=["build", "simulate"],
)
def test_a_length_one_ket_exits_2_before_any_work(capsys, monkeypatch, argv):
    import naimark.cli as cli

    def boom(*_):
        raise AssertionError("completed a length-1 fiducial")

    monkeypatch.setattr(cli, "complete_unitary", boom)
    assert run(capsys, *argv) == (2, "", "error: WH orbits need d >= 2, got 1\n")


def test_simulate_state_of_another_dimension_exits_2(capsys):
    rc, out, err = run(capsys, "simulate", "--catalog", "hesse", "--state", "[1, 0]")
    assert (rc, out, err) == (2, "", "error: state has dim 2, extension has d=3\n")


def test_simulate_shots_beyond_int64_exit_2_without_traceback():
    proc = run_cli("simulate", "--catalog", "qubit-sic", "--state", "[1, 0]",
                   "--shots", str(2**63))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: need 1 <= shots <= 2**63 - 1, got {2**63}\n"


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("argv", [["build", "--catalog", "hesse"], ["catalog"]],
                         ids=["build", "catalog"])
def test_an_unwritable_out_exits_3(capsys, tmp_path, argv, target):
    out = tmp_path / "missing" / "x.json" if target == "missing-directory" else tmp_path
    rc, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (rc, stdout) == (3, "")
    assert err.startswith("error: cannot write output file: ")
    assert err.count("\n") == 1


def test_circuit_naimark_wrong_dimension(capsys, tmp_path):
    path = tmp_path / "m3.json"
    path.write_text(dumps(matrix_to_obj(catalog_m("hesse"), 3)))
    rc, _, err = run(capsys, "circuit", "naimark", "--n", "1", "--m", str(path))
    assert rc == 2
    assert "2**n" in err


def run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "naimark.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def nan_matrix_file(tmp_path, a, d):
    obj = json.loads(dumps(matrix_to_obj(a, d)))
    obj["re"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))  # writes a bare NaN token, as Python's json allows
    return path


@pytest.mark.parametrize("target", ["verify", "circuit"])
def test_nan_matrix_file_exits_3_without_nan_output(tmp_path, target):
    if target == "verify":
        argv = ["verify", "--u", str(nan_matrix_file(tmp_path, expected_qubit_u(), 2))]
    else:
        path = nan_matrix_file(tmp_path, catalog_m("qubit"), 2)
        argv = ["circuit", "naimark", "--n", "1", "--m", str(path), "--expand"]
    proc = run_cli(*argv)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "NaN" not in proc.stdout
    assert "Traceback" not in proc.stderr
    assert "non-finite" in proc.stderr


def test_overflowing_residuals_exit_2_without_infinity_output(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(dumps(matrix_to_obj(1e200 * expected_qubit_u(), 2)))
    proc = run_cli("verify", "--u", str(path))
    assert proc.returncode == 2
    assert "Infinity" not in proc.stdout
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["verify", "--u", "{u}"], ["circuit", "naimark", "--n", "1", "--m", "{m}"],
     ["build", "--ket", "[1e308,1e308]"],
     ["simulate", "--catalog", "qubit-sic", "--state", "[1e308,1e308]"]],
    ids=["verify", "circuit-naimark", "build", "simulate"],
)
def test_overflow_exits_2_with_one_error_line(tmp_path, argv):
    """numpy's overflow and invalid-value warnings do not reach stderr."""
    u, m = tmp_path / "u.json", tmp_path / "m.json"
    u.write_text(dumps(matrix_to_obj(1e200 * expected_qubit_u(), 2)))
    m.write_text(dumps(matrix_to_obj(1e200 * catalog_m("qubit"), 2)))
    proc = run_cli(*(arg.format(u=u, m=m) for arg in argv))
    assert (proc.returncode, proc.stdout) == (2, "")
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_non_finite_or_negative_tol_exits_2(value):
    proc = run_cli("circuit", "cz", "--n", "2", "--expand", "--tol", value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "must be finite and >= 0" in proc.stderr


def test_zero_tol_is_accepted(capsys):
    rc, out, _ = run(capsys, "circuit", "fourier", "--n", "1", "--tol", "0")
    assert rc == 0
    assert json.loads(out)["target"] == "fourier"


@pytest.mark.parametrize(
    "extra, flag",
    [(["--shots", "-5"], "--shots"), (["--shots", "10", "--seed", "-1"], "--seed")],
)
def test_simulate_rejects_negative_shots_and_seed(extra, flag):
    proc = run_cli("simulate", "--catalog", "qubit-sic", "--state", "[1, 0]", *extra)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"{flag} must be >= 0" in proc.stderr


def test_simulate_zero_shots_stays_exact_only(capsys):
    rc, out, _ = run(capsys, "simulate", "--catalog", "qubit-sic", "--state", "[1, 0]",
                     "--shots", "0", "--seed", "0")
    assert rc == 0
    assert "counts" not in json.loads(out)


@pytest.mark.parametrize(
    "ket",
    [
        "[[0.6, 0, 99], [0.8, 0]]",  # a third component is not dropped
        "[[0.6], [0.8, 0]]",
        '["0.6", "0.8"]',
        "[true, false]",
        "[[true, 0], [0, 1]]",
        "[null, 1]",
        '"10"',  # a string is not a list of its characters
        "[1" + "0" * 400 + ", 0]",  # too large for a float
    ],
    ids=["triple", "single", "strings", "bools", "bool-in-pair", "null", "string", "huge-int"],
)
@pytest.mark.parametrize("flag", ["--ket", "--ket-file", "--state", "--state-file"])
def test_malformed_ket_entries_exit_3(capsys, tmp_path, flag, ket):
    if flag.endswith("-file"):
        path = tmp_path / "ket.json"
        path.write_text(ket)
        ket = str(path)
    fiducial = [flag, ket] if "ket" in flag else ["--catalog", "qubit-sic"]
    state = [flag, ket] if "state" in flag else ["--state", "[1, 0]"]
    rc, out, err = run(capsys, "simulate", *fiducial, *state)
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ket ")


def test_simulate_reads_state_and_ket_files(capsys, tmp_path):
    ket, state = tmp_path / "ket.json", tmp_path / "state.json"
    ket.write_text("[[0, 0], [0.7071067811865476, 0], [-0.7071067811865476, 0]]")
    state.write_text("[1, 0, 0]")
    rc, out, _ = run(capsys, "simulate", "--ket-file", str(ket), "--state-file", str(state),
                     "--check")
    assert rc == 0
    assert json.loads(out)["check_residual"] < 1e-12
    rc, _, err = run(capsys, "simulate", "--ket-file", str(ket),
                     "--state-file", str(tmp_path / "missing.json"))
    assert rc == 3
    assert "cannot read state file" in err


# The keys of `simulate --check --shots N`, in output order.
SIMULATE_KEYS = [
    "d", "index", "probs", "completion_source", "embedding_index",
    "check_residual", "counts", "shots", "seed",
]


def ket_file(path, ket):
    path.write_text(json.dumps([[z.real, z.imag] for z in ket]))
    return str(path)


@pytest.mark.parametrize("d", [16, 128])
def test_simulate_never_builds_the_unitary(capsys, monkeypatch, tmp_path, d):
    # At d = 128 the d^2 x d^2 U alone would take 4.3 GB.
    import naimark.bell as bell
    import naimark.block as block
    import naimark.cli as cli

    def boom(*_):
        raise AssertionError("simulate built the extension unitary")

    for module in (cli, block):
        monkeypatch.setattr(module, "build_block_naimark", boom)
    monkeypatch.setattr(bell, "build_bell_naimark", boom)
    rng = np.random.default_rng(d)
    ket, state = (rand_ket(d, rng) for _ in range(2))
    rc, out, err = run(capsys, "simulate", "--ket-file", ket_file(tmp_path / "ket.json", ket),
                       "--state-file", ket_file(tmp_path / "state.json", state),
                       "--check", "--shots", "100")
    assert rc == 0
    doc = json.loads(out)
    assert list(doc) == SIMULATE_KEYS
    assert doc["check_residual"] <= 1e-12
    assert len(doc["probs"]) == d * d and sum(doc["counts"]) == 100
    assert err.startswith("oracle cross-check residual ")


@pytest.mark.parametrize(
    "argv",
    [["build", "--catalog", "hesse"], ["simulate", "--catalog", "hesse", "--state", "[1, 0, 0]"]],
    ids=["build", "simulate"],
)
def test_no_command_takes_construction(capsys, argv):
    # The block and Bell routes define the same U: build lays out the blocks, simulate builds
    # no U, and the Bell route is a library function the tests cross-check.
    with pytest.raises(SystemExit) as info:
        main([*argv, "--construction", "bell"])
    assert info.value.code == 2
    assert "unrecognized arguments: --construction bell" in capsys.readouterr().err


@pytest.mark.parametrize("index", ["-1", "3"])
def test_simulate_index_out_of_range_exits_2(capsys, index):
    rc, out, err = run(capsys, "simulate", "--catalog", "hesse", "--state", "[1, 0, 0]",
                       "--index", index, "--check")
    assert rc == 2
    assert out == ""
    assert err == f"error: embedding index {index} out of range for d=3\n"


def test_simulate_unnormalized_state_reports_norm(capsys):
    rc, _, err = run(capsys, "simulate", "--catalog", "qubit-sic", "--state", "[1, 1]")
    assert rc == 2
    assert "input state must be normalized, got ||ket|| = 1.41421356237" in err


def test_cli_imports_no_private_library_name():
    tree = ast.parse((SRC / "naimark" / "cli.py").read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "naimark")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")  # dunders are public
    ]
    assert private == []


def test_verify_with_a_completion_of_the_wrong_size_exits_2(tmp_path):
    u_path, m_path = tmp_path / "hesse.json", tmp_path / "qubit_m.json"
    u_path.write_text(dumps(matrix_to_obj(expected_hesse_u(), 3)))
    m_path.write_text(dumps(matrix_to_obj(catalog_m("qubit"), 2)))
    proc = run_cli("verify", "--u", str(u_path), "--m", str(m_path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "3 x 3" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["circuit", "cz", "--n", "11"],
        ["circuit", "cx", "--n", "40"],
        ["circuit", "bell", "--n", "6", "--expand"],
        ["circuit", "naimark", "--n", "11", "--m", "no-such-file.json"],
    ],
)
def test_circuit_n_above_its_cap_exits_2_before_building(capsys, monkeypatch, argv):
    import naimark.cli as cli

    def boom(*_):
        raise AssertionError("built a circuit above the cap")

    for target, (_, closed_form) in cli._CIRCUITS.items():
        monkeypatch.setitem(cli._CIRCUITS, target, (boom, closed_form))
    monkeypatch.setattr(cli, "full_naimark_circuit", boom)
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: need n <= ")


@pytest.mark.parametrize("argv", [["fourier", "--n", "10"], ["fourier", "--n", "5", "--expand"]])
def test_circuit_n_at_its_cap_is_accepted(capsys, argv):
    rc, out, _ = run(capsys, "circuit", *argv)
    assert rc == 0
    assert json.loads(out)["n_qubits"] == int(argv[2])


def test_circuit_without_expand_builds_no_closed_form(capsys, monkeypatch, tmp_path):
    import naimark.cli as cli

    def boom(*_):
        raise AssertionError("built a dense closed form without --expand")

    for name in ("controlled_clock", "controlled_shift", "build_block_naimark"):
        monkeypatch.setattr(cli, name, boom)
    for target, (build, _) in cli._CIRCUITS.items():
        monkeypatch.setitem(cli._CIRCUITS, target, (build, boom))
    for target in ("cz", "cx", "fourier", "bell"):
        assert run(capsys, "circuit", target, "--n", "2")[0] == 0
    path = tmp_path / "m.json"
    path.write_text(dumps(matrix_to_obj(catalog_m("ququart"), 4)))
    assert run(capsys, "circuit", "naimark", "--n", "2", "--m", str(path))[0] == 0


@pytest.mark.parametrize("target", ["fourier", "bell", "cz", "cx"])
def test_only_circuit_naimark_reads_m(capsys, tmp_path, target):
    path = tmp_path / "m.json"
    path.write_text(dumps(matrix_to_obj(catalog_m("ququart"), 4)))
    rc, out, err = run(capsys, "circuit", target, "--n", "2", "--m", str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: only `circuit naimark` reads --m, not `circuit {target}`\n"


def test_circuit_naimark_still_rejects_a_non_unitary_m(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(dumps(matrix_to_obj(catalog_m("ququart") * 1.01, 4)))
    rc, out, err = run(capsys, "circuit", "naimark", "--n", "2", "--m", str(path))
    assert rc == 2
    assert out == ""
    assert "completion matrix M is not unitary" in err


def test_verify_parses_a_shared_bundle_once(capsys, monkeypatch, tmp_path):
    import naimark.io

    path, copy = tmp_path / "hesse.json", tmp_path / "copy.json"
    run(capsys, "build", "--catalog", "hesse", "--out", str(path))
    copy.write_text(path.read_text())
    expected = run(capsys, "verify", "--u", str(path), "--m", str(copy))
    loads = []
    real_load = naimark.io.json.load
    monkeypatch.setattr(naimark.io.json, "load", lambda fh: loads.append(fh.name) or real_load(fh))
    assert run(capsys, "verify", "--u", str(path), "--m", str(path)) == expected
    assert loads == [str(path)]


@pytest.mark.parametrize(
    "fiducial",
    [
        ["--catalog", "hesse"],
        ["--catalog", "ququart-sic"],
        ["--ket", "[[0.6,0],[0,0.48],[0.64,0]]"],
    ],
    ids=["hesse", "ququart-sic", "ket"],
)
def test_verify_fiducial_deviation_is_row_0_of_the_compound_report(capsys, tmp_path, fiducial):
    path = tmp_path / "bundle.json"
    assert run(capsys, "build", *fiducial, "--out", str(path))[0] == 0
    rc, out, _ = run(capsys, "verify", "--u", str(path), "--m", str(path))
    assert rc == 0
    doc = json.loads(out)
    assert doc["fiducial_sic_deviation"] == doc["compound_sic_deviations"][0]
    (u, _), (m, _) = load_matrices(str(path), "U", "M")
    m_rec = structure_report(u, m)["recovered_m"]
    assert doc["fiducial_sic_deviation"] == sic_report(m_rec[0].conj())  # what verify wrote before


# Files that cannot be decoded: bytes that are not UTF-8, an integer longer than the
# 4,300 digits Python converts, and arrays nested deeper than the recursion limit.
UNDECODABLE = {
    "not-utf8": b'\xff\xfe{"d": 3}',
    "long-int": b"[1" + b"0" * 5000 + b", 0]",
    "deep": b"[" * 100_000 + b"]" * 100_000,
}


def file_flag_argv(flag, path, bundle):
    """A command whose only bad input is the file at path, read by flag."""
    return {
        "verify --u": ["verify", "--u", path],
        "verify --m": ["verify", "--u", bundle, "--m", path],
        "build --ket-file": ["build", "--ket-file", path],
        "simulate --ket-file": ["simulate", "--ket-file", path, "--state", "[1, 0]"],
        "simulate --state-file": ["simulate", "--catalog", "qubit-sic", "--state-file", path],
        "circuit naimark --m": ["circuit", "naimark", "--n", "1", "--m", path],
    }[flag]


@pytest.fixture(scope="module")
def hesse_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "hesse.json"
    assert main(["build", "--catalog", "hesse", "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("content", UNDECODABLE.values(), ids=UNDECODABLE.keys())
@pytest.mark.parametrize("flag", [
    "verify --u", "verify --m", "build --ket-file", "simulate --ket-file",
    "simulate --state-file", "circuit naimark --m",
])
def test_an_undecodable_file_exits_3_with_one_error_line(
    capsys, tmp_path, hesse_bundle, flag, content
):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    rc, out, err = run(capsys, *file_flag_argv(flag, str(path), hesse_bundle))
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "[1" + "0" * 5000 + ", 0]", "[" * 100_000 + "]" * 100_000,
], ids=["long-int", "deep"])
@pytest.mark.parametrize("argv", [
    ["build", "--ket", "{}"],
    ["simulate", "--ket", "{}", "--state", "[1, 0]"],
    ["simulate", "--catalog", "qubit-sic", "--state", "{}"],
], ids=["build --ket", "simulate --ket", "simulate --state"])
def test_an_undecodable_inline_ket_exits_3_with_one_error_line(capsys, argv, text):
    rc, out, err = run(capsys, *[text if a == "{}" else a for a in argv])
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ket is not valid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("content", UNDECODABLE.values(), ids=UNDECODABLE.keys())
def test_an_undecodable_file_exits_3_without_traceback(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    proc = run_cli("verify", "--u", str(path))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cannot read matrix file ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
