"""End-to-end exercises of the command-line interface."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from naimark import bell_change_of_basis, catalog_m
from naimark.cli import main
from naimark.io import dumps, matrix_to_obj, obj_to_matrix
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


def test_build_hesse_block(capsys, tmp_path):
    out_path = tmp_path / "hesse.json"
    rc, _, err = run(capsys, "build", "--catalog", "hesse", "--construction", "block",
                     "--out", str(out_path))
    assert rc == 0
    assert "unitarity residual" in err
    doc = json.loads(out_path.read_text())
    u, d = obj_to_matrix(doc["U"])
    assert d == 3
    assert max_abs(u - expected_hesse_u()) < 1e-12
    assert doc["construction"] == "block-construction"
    assert doc["informationally_complete"] is True


def test_build_bell_equals_block(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "build", "--catalog", "qubit-sic", "--construction", "block",
               "--out", str(p1))[0] == 0
    assert run(capsys, "build", "--catalog", "qubit-sic", "--construction", "bell",
               "--out", str(p2))[0] == 0
    u1, _ = obj_to_matrix(json.loads(p1.read_text())["U"])
    u2, _ = obj_to_matrix(json.loads(p2.read_text())["U"])
    assert max_abs(u1 - u2) < 1e-12
    assert max_abs(u1 - expected_qubit_u()) < 1e-12


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


def test_tol_env_override(capsys, tmp_path, monkeypatch):
    path = tmp_path / "hesse.json"
    run(capsys, "build", "--catalog", "hesse", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["U"]["re"][0][0] += 1e-3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    monkeypatch.setenv("NAIMARK_TOL", "1.0")
    rc, out, _ = run(capsys, "verify", "--u", str(bad))
    assert rc == 0  # absurd tolerance accepted from the environment
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


def test_circuit_naimark_wrong_dimension(capsys, tmp_path):
    path = tmp_path / "m3.json"
    path.write_text(dumps(matrix_to_obj(catalog_m("hesse"), 3)))
    rc, _, err = run(capsys, "circuit", "naimark", "--n", "1", "--m", str(path))
    assert rc == 2
    assert "2**n" in err


def run_cli(*argv, env_extra=None):
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("NAIMARK_TOL", None)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "naimark.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def nan_matrix_file(tmp_path, a, d):
    obj = matrix_to_obj(a, d)
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


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_non_finite_or_negative_tol_exits_2(source, value):
    argv = ["circuit", "cz", "--n", "2", "--expand"]
    if source == "flag":
        proc = run_cli(*argv, "--tol", value)
    else:
        proc = run_cli(*argv, env_extra={"NAIMARK_TOL": value})
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
    "d", "index", "probs", "construction", "completion_source", "embedding_index",
    "check_residual", "counts", "shots", "seed",
]


def ket_file(path, ket):
    path.write_text(json.dumps([[z.real, z.imag] for z in ket]))
    return str(path)


@pytest.mark.parametrize("d", [16, 128])
@pytest.mark.parametrize("construction", ["block", "bell"])
def test_simulate_never_builds_the_unitary(capsys, monkeypatch, tmp_path, d, construction):
    # At d = 128 the d^2 x d^2 U alone would take 4.3 GB.
    import naimark.bell as bell
    import naimark.block as block
    import naimark.cli as cli

    def boom(*_):
        raise AssertionError("simulate built the extension unitary")

    for module in (cli, block):
        monkeypatch.setattr(module, "build_block_naimark", boom)
    for module in (cli, bell):
        monkeypatch.setattr(module, "build_bell_naimark", boom)
    monkeypatch.setattr(block, "assemble_unitary", boom)
    rng = np.random.default_rng(d)
    ket, state = (rand_ket(d, rng) for _ in range(2))
    rc, out, err = run(capsys, "simulate", "--ket-file", ket_file(tmp_path / "ket.json", ket),
                       "--state-file", ket_file(tmp_path / "state.json", state),
                       "--construction", construction, "--check", "--shots", "100")
    assert rc == 0
    doc = json.loads(out)
    assert list(doc) == SIMULATE_KEYS
    assert doc["construction"] == f"{construction}-construction"
    assert doc["check_residual"] <= 1e-12
    assert len(doc["probs"]) == d * d and sum(doc["counts"]) == 100
    assert err.startswith("oracle cross-check residual ")


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

    for name in ("controlled_clock", "controlled_shift", "build_bell_naimark"):
        monkeypatch.setattr(cli, name, boom)
    for target, (build, _) in cli._CIRCUITS.items():
        monkeypatch.setitem(cli._CIRCUITS, target, (build, boom))
    for target in ("cz", "cx", "fourier", "bell"):
        assert run(capsys, "circuit", target, "--n", "2")[0] == 0
    path = tmp_path / "m.json"
    path.write_text(dumps(matrix_to_obj(catalog_m("ququart"), 4)))
    assert run(capsys, "circuit", "naimark", "--n", "2", "--m", str(path))[0] == 0


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
