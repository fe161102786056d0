"""Block-circulant construction: completion, blocks, assembly, diagonalization."""

import numpy as np
import pytest

from naimark import (
    InvalidInputError,
    block_constraint_violation,
    build_block_naimark,
    builtin_fiducial,
    catalog_m,
    complete_unitary,
    diagonal_blocks,
    displacement,
    extract_blocks,
    fourier,
    structure_report,
)
from naimark.errors import CatalogMissError
from naimark.wh import max_abs

from util import (
    expected_hesse_diag_blocks,
    expected_hesse_u,
    expected_qubit_diag_blocks,
    expected_qubit_u,
    kron_reassemble,
    loop_blocks,
    rand_ket,
    rand_unitary,
)


def blocks(m):
    """The first block row [S_0 .. S_{d-1}] of the block route's U."""
    return extract_blocks(build_block_naimark(m).U)


class TestCompleteUnitary:
    def test_qubit_sic_gives_natural_completion(self):
        fid = builtin_fiducial(2, "qubit-sic")
        m = complete_unitary(fid)
        # first component is real positive, so the deterministic completion
        # reduces to [[p0*, p1*], [-p1, p0]]
        assert max_abs(m - catalog_m("qubit")) < 1e-12

    def test_basis_fiducial_gives_identity(self):
        m = complete_unitary(np.array([1.0, 0, 0]))
        assert max_abs(m - np.eye(3)) < 1e-15

    def test_hesse_matches_catalog(self):
        m = complete_unitary(builtin_fiducial(3, "hesse"))
        assert max_abs(m - catalog_m("hesse")) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_random_fiducials(self, d):
        rng = np.random.default_rng(900 + d)
        for _ in range(10):
            ket = rand_ket(d, rng)
            m = complete_unitary(ket)
            assert max_abs(m @ m.conj().T - np.eye(d)) < 1e-12
            assert max_abs(m[0] - ket.conj()) < 1e-15

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        ket = rand_ket(4, rng)
        assert np.array_equal(complete_unitary(ket), complete_unitary(ket))

    def test_fiducial_with_zero_components(self):
        ket = np.array([0, 0, 1.0, 0])
        m = complete_unitary(ket)
        assert max_abs(m @ m.conj().T - np.eye(4)) < 1e-12
        assert max_abs(m[0] - ket) < 1e-15

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidInputError):
            complete_unitary(np.array([1.0, 1.0]))


class TestCatalogM:
    def test_all_unitary_with_fiducial_first_row(self):
        pairs = [("qubit", (2, "qubit-sic")), ("hesse", (3, "hesse")), ("ququart", (4, "ququart-sic"))]
        for label, (d, fl) in pairs:
            m = catalog_m(label)
            assert max_abs(m @ m.conj().T - np.eye(d)) < 1e-12
            assert max_abs(m[0] - builtin_fiducial(d, fl).ket.conj()) < 1e-14

    def test_hesse_literal(self):
        want = np.array([[0, 1, -1], [np.sqrt(2), 0, 0], [0, 1, 1]]) / np.sqrt(2)
        assert max_abs(catalog_m("hesse") - want) < 1e-15

    def test_miss(self):
        with pytest.raises(CatalogMissError):
            catalog_m("qutrit")


class TestRankOneBlocks:
    def test_qubit_blocks_entrywise(self):
        p = builtin_fiducial(2, "qubit-sic").ket
        m = catalog_m("qubit")
        s0 = np.array([[p[0].conj(), -p[1]], [p[0].conj(), -p[1]]]) / np.sqrt(2)
        s1 = np.array([[p[1].conj(), p[0]], [-p[1].conj(), -p[0]]]) / np.sqrt(2)
        got0, got1 = blocks(m)
        assert max_abs(got0 - s0) < 1e-15
        assert max_abs(got1 - s1) < 1e-15

    def test_first_column_is_scaled_fourier_column(self):
        m = catalog_m("hesse")
        fid = builtin_fiducial(3, "hesse").ket
        f_dag = fourier(3).conj().T
        for k in range(3):
            want = fid[k].conj() * f_dag[:, k]
            assert max_abs(blocks(m)[k][:, 0] - want) < 1e-15

    def test_identity_completion_blocks(self):
        d = 4
        f_dag = fourier(d).conj().T
        acc = np.zeros((d, d), dtype=complex)
        for k, s in enumerate(blocks(np.eye(d))):
            e = np.zeros(d)
            e[k] = 1
            assert max_abs(s - np.outer(f_dag[:, k], e)) < 1e-15
            acc += s.conj().T @ s
        assert max_abs(acc - np.eye(d)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_exactly_one_singular_value(self, d):
        rng = np.random.default_rng(31 + d)
        m = rand_unitary(d, rng)
        for k in range(d):
            sv = np.linalg.svd(blocks(m)[k], compute_uv=False)
            assert sv[0] == pytest.approx(1.0, abs=1e-12)
            assert max_abs(sv[1:]) < 1e-12


class TestAssembly:
    def test_hesse_reproduces_expected_nine_by_nine(self):
        ext = build_block_naimark(catalog_m("hesse"))
        assert max_abs(ext.U - expected_hesse_u()) < 1e-12
        assert ext.provenance == "block-construction"

    def test_qubit_reproduces_expected_four_by_four(self):
        ext = build_block_naimark(catalog_m("qubit"))
        assert max_abs(ext.U - expected_qubit_u()) < 1e-12

    def test_identity_completion_unitary_by_direct_multiplication(self):
        ext = build_block_naimark(np.eye(2))
        prod = ext.U.conj().T @ ext.U
        assert max_abs(prod - np.eye(4)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_random_completions_unitary_and_block_circulant(self, d):
        rng = np.random.default_rng(7 * d)
        for _ in range(20):
            ext = build_block_naimark(rand_unitary(d, rng))
            assert max_abs(ext.U.conj().T @ ext.U - np.eye(d * d)) < 1e-10
            s = extract_blocks(ext.U)
            for r in range(d):
                for t in range(d):
                    block = ext.U[r * d : (r + 1) * d, t * d : (t + 1) * d]
                    assert max_abs(block - s[(t - r) % d]) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_row_amplitudes_give_displaced_fiducial_overlaps(self, d):
        rng = np.random.default_rng(55 + d)
        ket = rand_ket(d, rng)
        ext = build_block_naimark(complete_unitary(ket))
        psi = rand_ket(d, rng)
        embedded = np.zeros(d * d, dtype=complex)
        embedded[np.arange(d) * d] = psi
        amps = ext.U @ embedded
        for j in range(d):
            for k in range(d):
                want = np.vdot(displacement(d, j, k) @ ket, psi) / np.sqrt(d)
                assert abs(amps[j * d + k] - want) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(InvalidInputError):
            build_block_naimark(np.ones((2, 2)))

    def test_fiducial_property(self):
        fid = builtin_fiducial(3, "hesse")
        ext = build_block_naimark(catalog_m("hesse"))
        assert max_abs(ext.fiducial - fid.ket) < 1e-15


class TestDiagonalBlocks:
    def test_qubit_blocks_are_sum_and_difference(self):
        m = catalog_m("qubit")
        s0, s1 = blocks(m)
        u0, u1 = diagonal_blocks(m)
        assert max_abs(u0 - (s0 + s1)) < 1e-13
        assert max_abs(u1 - (s0 - s1)) < 1e-13
        want0, want1 = expected_qubit_diag_blocks()
        assert max_abs(u0 - want0) < 1e-12
        assert max_abs(u1 - want1) < 1e-12

    def test_hesse_blocks_entrywise(self):
        blocks = diagonal_blocks(catalog_m("hesse"))
        for got, want in zip(blocks, expected_hesse_diag_blocks()):
            assert max_abs(got - want) < 1e-12

    def test_hesse_blocks_are_row_permutations(self):
        u0, u1, u2 = diagonal_blocks(catalog_m("hesse"))
        assert max_abs(u1 - u0[[1, 2, 0], :]) < 1e-12
        assert max_abs(u2 - u0[[2, 0, 1], :]) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_sum_formula_matches_closed_form(self, d):
        # U_j = sum_k w^{-jk} S_k, independently accumulated
        rng = np.random.default_rng(444 + d)
        m = rand_unitary(d, rng)
        s = blocks(m)
        w = np.exp(2j * np.pi / d)
        for j, u_j in enumerate(diagonal_blocks(m)):
            acc = np.zeros((d, d), dtype=complex)
            for k in range(d):
                acc += w ** ((-j * k) % d) * s[k]
            assert max_abs(u_j - acc) < 1e-12
            assert max_abs(u_j.conj().T @ u_j - np.eye(d)) < 1e-12


class TestReassembly:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_round_trip_equals_assembly(self, d):
        rng = np.random.default_rng(21 + d)
        m = rand_unitary(d, rng)
        assert max_abs(kron_reassemble(diagonal_blocks(m)) - build_block_naimark(m).U) < 1e-10

    def test_random_blocks_give_unitary_block_circulant(self):
        rng = np.random.default_rng(3)
        u = kron_reassemble([rand_unitary(3, rng) for _ in range(3)])
        assert max_abs(u.conj().T @ u - np.eye(9)) < 1e-12
        s = extract_blocks(u)
        for r in range(3):
            for t in range(3):
                assert max_abs(u[r * 3 : (r + 1) * 3, t * 3 : (t + 1) * 3] - s[(t - r) % 3]) < 1e-12


class TestBlockConstraints:
    def test_unitary_completion_satisfies_constraints(self):
        for label in ("qubit", "hesse", "ququart"):
            assert block_constraint_violation(loop_blocks(catalog_m(label))) < 1e-12
        rng = np.random.default_rng(8)
        for d in (2, 3, 5):
            assert block_constraint_violation(loop_blocks(rand_unitary(d, rng))) < 1e-12

    def test_duplicated_row_violates(self):
        bad = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
        assert block_constraint_violation(loop_blocks(bad)) > 0.1

    def test_single_trivial_block(self):
        assert block_constraint_violation([np.array([[1.0]])]) == pytest.approx(0.0, abs=1e-15)


class TestStructureReport:
    def test_valid_extension_passes_all_checks(self):
        m = catalog_m("hesse")
        report = structure_report(build_block_naimark(m).U, m)
        for key in ("unitarity", "block_circulant", "block_rank_one",
                    "recovered_m_unitarity", "block_constraints", "m_match"):
            assert report[key] < 1e-12
        assert max_abs(report["recovered_m"] - m) < 1e-12

    def test_identity_is_not_block_consistent(self):
        report = structure_report(np.eye(4))
        assert report["unitarity"] < 1e-12
        assert report["block_circulant"] < 1e-12
        assert report["block_rank_one"] > 0.1

    def test_perturbation_shows_up_in_unitarity(self):
        u = build_block_naimark(catalog_m("hesse")).U.copy()
        u[0, 0] += 1e-3
        report = structure_report(u)
        assert report["unitarity"] > 1e-4
