"""Embedding, outcome distributions, sampling, and linear-inversion tomography."""

import numpy as np
import pytest

from naimark import (
    DensityMatrix,
    InvalidInputError,
    OutcomeDistribution,
    RankDeficientFrameError,
    build_bell_naimark,
    build_block_naimark,
    builtin_fiducial,
    catalog_m,
    complete_unitary,
    direct_probabilities,
    embed,
    fiducial_for_embedding,
    measure_probabilities,
    tomography_reconstruct,
    wh_orbit,
)
from naimark.simulate import sample
from naimark.wh import max_abs

from util import rand_density, rand_ket, rand_unitary


def prob(dist, j, k):
    """P(j, k), stored at flat index j*d + k."""
    return dist.probs[j * dist.dim + k]


def exact_probabilities(fiducial, rho):
    """Independent Born-rule oracle for a density matrix input."""
    elements = wh_orbit(fiducial).elements()
    return np.array([np.trace(rho @ e).real for e in elements])


class TestEmbed:
    def test_offset_zero(self):
        out = embed(np.array([1 + 2j, 3 - 1j]), 0)
        assert np.allclose(out, [1 + 2j, 0, 3 - 1j, 0])

    def test_offset_one(self):
        out = embed(np.array([1 + 2j, 3 - 1j]), 1)
        assert np.allclose(out, [0, 1 + 2j, 0, 3 - 1j])

    def test_basis_state_lands_on_basis_state(self):
        for d in (2, 3, 4):
            for i in range(d):
                e0 = np.zeros(d)
                e0[0] = 1
                out = embed(e0, i)
                want = np.zeros(d * d)
                want[i] = 1
                assert np.allclose(out, want)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        psi = rand_ket(5, rng)
        assert np.linalg.norm(embed(psi, 3)) == pytest.approx(1.0)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInputError):
            embed(np.array([1.0, 0.0]), 2)


class TestDirectProbabilities:
    def test_fiducial_measured_on_itself(self):
        fid = builtin_fiducial(2, "qubit-sic")
        dist = direct_probabilities(fid, fid.ket)
        assert prob(dist, 0, 0) == pytest.approx(0.5, abs=1e-12)
        for (j, k) in [(0, 1), (1, 0), (1, 1)]:
            assert prob(dist, j, k) == pytest.approx(1 / 6, abs=1e-12)

    def test_basis_state_distribution(self):
        # |<phi|Z^{-k}|0>|^2 = |phi_0|^2 and |<phi|Z^{-k}X^{-1}|0>|^2 = |phi_1|^2
        fid = builtin_fiducial(2, "qubit-sic")
        p0 = abs(fid.ket[0]) ** 2 / 2
        p1 = abs(fid.ket[1]) ** 2 / 2
        assert p0 == pytest.approx((3 + np.sqrt(3)) / 12, abs=1e-12)
        assert p1 == pytest.approx((3 - np.sqrt(3)) / 12, abs=1e-12)
        dist = direct_probabilities(fid, np.array([1.0, 0.0]))
        assert prob(dist, 0, 0) == pytest.approx(p0, abs=1e-12)
        assert prob(dist, 0, 1) == pytest.approx(p0, abs=1e-12)
        assert prob(dist, 1, 0) == pytest.approx(p1, abs=1e-12)
        assert prob(dist, 1, 1) == pytest.approx(p1, abs=1e-12)

    def test_orthogonal_state_kills_first_outcome(self):
        fid = builtin_fiducial(2, "qubit-sic")
        perp = np.array([-fid.ket[1].conj(), fid.ket[0].conj()])
        dist = direct_probabilities(fid, perp)
        assert prob(dist, 0, 0) == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            direct_probabilities(builtin_fiducial(2, "qubit-sic"), np.array([1.0, 0, 0]))


class TestMeasureProbabilities:
    def test_qubit_extension_matches_oracle(self):
        fid = builtin_fiducial(2, "qubit-sic")
        ext = build_block_naimark(catalog_m("qubit"))
        psi = np.array([1.0, 0.0])
        got = measure_probabilities(ext, psi, 0)
        want = direct_probabilities(fid, psi)
        assert max_abs(got.probs - want.probs) < 1e-12

    def test_hesse_fiducial_on_itself(self):
        fid = builtin_fiducial(3, "hesse")
        ext = build_block_naimark(catalog_m("hesse"))
        dist = measure_probabilities(ext, fid.ket, 0)
        assert prob(dist, 0, 0) == pytest.approx(1 / 3, abs=1e-12)
        for flat in range(1, 9):
            assert dist.probs[flat] == pytest.approx(1 / 12, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_both_routes_match_oracle_for_random_inputs(self, d):
        rng = np.random.default_rng(50 + d)
        for _ in range(50):
            ket = rand_ket(d, rng)
            psi = rand_ket(d, rng)
            m = complete_unitary(ket)
            want = direct_probabilities(ket, psi)
            for ext in (build_block_naimark(m), build_bell_naimark(m)):
                got = measure_probabilities(ext, psi, 0)
                assert max_abs(got.probs - want.probs) < 1e-10
                assert got.probs.sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_nonzero_embedding_index_selects_row_fiducial(self, d):
        rng = np.random.default_rng(60 + d)
        m = rand_unitary(d, rng)
        ext = build_bell_naimark(m)
        psi = rand_ket(d, rng)
        for i in range(d):
            got = measure_probabilities(ext, psi, i)
            want = direct_probabilities(fiducial_for_embedding(m, i), psi)
            assert max_abs(got.probs - want.probs) < 1e-10

    def test_dimension_mismatch(self):
        ext = build_block_naimark(catalog_m("qubit"))
        with pytest.raises(InvalidInputError):
            measure_probabilities(ext, np.array([1.0, 0, 0]), 0)


class TestOutcomeDistribution:
    def test_tiny_negative_dust_clamped(self):
        dist = OutcomeDistribution(2, np.array([0.5, 0.5, -1e-15, 0.0]))
        assert dist.probs[2] == 0.0

    def test_real_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            OutcomeDistribution(2, np.array([0.6, 0.5, -0.1, 0.0]))

    def test_wrong_total_rejected(self):
        with pytest.raises(InvalidInputError):
            OutcomeDistribution(2, np.array([0.5, 0.5, 0.5, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="non-finite"):
            OutcomeDistribution(2, np.array([0.5, 0.5, bad, 0.0]))

    @pytest.mark.parametrize(
        "dim, probs", [(-1, [1.0]), (0, []), (2.0, [0.25] * 4), ("2", [0.25] * 4)],
        ids=["negative", "zero", "float", "str"],
    )
    def test_dim_must_be_a_positive_integer(self, dim, probs):
        # dim = -1 would pass the length check, since (-1)^2 = 1; dim = 0 would leave no probabilities.
        with pytest.raises(InvalidInputError, match="need dim >= 1, got "):
            OutcomeDistribution(dim, np.array(probs))


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: OutcomeDistribution(2, [1.0, 0.0, 0.0]), "expected 4 probabilities, got 3"),
        (lambda: DensityMatrix(2, np.eye(3) / 3), "expected a 2x2 matrix, got (3, 3)"),
        (lambda: DensityMatrix(2, [[0.5, 0.5], [0, 0.5]]), "density matrix must be Hermitian"),
        (lambda: DensityMatrix(2, np.eye(2)), "density matrix must have unit trace, got 2"),
    ],
    ids=["probs-length", "rho-shape", "rho-not-hermitian", "rho-trace"],
)
def test_result_type_guards(build, fragment):
    with pytest.raises(InvalidInputError) as info:
        build()
    assert fragment in str(info.value)


class TestSampling:
    def test_point_mass(self):
        dist = OutcomeDistribution(2, np.array([1.0, 0, 0, 0]))
        counts = sample(dist, 100, seed=0)
        assert counts[0] == 100
        assert counts.sum() == 100

    def test_uniform_within_five_sigma(self):
        shots = 400_000
        dist = OutcomeDistribution(2, np.full(4, 0.25))
        counts = sample(dist, shots, seed=123)
        sigma = np.sqrt(shots * 0.25 * 0.75)
        assert np.all(np.abs(counts - shots / 4) < 5 * sigma)
        assert counts.sum() == shots

    def test_seed_determinism(self):
        dist = OutcomeDistribution(2, np.full(4, 0.25))
        assert np.array_equal(sample(dist, 1000, seed=7), sample(dist, 1000, seed=7))

    def test_shots_validated(self):
        dist = OutcomeDistribution(2, np.full(4, 0.25))
        with pytest.raises(InvalidInputError):
            sample(dist, 0, seed=1)
        with pytest.raises(InvalidInputError, match=r"shots <= 2\*\*63 - 1, got 9223372036854775808"):
            sample(dist, 2**63, seed=1)
        assert sample(dist, 2**63 - 1, seed=1).sum() == 2**63 - 1
        assert np.array_equal(sample(dist, np.int64(2), 1), sample(dist, 2, 1))

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_validated(self, seed):
        # numpy would raise its own ValueError for -1 and a TypeError for 1.5.
        dist = OutcomeDistribution(2, np.full(4, 0.25))
        with pytest.raises(InvalidInputError, match=f"seed must be a non-negative integer, got {seed}"):
            sample(dist, 5, seed)

    def test_numpy_integer_seed_is_the_same_seed(self):
        dist = OutcomeDistribution(2, np.full(4, 0.25))
        assert np.array_equal(sample(dist, 1000, np.int64(7)), sample(dist, 1000, 7))

    @pytest.mark.parametrize("shots", [2.5, 2.0, "2"])
    def test_non_integer_shots_rejected(self, shots):
        # numpy's multinomial would draw int(2.5) = 2 shots.
        dist = OutcomeDistribution(2, np.full(4, 0.25))
        with pytest.raises(InvalidInputError, match=f"shots <= 2\\*\\*63 - 1, got {shots!r}"):
            sample(dist, shots, seed=1)


# The three callers that take an embedding index, on the Hesse completion matrix.
INDEXED = {
    "measure_probabilities": lambda m, i: measure_probabilities(m, np.eye(3)[1], i).probs,
    "embed": lambda m, i: embed(m[2], i),
    "fiducial_for_embedding": lambda m, i: fiducial_for_embedding(m, i).ket,
}


@pytest.mark.parametrize("caller", INDEXED)
@pytest.mark.parametrize("index", [1.5, 1.0, "1", np.float64(2.0), None])
def test_a_non_integer_embedding_index_is_invalid_input(caller, index):
    with pytest.raises(InvalidInputError, match="embedding index must be an integer"):
        INDEXED[caller](catalog_m("hesse"), index)


@pytest.mark.parametrize("caller", INDEXED)
def test_a_numpy_integer_embedding_index_is_that_index(caller):
    m = catalog_m("hesse")
    assert np.array_equal(INDEXED[caller](m, np.int64(1)), INDEXED[caller](m, 1))
    assert fiducial_for_embedding(m, np.int64(1)).label == "embedding-1"


class TestTomography:
    @pytest.mark.parametrize("label,d", [("qubit-sic", 2), ("hesse", 3), ("ququart-sic", 4)])
    def test_exact_round_trip_pure_states(self, label, d):
        fid = builtin_fiducial(d, label)
        rng = np.random.default_rng(70 + d)
        for _ in range(10):
            psi = rand_ket(d, rng)
            rho = np.outer(psi, psi.conj())
            rec = tomography_reconstruct(fid, direct_probabilities(fid, psi))
            assert max_abs(rec.matrix - rho) < 1e-8

    def test_uniform_distribution_gives_maximally_mixed(self):
        fid = builtin_fiducial(3, "hesse")
        dist = OutcomeDistribution(3, np.full(9, 1 / 9))
        rec = tomography_reconstruct(fid, dist)
        assert max_abs(rec.matrix - np.eye(3) / 3) < 1e-10

    def test_non_ic_fiducial_rejected_with_rank(self):
        # brute-force rank of the frame Gram is 2 (two distinct projectors)
        elements = wh_orbit(np.array([1.0, 0.0])).elements()
        flat = np.array([e.reshape(-1) for e in elements])
        assert np.linalg.matrix_rank((flat.conj() @ flat.T).real) == 2
        dist = OutcomeDistribution(2, np.full(4, 0.25))
        with pytest.raises(RankDeficientFrameError, match="rank 2"):
            tomography_reconstruct(np.array([1.0, 0.0]), dist)

    def test_diagnostics_reported(self):
        fid = builtin_fiducial(2, "qubit-sic")
        rec = tomography_reconstruct(fid, direct_probabilities(fid, fid.ket))
        assert rec.gram_condition is not None and rec.gram_condition > 1
        assert rec.min_eigenvalue == pytest.approx(0.0, abs=1e-10)

    def test_sampled_frequencies_can_go_indefinite_and_are_reported(self):
        fid = builtin_fiducial(2, "qubit-sic")
        dist = direct_probabilities(fid, np.array([1.0, 0.0]))
        counts = sample(dist, 40, seed=0)
        rec = tomography_reconstruct(fid, OutcomeDistribution(2, counts / 40))
        assert rec.min_eigenvalue < 0  # reported, not repaired

    def test_sampled_error_decreases_with_shots(self):
        fid = builtin_fiducial(2, "qubit-sic")
        medians = []
        for shots in (10**3, 10**4, 10**5, 10**6):
            errs = []
            for seed in range(9):
                rng = np.random.default_rng(9000 + seed)
                rho = rand_density(2, rng)
                dist = OutcomeDistribution(2, exact_probabilities(fid, rho))
                counts = sample(dist, shots, seed=seed)
                rec = tomography_reconstruct(fid, OutcomeDistribution(2, counts / shots))
                errs.append(max_abs(rec.matrix - rho))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2] > medians[3]

    def test_dimension_mismatch(self):
        fid = builtin_fiducial(2, "qubit-sic")
        with pytest.raises(InvalidInputError):
            tomography_reconstruct(fid, OutcomeDistribution(3, np.full(9, 1 / 9)))
