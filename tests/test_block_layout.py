"""The block layer's one layout and one FFT pair against the loop oracles.

Property tests draw d in 2..12 with random unitaries M and random
(non-unitary) block stacks; the oracles in util.py are the index loops,
matrix powers and Kronecker products the library once used.  Tolerances are
set from d^2 * eps for the largest d drawn, not fitted to observed errors.
A structural guard at d = 32 and the input checks of the block entry points
follow.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naimark
from naimark import (
    InvalidInputError,
    build_bell_naimark,
    build_block_naimark,
    catalog_m,
    diagonal_blocks,
)
from naimark.block import structure_report
from naimark.wh import _layout, max_abs

from util import (
    bell_product_u,
    clock_decomposition,
    closed_form_u,
    first_block_row,
    loop_block_constraints,
    loop_blocks,
    loop_layout,
    loop_structure_report,
    power_diagonal_blocks,
    rand_unitary,
    roll_layout,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
FFT_TOL = 1e-13  # > 12**2 * eps = 3.2e-14
ROUTE_TOL = 1e-12

seeds = st.integers(0, 2**32 - 1)


@st.composite
def unitaries(draw):
    d = draw(st.integers(2, 12))
    return rand_unitary(d, np.random.default_rng(draw(seeds)))


@st.composite
def block_stacks(draw):
    """d random complex d x d blocks with entries of size about 1/d, as in a unitary's blocks."""
    d = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(seeds))
    return list((rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))) / d)


@PROPERTY
@given(unitaries())
def test_blocks_and_unitary_equal_the_loop_layout(m):
    u = build_block_naimark(m).U
    pairs = zip(first_block_row(u), loop_blocks(m), strict=True)
    assert all(np.array_equal(a, b) for a, b in pairs)
    assert np.array_equal(u, loop_layout(loop_blocks(m)))


@PROPERTY
@given(unitaries())
def test_diagonal_blocks_match_matrix_powers(m):
    got, want = np.array(diagonal_blocks(m)), np.array(power_diagonal_blocks(m))
    assert got.shape == want.shape
    assert max_abs(got - want) < FFT_TOL


@PROPERTY
@given(block_stacks())
def test_block_constraints_of_random_blocks_match_double_loop(blocks):
    got = structure_report(loop_layout(blocks))["block_constraints"]
    assert abs(got - loop_block_constraints(blocks)) < FFT_TOL


@PROPERTY
@given(unitaries(), seeds, st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]))
def test_structure_report_matches_loop_report(m, seed, scale):
    d = m.shape[0]
    rng = np.random.default_rng(seed)
    u = build_block_naimark(m).U + scale * (
        rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    )
    got, want = structure_report(u, m), loop_structure_report(u, m)
    assert got.keys() == want.keys()
    assert got["d"] == want["d"]
    assert got["unitarity"] == want["unitarity"]
    assert got["block_circulant"] == want["block_circulant"]  # the same subtractions and maxima
    for key in want.keys() - {"d", "unitarity", "block_circulant"}:
        assert max_abs(np.asarray(got[key]) - want[key]) < FFT_TOL, key


@pytest.mark.parametrize("d", range(1, 25))
def test_layout_equals_the_block_row_rolls_from_d_1(d):
    """Block (0, t) is a[:, t] b[t], and block row r is that row rolled r*d right.  Gaussian
    integer a, b make every product exact, so only the placement of the blocks is tested."""
    rng = np.random.default_rng(2400 + d)
    a, b = rng.integers(-8, 9, (2, d, d)) + 1j * rng.integers(-8, 9, (2, d, d))
    assert np.array_equal(_layout(a, b), roll_layout([np.outer(a[:, t], b[t]) for t in range(d)]))


@pytest.mark.parametrize("entry", [(4, 1), (8, 8), (3, 0), (5, 6)])
def test_a_nan_in_any_block_row_past_the_first_reaches_block_circulant(entry):
    u = build_block_naimark(catalog_m("hesse")).U
    u[entry] = np.nan
    assert np.isnan(structure_report(u)["block_circulant"])


@pytest.mark.parametrize("entry", [(1, 2), (4, 1)], ids=["block-row-0", "block-row-1"])
def test_a_nan_entry_reaches_the_same_fields_as_in_the_loop_oracle(entry):
    m = catalog_m("hesse")
    u = build_block_naimark(m).U
    u[entry] = np.nan
    got, want = structure_report(u, m), loop_structure_report(u, m)
    assert got.keys() == want.keys()
    for key in want.keys() - {"d"}:
        nan = np.isnan(want[key])
        assert np.array_equal(np.isnan(got[key]), nan), key
        assert max_abs(np.where(nan, 0.0, np.asarray(got[key]) - want[key])) < FFT_TOL, key


@PROPERTY
@given(unitaries())
def test_block_bell_and_clock_routes_agree(m):
    block = build_block_naimark(m).U
    assert max_abs(build_bell_naimark(m).U - block) < ROUTE_TOL
    assert np.array_equal(build_bell_naimark(m).U, block)  # the Bell route writes the block layout
    assert max_abs(clock_decomposition(m) - block) < ROUTE_TOL
    assert max_abs(closed_form_u(m) - block) < ROUTE_TOL
    assert max_abs(bell_product_u(m) - block) < ROUTE_TOL


def test_catalog_reports_match_loop_report():
    for label in ("qubit", "hesse", "ququart"):
        m = catalog_m(label)
        u = build_block_naimark(m).U
        got, want = structure_report(u, m), loop_structure_report(u, m)
        for key in want.keys() - {"d"}:
            assert max_abs(np.asarray(got[key]) - want[key]) < FFT_TOL, (label, key)


class TestBlockInputs:
    def test_structure_report_rejects_m_of_the_wrong_size(self):
        u = build_block_naimark(catalog_m("hesse")).U
        with pytest.raises(InvalidInputError, match="3 x 3"):
            structure_report(u, catalog_m("qubit"))

    @pytest.mark.parametrize("u", [np.zeros((0, 0)), np.asarray(1.0), np.ones(4)])
    def test_structure_report_rejects_empty_and_non_matrix_u(self, u):
        with pytest.raises(InvalidInputError, match="d\\^2 x d\\^2"):
            structure_report(u)

    @pytest.mark.parametrize("m", [np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2))])
    def test_non_square_completion_rejected(self, m):
        with pytest.raises(InvalidInputError, match="must be square"):
            diagonal_blocks(m)


def test_block_layer_has_no_kron_power_or_per_block_fourier_at_d32(monkeypatch):
    """Every block entry point is one block row and one FFT pair: no np.kron,
    no matrix_power, and at most two Fourier matrices per call."""
    d = 32
    m = rand_unitary(d, np.random.default_rng(3200))
    u = build_block_naimark(m).U

    def forbidden(*args, **kwargs):
        raise AssertionError("dense block-diagonalization called")

    monkeypatch.setattr(np, "kron", forbidden)
    monkeypatch.setattr(np.linalg, "matrix_power", forbidden)
    calls = []
    fourier = naimark.block.fourier

    def counted(n):
        calls.append(n)
        return fourier(n)

    monkeypatch.setattr(naimark.block, "fourier", counted)
    cases = {
        "build_block_naimark": lambda: build_block_naimark(m),
        "diagonal_blocks": lambda: diagonal_blocks(m),
        "structure_report": lambda: structure_report(u, m),
    }
    for name, run in cases.items():
        calls.clear()
        run()
        assert len(calls) <= 2, (name, len(calls))
