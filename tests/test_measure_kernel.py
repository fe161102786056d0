"""The outcome-probability kernel: `measure_probabilities` from M alone against
the dense product |U embed(psi, i)|^2, for both routes' extensions and for a
bare M, and its input guards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naimark import (
    InvalidInputError,
    build_bell_naimark,
    build_block_naimark,
    measure_probabilities,
)
from naimark.wh import max_abs

from util import dense_measure_probabilities, rand_ket, rand_unitary


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 24), st.integers(0, 2**32 - 1))
def test_kernel_equals_dense_product_for_every_index(d, seed):
    rng = np.random.default_rng(seed)
    m = rand_unitary(d, rng)
    psi = rand_ket(d, rng)
    block, bell = build_block_naimark(m), build_bell_naimark(m)
    for i in range(d):
        for source, u in ((block, block.U), (bell, bell.U), (m, block.U)):
            got = measure_probabilities(source, psi, i).probs
            assert max_abs(got - dense_measure_probabilities(u, psi, i)) < 1e-13


@pytest.mark.parametrize("i", [-1, 3, 4])
@pytest.mark.parametrize("bare", [False, True])
def test_index_outside_range_rejected_before_any_work(monkeypatch, i, bare):
    import naimark.simulate as sim

    def boom(*_):
        raise AssertionError("gathered the state for an invalid index")

    monkeypatch.setattr(sim, "cyclic_shifts", boom)
    m = rand_unitary(3, np.random.default_rng(1))
    source = m if bare else build_block_naimark(m)
    with pytest.raises(InvalidInputError, match=f"embedding index {i} out of range for d=3"):
        measure_probabilities(source, np.array([1.0, 0.0, 0.0]), i)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bare", [False, True])
def test_non_finite_state_rejected(bad, bare):
    m = rand_unitary(3, np.random.default_rng(2))
    source = m if bare else build_bell_naimark(m)
    with np.errstate(invalid="ignore"), pytest.raises(InvalidInputError, match="non-finite"):
        measure_probabilities(source, np.array([bad, 0.0, 0.0]), 1)


def test_wrong_state_dimension_rejected_for_a_bare_m():
    m = rand_unitary(3, np.random.default_rng(3))
    with pytest.raises(InvalidInputError, match="state has dim 2, extension has d=3"):
        measure_probabilities(m, np.array([1.0, 0.0]), 0)


@pytest.mark.parametrize(
    "m",
    [
        rand_unitary(3, np.random.default_rng(4)) * 1.01,
        np.ones((3, 3)),
        np.full((3, 3), np.nan),
        np.eye(3)[:2],
    ],
    ids=["scaled", "ones", "nan", "non-square"],
)
def test_bare_m_must_be_unitary(m):
    with pytest.raises(InvalidInputError, match="completion matrix M"):
        measure_probabilities(m, np.array([1.0, 0.0, 0.0]), 0)
