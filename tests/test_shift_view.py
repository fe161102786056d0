"""The WH shift rule's one statement, `cyclic_shifts`, and the orbit built on it.

The view is checked against the index loop a[..., (l + j) % d] for 1-D and 2-D,
C- and F-ordered inputs, and must refuse writes.  `wh_orbit` is checked against
the orbit of the index-loop displacement `loop_displacement`, which reads no
library code, and must equal the gather formula it replaced (`gather_orbit`).
`_omega_table` must equal the d^2 exponentials it replaced.  The orbit and the
Born oracle must stay within one orbit array of traced memory.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naimark import direct_probabilities, wh_orbit
from naimark.fiducials import cyclic_shifts
from naimark.wh import _omega_table, max_abs

from util import exp_omega_table, gather_orbit, loop_displacement, rand_ket

EPS = np.finfo(float).eps
VIEW = settings(max_examples=40, deadline=None, derandomize=True)
dims = st.integers(2, 24)
seeds = st.integers(0, 2**32 - 1)


def loop_shifts(a):
    """out[..., j, l] = a[..., (l + j) % d], one entry at a time."""
    d = a.shape[-1]
    out = np.empty(a.shape + (d,), dtype=a.dtype)
    for j in range(d):
        for l in range(d):
            out[..., j, l] = a[..., (l + j) % d]
    return out


@VIEW
@given(dims, st.integers(1, 5), seeds)
def test_view_equals_the_index_loop(d, rows, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
    f = np.asfortranarray(z)
    assert f.flags.f_contiguous and (rows == 1 or not f.flags.c_contiguous)
    for a in (z[0], z, f, z.T, f.T):
        assert np.array_equal(cyclic_shifts(a), loop_shifts(a))


def test_view_refuses_writes():
    for a in (np.arange(4.0), np.arange(12.0).reshape(3, 4), np.arange(12.0).reshape(3, 4).T):
        view = cyclic_shifts(a)
        with pytest.raises(ValueError, match="read-only"):
            view[..., 0, 0] = 1.0


@VIEW
@given(dims, seeds)
def test_orbit_equals_the_loop_displacements_and_the_gather(d, seed):
    phi = rand_ket(d, np.random.default_rng(seed))
    got = wh_orbit(phi).vectors
    loop = np.array([loop_displacement(d, j, k) @ phi for j in range(d) for k in range(d)])
    assert max_abs(got - loop) <= 4 * EPS
    assert np.array_equal(got, gather_orbit(phi))


@pytest.mark.parametrize("d", [*range(1, 71), 256, 1024])
def test_omega_table_equals_the_d2_exponentials(d):
    assert np.array_equal(_omega_table(d), exp_omega_table(d))


@pytest.mark.parametrize(
    "call", [lambda phi, psi: wh_orbit(phi), direct_probabilities], ids=["orbit", "oracle"]
)
def test_orbit_and_born_oracle_hold_one_orbit_array(call):
    """The traced peak stays within 1.25 x the 16 d^3 bytes of the orbit, at d = 48."""
    d = 48
    rng = np.random.default_rng(48)
    phi, psi = rand_ket(d, rng), rand_ket(d, rng)
    call(phi, psi)
    tracemalloc.start()
    try:
        call(phi, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16 * d**3
