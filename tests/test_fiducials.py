"""Fiducial catalog, orbits, and the SIC / informational-completeness checks."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naimark import (
    CatalogMissError,
    Fiducial,
    InvalidDimensionError,
    InvalidInputError,
    builtin_fiducial,
    catalog_m,
    complete_unitary,
    compound_sic_report,
    is_informationally_complete,
    sic_report,
    wh_orbit,
)
from naimark.fiducials import CATALOG, as_ket, characteristic, gram_condition, gram_rank
from naimark.wh import max_abs

from util import dense_resolution_residual, rand_ket


def test_qubit_fiducial_components():
    fid = builtin_fiducial(2, "qubit-sic")
    want = np.array(
        [np.sqrt(3 + np.sqrt(3)), np.exp(1j * np.pi / 4) * np.sqrt(3 - np.sqrt(3))]
    ) / np.sqrt(6)
    assert max_abs(fid.ket - want) < 1e-15
    assert abs(np.linalg.norm(fid.ket) - 1) < 1e-12


def test_hesse_fiducials():
    fid = builtin_fiducial(3, "hesse")
    assert np.allclose(fid.ket, np.array([0, 1, -1]) / np.sqrt(2))
    partner = builtin_fiducial(3, "hesse-partner")
    assert np.allclose(partner.ket, np.array([0, 1, 1]) / np.sqrt(2))
    assert abs(np.vdot(fid.ket, partner.ket)) < 1e-15


def test_ququart_fiducial_norm_and_alternative_normalization():
    fid = builtin_fiducial(4, "ququart-sic")
    assert abs(np.linalg.norm(fid.ket) - 1) < 1e-12
    # the nested-radical normalization equals sin(pi/5)/sqrt(5)
    scale = np.sqrt((1 - 1 / np.sqrt(5)) / 8)
    assert scale == pytest.approx(np.sin(np.pi / 5) / np.sqrt(5), abs=1e-15)
    # first component is scale * (e^{-i pi/4} + 1)
    assert fid.ket[0] == pytest.approx(scale * (np.exp(-1j * np.pi / 4) + 1))


def test_catalog_miss():
    with pytest.raises(CatalogMissError):
        builtin_fiducial(2, "no-such-label")
    with pytest.raises(CatalogMissError):
        builtin_fiducial(5, "hesse")


def test_fiducial_requires_normalization():
    with pytest.raises(InvalidInputError):
        Fiducial(dim=2, ket=np.array([1.0, 1.0]))
    with pytest.raises(InvalidInputError):
        Fiducial(dim=3, ket=np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_non_finite_kets_rejected(bad):
    ket = np.array([bad, 0.0])
    with pytest.raises(InvalidInputError, match="non-finite"):
        Fiducial(dim=2, ket=ket)
    with pytest.raises(InvalidInputError, match="non-finite"):
        as_ket(ket)
    with pytest.raises(InvalidInputError, match="non-finite"):
        is_informationally_complete(ket)


def test_orbit_of_qubit_sic_has_simplex_overlaps():
    frame = wh_orbit(builtin_fiducial(2, "qubit-sic"))
    gram2 = np.abs(frame.vectors.conj() @ frame.vectors.T) ** 2
    for a in range(4):
        for b in range(4):
            want = 1.0 if a == b else 1.0 / 3.0
            assert gram2[a, b] == pytest.approx(want, abs=1e-12)


def test_orbit_of_basis_state_collapses():
    # Z acts trivially on |0>, so the orbit is |0>,|0>,|1>,|1> up to phases
    frame = wh_orbit(np.array([1.0, 0.0]))
    mags = np.abs(frame.vectors)
    assert np.allclose(mags[0], [1, 0])
    assert np.allclose(mags[1], [1, 0])
    assert np.allclose(mags[2], [0, 1])
    assert np.allclose(mags[3], [0, 1])


def test_hesse_orbit_gram_brute_force():
    frame = wh_orbit(builtin_fiducial(3, "hesse"))
    for a in range(9):
        for b in range(9):
            ov = abs(np.vdot(frame.vectors[a], frame.vectors[b])) ** 2
            want = 1.0 if a == b else 0.25
            assert ov == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_resolution_of_identity_random_fiducials(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(20):
        frame = wh_orbit(rand_ket(d, rng))
        assert dense_resolution_residual(frame.vectors) < 1e-10


@pytest.mark.parametrize("label,d", [("qubit-sic", 2), ("hesse", 3), ("hesse-partner", 3), ("ququart-sic", 4)])
def test_resolution_of_identity_catalog(label, d):
    assert dense_resolution_residual(wh_orbit(builtin_fiducial(d, label)).vectors) < 1e-10


def test_ic_check_rejects_basis_state():
    res = is_informationally_complete(np.array([1.0, 0.0]))
    assert not res
    assert res.witness_index == (1, 0)
    assert res.witness_overlap == pytest.approx(0.0, abs=1e-15)
    assert res.gram_rank == 2


def test_ic_check_accepts_qubit_sic_with_expected_overlaps():
    fid = builtin_fiducial(2, "qubit-sic")
    res = is_informationally_complete(fid)
    assert res
    assert res.gram_rank == 4
    for j in range(2):
        for k in range(2):
            mod2 = res.overlaps[j, k] ** 2
            want = 1.0 if (j, k) == (0, 0) else 1.0 / 3.0
            assert mod2 == pytest.approx(want, abs=1e-12)


def test_ic_check_accepts_hesse():
    assert is_informationally_complete(builtin_fiducial(3, "hesse"))


def test_ic_results_compare_by_identity_and_hash():
    """ICResult holds an ndarray, so field-wise == would raise; it compares like the
    other result types, by identity."""
    res, res2 = (is_informationally_complete(builtin_fiducial(3, "hesse")) for _ in range(2))
    assert res == res and res != res2
    assert res in [res2, res] and res not in [res2]
    assert hash(res) == hash(res) and len({res, res2, res}) == 2


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_random_fiducials_are_ic(d):
    rng = np.random.default_rng(4200 + d)
    for _ in range(20):
        assert is_informationally_complete(rand_ket(d, rng))


def test_sic_report_catalog():
    assert sic_report(builtin_fiducial(2, "qubit-sic")) < 1e-12
    assert sic_report(builtin_fiducial(3, "hesse")) < 1e-12
    assert sic_report(builtin_fiducial(3, "hesse-partner")) < 1e-12
    assert sic_report(builtin_fiducial(4, "ququart-sic")) < 1e-12


def test_sic_report_basis_state():
    # repeated orbit vectors overlap with modulus 1 where 1/3 is required
    assert sic_report(np.array([1.0, 0.0])) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_compound_sic_qubit():
    devs = compound_sic_report(catalog_m("qubit"))
    assert len(devs) == 2
    assert all(dev < 1e-12 for dev in devs)


def test_compound_sic_hesse_has_one_bad_row():
    devs = compound_sic_report(catalog_m("hesse"))
    assert devs[0] < 1e-12
    assert devs[2] < 1e-12
    # row 1 is a computational basis state; its orbit repeats, overlap 1 vs 1/4
    assert devs[1] == pytest.approx(0.75, abs=1e-12)


def test_compound_sic_ququart_all_rows():
    devs = compound_sic_report(catalog_m("ququart"))
    assert len(devs) == 4
    assert all(dev < 1e-12 for dev in devs)


def test_compound_sic_rejects_non_unitary():
    with pytest.raises(InvalidInputError):
        compound_sic_report(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_catalog_record_pairs_each_fiducial_with_its_completion():
    for entry in CATALOG.values():
        fid = builtin_fiducial(len(entry.ket), entry.label)
        assert np.array_equal(fid.ket, entry.ket)
        if entry.m is not None:
            assert np.array_equal(catalog_m(entry.m_label)[0], entry.ket.conj())
    assert sorted(e.m_label for e in CATALOG.values() if e.m is not None) == [
        "hesse", "qubit", "ququart",
    ]


def test_catalog_lookups_return_copies():
    catalog_m("qubit")[0, 0] = 99.0
    builtin_fiducial(3, "hesse").ket[0] = 99.0
    assert catalog_m("qubit")[0, 0] != 99.0
    assert builtin_fiducial(3, "hesse").ket[0] == 0.0


def test_catalog_misses():
    with pytest.raises(CatalogMissError, match="no completion matrix"):
        catalog_m("hesse-partner")
    with pytest.raises(CatalogMissError, match="no fiducial"):
        builtin_fiducial(4, "hesse")


def test_compound_sic_honours_a_tighter_tolerance():
    m = catalog_m("hesse").copy()
    m[0, 1] += 3e-11
    resid = max_abs(m.conj().T @ m - np.eye(3))
    assert 1e-13 < resid < 1e-10
    assert len(compound_sic_report(m)) == 3  # the default stays PHYSICAL_TOL
    with pytest.raises(InvalidInputError, match="not unitary"):
        compound_sic_report(m, tol=1e-13)


@pytest.mark.parametrize(
    "orbit_function",
    [characteristic, wh_orbit, as_ket, complete_unitary, functools.partial(Fiducial, 1)],
    ids=["characteristic", "wh_orbit", "as_ket", "complete_unitary", "Fiducial"],
)
def test_orbit_guards_reject_a_length_one_ket(orbit_function):
    with pytest.raises(InvalidDimensionError, match="WH orbits need d >= 2, got 1"):
        orbit_function(np.array([1.0]))


def rank_threshold(d):
    """tau**2 / d, the bound above which `gram_rank` counts an eigenvalue."""
    tau = 16 * np.finfo(float).eps * math.sqrt(d) * math.log2(2 * d)
    return tau**2 / d


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(2, 16), data=st.data())
@example(d=2, data=None)
@example(d=1024, data=None)
def test_full_gram_rank_implies_a_finite_condition_number(d, data):
    # Every eigenvalue lies in (tau^2 / d, 1 / d], as for a normalized fiducial.
    low = float(np.nextafter(rank_threshold(d), np.inf))
    if data is None:  # the extreme: all but one eigenvalue just above the threshold
        values = [low] * (d * d - 1) + [1 / d]
    else:
        values = data.draw(st.lists(st.floats(low, 1 / d), min_size=d * d, max_size=d * d))
        values[0] = low
    lam = np.array(values).reshape(d, d)
    assert gram_rank(lam) == d * d
    assert math.isfinite(gram_condition(lam))


@pytest.mark.parametrize("d", [2, 7, 64])
def test_gram_rank_cuts_at_tau_squared_over_d(d):
    """One eigenvalue a factor 4 below the cut tau^2 / d and one a factor 4 above
    it: only the first is a zero, so the rank is d^2 - 1.  A tau off by more than a
    factor 2 either way counts d^2 or d^2 - 2."""
    lam = np.full((d, d), 1 / d)
    lam[0, 0] = rank_threshold(d) / 4
    lam[-1, -1] = 4 * rank_threshold(d)
    assert gram_rank(lam) == d * d - 1


def tilted_qubit_sic(gap):
    """The qubit ket with Bloch vector (x, x - gap, x), a unit vector: at gap 0 the
    catalog's qubit SIC, (1, 1, 1) / sqrt(3).  Its overlaps |<phi|D(j,k)|phi>| are
    |z|, |x| and |y| at (0, 1), (1, 0) and (1, 1)."""
    x = (gap + math.sqrt(3 - 2 * gap**2)) / 3
    y, z = x - gap, x
    return np.array([math.sqrt((1 + z) / 2), (x + 1j * y) / math.sqrt(2 * (1 + z))])


@pytest.mark.parametrize("gap", [1e-10, 1e-8, 1e-7])
def test_the_witness_band_is_default_tol_wide(gap):
    """The least overlap, (1, 1), lies gap below the tied pair (0, 1), (1, 0), which
    come first in row-major order.  A witness band of DEFAULT_TOL picks (1, 1); one
    wider than gap (up to 1e-6) would pick (0, 1)."""
    sic = builtin_fiducial(2, "qubit-sic").ket
    assert abs(np.vdot(tilted_qubit_sic(0.0), sic)) == pytest.approx(1, abs=1e-15)
    ket = tilted_qubit_sic(gap)
    dense = np.abs(wh_orbit(ket).vectors @ ket.conj()).reshape(2, 2)  # the orbit oracle
    assert dense[0, 1] - dense[1, 1] == pytest.approx(gap, rel=1e-5)
    assert dense[1, 0] - dense[1, 1] == pytest.approx(gap, rel=1e-5)
    res = is_informationally_complete(ket)
    assert res.witness_index == (1, 1)
    assert res.witness_overlap == pytest.approx(dense[1, 1], abs=1e-15)
