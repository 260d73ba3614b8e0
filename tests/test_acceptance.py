"""Acceptance gate: the headline exact counts and equivalence suites.

Expensive artifacts (n=7 enumerations, the dim-7 arrangement lattice) are
computed once per session via module-scoped fixtures and shared.
"""

import time

import pytest

from polycrep import arrangements as ar, bunches, complexes as cx, \
    coxrelations, crosscheck, hyper_cones as hc
from polycrep.complexes import _mask_is_full, max_biconnected_masks

import routes


@pytest.fixture(scope="module")
def lambda7():
    t0 = time.monotonic()
    counted = cx.count_max_biconnected(7)
    walked = sum(1 for _ in max_biconnected_masks(7))
    return counted, walked, time.monotonic() - t0


@pytest.fixture(scope="module")
def a7_counts():
    a = ar.build_A(7)
    t0 = time.monotonic()
    f = ar.count_regions_in_cone(a, ar.cone_F(7))
    c0 = routes.chambers_in_cone(a, ar.cone_C0(7))
    return f, c0, time.monotonic() - t0


@pytest.fixture(scope="module")
def census7():
    t0 = time.monotonic()
    counts = hc.census_counts(7)
    return counts, time.monotonic() - t0


# -- criterion 1: Hosten-Morris counts with time bounds -----------------------

def test_hosten_morris_5():
    t0 = time.monotonic()
    assert cx.count_max_biconnected(5) == 81
    assert sum(1 for _ in max_biconnected_masks(5)) == 81
    assert time.monotonic() - t0 < 1


def test_hosten_morris_6():
    t0 = time.monotonic()
    assert cx.count_max_biconnected(6) == 2646
    assert sum(1 for _ in max_biconnected_masks(6)) == 2646
    assert time.monotonic() - t0 < 10


def test_hosten_morris_7(lambda7):
    counted, walked, elapsed = lambda7
    assert counted == walked == 1422564
    assert elapsed < 600


def test_structural_count_7():
    """λ(7) by the [n] <-> [n-1] split, without walking the 1.4 M complexes:
    the orbit sum and the plain sum over every downset."""
    t0 = time.monotonic()
    assert cx.count_max_biconnected(7) == 1422564
    assert time.monotonic() - t0 < 10
    assert routes.count_max_biconnected_plain(7) == 1422564


# -- criterion 2: exactly n non-full complexes --------------------------------

@pytest.mark.parametrize("n", [5, 6, 7])
def test_nonfull_counts(n):
    nonfull = sum(1 for m in max_biconnected_masks(n)
                  if not _mask_is_full(m, n))
    assert nonfull == n


# -- criterion 3: GIT chamber tables ------------------------------------------

def test_chamber_tables_n5_n6():
    for n, f_count, c0_count in ((5, 81, 76), (6, 1684, 1678)):
        a = ar.build_A(n)
        assert ar.count_regions_in_cone(a, ar.cone_F(n)) == f_count
        assert ar.count_regions_in_cone(a, ar.cone_C0(n)) == c0_count
        assert f_count - c0_count == n


def test_chamber_tables_n7(a7_counts):
    f, c0, elapsed = a7_counts
    assert (f, len(c0)) == (122921, 122914)
    assert f - len(c0) == 7
    assert elapsed < 1800


# -- criterion 4: resolution census -------------------------------------------

def test_census_5():
    assert hc.census_counts(5) == {
        "n": 5, "total": 81, "projective": 81, "nonprojective": 0}


def test_census_6_with_time_bound():
    t0 = time.monotonic()
    assert hc.census_counts(6) == {
        "n": 6, "total": 2646, "projective": 1684, "nonprojective": 962}
    assert time.monotonic() - t0 < 300


def test_census_7(census7):
    counts, elapsed = census7
    assert counts == {"n": 7, "total": 1422564, "projective": 122921,
                      "nonprojective": 1299643}
    assert counts["nonprojective"] == 1422564 - 122921
    assert elapsed < 5


def test_orbit_census_7_matches_full_split(a7_counts):
    """The 134 S_7-orbit representatives weigh as much as the chambers of
    the full split of C_0, and the records bank holds each chamber once,
    with the witness that the split reports for it."""
    _, split, _ = a7_counts
    orbits = ar.chamber_orbits(7)
    assert len(orbits) == 134
    assert sum(size for _, size in orbits) == len(split) == 122914
    assert hc._projective_bank(7) == {cx.family_mask(t, 7): t for t in split}


def test_orbit_chambers_8_with_time_bound():
    """The chambers of A(8) inside C_0, beyond the full split's reach:
    33 207 248, which a count of the shifted maximally-biconnected
    complexes weighted by orbit size also gave (recorded in ROADMAP.md)."""
    t0 = time.monotonic()
    orbits = ar.chamber_orbits(8)
    assert len(orbits) == 2469
    assert sum(size for _, size in orbits) == 33207248
    assert time.monotonic() - t0 < 30


def test_census_8_with_time_bound():
    """λ(8) = 229 809 982 112 (Brouwer, Mills, Mills & Verbeek, EJC 2013)
    by the orbit sum, of which the 8 non-full complexes and one per
    chamber of A(8) inside C_0 are projective."""
    t0 = time.monotonic()
    assert hc.census_counts(8) == {
        "n": 8, "total": 229809982112, "projective": 33207256,
        "nonprojective": 229776774856}
    assert time.monotonic() - t0 < 10


# -- criterion 5: Segre cubic, two routes to 332 ------------------------------

def test_segre_332_all_routes():
    assert ar.count_chambers_at_ray(ar.build_A(6), (1,) * 6) == 332
    b = ar.build_B(6, 3)
    assert ar.count_regions(b, "enumerate") == 332
    assert ar.count_regions(b, "charpoly") == 332


# -- criterion 6: the dim-7 arrangement (extended) ----------------------------

B84_REGIONS = 495504


def test_B84_charpoly():
    t0 = time.monotonic()
    assert ar.count_regions(ar.build_B(8, 4), "charpoly") == B84_REGIONS
    elapsed = time.monotonic() - t0
    print(f"\nB(8,4) charpoly regions in {elapsed:.1f}s")
    assert elapsed < 10


def test_B84_enumerate():
    """The second route to B84_REGIONS: one certified split per region,
    sharing no counting kernel with the lattice pass."""
    t0 = time.monotonic()
    assert ar.count_regions(ar.build_B(8, 4), "enumerate") == B84_REGIONS
    elapsed = time.monotonic() - t0
    print(f"\nB(8,4) enumerate regions in {elapsed:.1f}s")
    assert elapsed < 30


# -- criterion 7: oracle equivalence, exhaustive at n=5 -----------------------

def test_oracle_equivalence_exhaustive():
    for report in crosscheck.run_all(5, max_k=3):
        assert report["mismatches"] == 0, report


# -- criterion 8: bijection round trips ---------------------------------------

@pytest.mark.parametrize("n", [5, 6])
def test_complex_bunch_roundtrip(n):
    seen = set()
    for m in max_biconnected_masks(n, full_only=True):
        d = cx.Complex(n, m)
        phi = routes.phi_from_complex(d)
        assert routes.complex_from_bunch(phi) == d
        seen.add(phi)
    lam = cx.count_max_biconnected(n)
    assert lam == sum(1 for _ in max_biconnected_masks(n))
    assert len(seen) == lam - n  # injective


@pytest.mark.parametrize("n", [5, 6])
def test_complex_dimension_bijection(n):
    images = set()
    for m in max_biconnected_masks(n):
        d = cx.Complex(n, m)
        b = routes.max_biconnected_to_biconnected(d)
        assert routes.biconnected_to_max_biconnected(b) == d
        images.add(b)
    lam = cx.count_max_biconnected(n)
    assert lam == sum(1 for _ in max_biconnected_masks(n))
    assert len(images) == lam


# -- criterion 9: chambers map onto projective full complexes -----------------

@pytest.mark.parametrize("n,m_n", [(5, 76), (6, 1678)])
def test_chamber_complex_consistency(n, m_n):
    a = ar.build_A(n)
    chambers = routes.chambers_in_cone(a, ar.cone_C0(n))
    assert len(chambers) == m_n
    image = {routes.chamber_to_complex(a, theta) for theta in chambers}
    assert len(image) == m_n  # injective
    full = (cx.Complex(n, m) for m in max_biconnected_masks(n, full_only=True))
    projective = {d for d in full if bunches.is_projective(d)}
    assert image == projective


# -- criterion 10: Cox relations ----------------------------------------------

def test_cox_identities_all_n():
    for n in range(4, 10):
        assert coxrelations.iota_substitution_identities(n)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_cox_hundred_samples_and_mutant(n):
    for seed in range(100):
        pt = coxrelations.sample_X_point(n, seed)
        assert coxrelations.verify_relations_vanish(pt)
    pt = coxrelations.sample_X_point(n, 100)
    bad = coxrelations.XPoint.__new__(coxrelations.XPoint)
    object.__setattr__(bad, "n", pt.n)
    object.__setattr__(bad, "x", pt.x)
    object.__setattr__(bad, "y", pt.y)
    object.__setattr__(bad, "c", (pt.c[0] + 1,) + tuple(pt.c[1:]))
    assert not coxrelations.verify_relations_vanish(bad)
