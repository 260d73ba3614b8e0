"""Closed-form criteria vs the exact polyhedral oracle.

The n=5 suites are exhaustive over their stated domains; any mismatch is a
hard failure.  Larger n are covered by seeded random pair samples.
"""

import random

import pytest

from polycrep import crosscheck, polygon_cones as pc, ratgeom
from polycrep.complexes import enumerate_partitions
from polycrep.ratgeom import ConeV


def test_polygon_suite_exhaustive_n5():
    report = crosscheck.polygon_suite(5)
    assert report["mismatches"] == 0
    assert report["checked"] >= 36 * 36 * 2


def test_hyper_suite_exhaustive_n5():
    report = crosscheck.hyper_suite(5, max_k=3)
    assert report["mismatches"] == 0


def test_psi_suite_exhaustive_n5():
    report = crosscheck.psi_suite(5, max_k=3)
    assert report["mismatches"] == 0
    assert report["checked"] > 10000


def test_orbit_membership_suite_n5():
    assert crosscheck.orbit_membership_suite(5)["mismatches"] == 0


@pytest.mark.parametrize("n,samples", [(6, 150), (7, 60)])
def test_polygon_criteria_random_pairs(n, samples):
    free = list(enumerate_partitions((1 << n) - 1, n, min_parts=3))
    gens = {c: tuple(pc.generators(c)) for c in free}
    hforms = {c: ratgeom.v_to_h(ConeV(n, gens[c])) for c in free}
    rng = random.Random(20260824 + n)
    for _ in range(samples):
        a, b = rng.choice(free), rng.choice(free)
        oracle_subset = all(
            all(ratgeom.dot(i, g) >= 0 for i in hforms[b].inequalities)
            for g in gens[a])
        assert pc.subset_free(a, b) == oracle_subset
        oracle_disjoint = not ratgeom.relint_intersects(
            ConeV(n, gens[a]), ConeV(n, gens[b]))
        assert pc.relint_disjoint_free(a, b) == oracle_disjoint
