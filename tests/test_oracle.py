"""Closed-form criteria vs the exact polyhedral oracle.

The n=5 suites are exhaustive over their stated domains; any mismatch is a
hard failure.  Larger n are covered by seeded random pair samples.  A
closed form made wrong on one ordered instance gives exactly one mismatch,
so the suites' shared LPs and incidence masks still check every instance.
"""

import inspect
import json
import random
import time

import pytest

from polycrep import crosscheck, hyper_cones, polygon_cones as pc, ratgeom
from polycrep.complexes import (Complex, enumerate_partitions, is_full,
                                max_biconnected_masks)
from polycrep.ratgeom import ConeV

import routes


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


def _wrong_once(monkeypatch, module, name, instance):
    """Make module.name give the wrong answer on the arguments instance
    alone."""
    right = getattr(module, name)

    def wrong(*args):
        return right(*args) != (args == instance)

    monkeypatch.setattr(module, name, wrong)


FREE4 = list(enumerate_partitions(0b1111, 4, min_parts=3))
DATA4 = list(hyper_cones.free_orbit_data(4, 3))


@pytest.mark.parametrize("name", ["relint_disjoint_free", "subset_free"])
@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (2, 2)])
def test_polygon_suite_checks_each_ordered_pair(monkeypatch, name, a, b):
    _wrong_once(monkeypatch, pc, name, (FREE4[a], FREE4[b]))
    assert crosscheck.polygon_suite(4)["mismatches"] == 1


@pytest.mark.parametrize("datum,i", [(0, 1), (5, 3), (len(DATA4) - 1, 4)])
def test_hyper_suite_checks_each_corner(monkeypatch, datum, i):
    _wrong_once(monkeypatch, hyper_cones, "contains_corner",
                (DATA4[datum], i))
    assert crosscheck.hyper_suite(4, 3)["mismatches"] == 1


@pytest.mark.parametrize("full", [True, False])
def test_psi_suite_checks_each_pair(monkeypatch, full):
    """psi_suite meets each (complex, datum) pair at the Ψ_Δ kernel: _psi
    on the datum's faces for a full complex, contains_corner at the
    missing index for a non-full one."""
    d = next(Complex(4, m) for m in max_biconnected_masks(4)
             if is_full(Complex(4, m)) == full)
    if full:
        _wrong_once(monkeypatch, hyper_cones, "_psi",
                    (d.family, 0, DATA4[7], hyper_cones._psi_faces(DATA4[7])))
    else:
        _wrong_once(monkeypatch, hyper_cones, "contains_corner",
                    (DATA4[7], hyper_cones._psi_corner(d)))
    assert crosscheck.psi_suite(4, 3)["mismatches"] == 1


def test_psi_suite_finds_the_missing_singleton_itself(monkeypatch):
    """The oracle reads a non-full complex's missing singleton off its
    family mask, so a wrong index from the closed form's _psi_corner on
    one complex gives mismatches."""
    d = next(Complex(4, m) for m in max_biconnected_masks(4)
             if not is_full(Complex(4, m)))
    right = hyper_cones._psi_corner

    def wrong(c):
        i = right(c)
        return i % 4 + 1 if c == d else i

    monkeypatch.setattr(hyper_cones, "_psi_corner", wrong)
    assert crosscheck.psi_suite(4, 3)["mismatches"] >= 1


@pytest.mark.parametrize("n", [4, 5])
def test_psi_kernel_equals_psi_membership(n):
    """The kernel psi_suite calls, on faces found once per datum and the
    corner found once per complex, gives psi_membership's answer on every
    (complex, free datum) pair."""
    data = list(hyper_cones.free_orbit_data(n))
    faces = [hyper_cones._psi_faces(c) for c in data]
    for m in max_biconnected_masks(n):
        d = Complex(n, m)
        i = hyper_cones._psi_corner(d)
        for c, f in zip(data, faces):
            got = hyper_cones._psi(m, i, c, f)
            assert got == routes.psi_membership(d, c), (m, c)


def test_run_all_computes_each_object_once(monkeypatch):
    """From cold caches, run_all(4, 3) makes at most 117 DD conversions
    and 63 LPs: one H-form per cone, one LP per unordered pair (274 and 84
    when each suite built its own).  The LPs are counted at the phase-1
    kernel, which every LP runs, and some must run."""
    for f in vars(crosscheck).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    calls = dict.fromkeys(("h_to_v", "phase1"), 0)
    for name in calls:
        def counted(*args, _right=getattr(ratgeom, name), _name=name):
            calls[_name] += 1
            return _right(*args)
        monkeypatch.setattr(ratgeom, name, counted)
    reports = crosscheck.run_all(4, 3)
    assert [r["mismatches"] for r in reports] == [0] * 4
    assert calls["h_to_v"] <= 117, calls
    assert 1 <= calls["phase1"] <= 63, calls


def test_run_all_clamps_max_k_to_n():
    """K ⊆ [n], so a bound on #K above n is n: the same checks, found as
    fast, with max_k echoed as given."""
    t0 = time.monotonic()
    huge = crosscheck.run_all(4, 10**18)
    assert time.monotonic() - t0 < 3
    for got, want in zip(huge, crosscheck.run_all(4, 4), strict=True):
        assert got.pop("max_k", 10**18) == 10**18
        want.pop("max_k", None)
        assert got == want


def test_orbit_cones_cached_once_per_clamped_bound():
    """Every max_k >= n names the same orbit data, so it builds one cache
    entry; the reports still echo max_k as given."""
    crosscheck._orbit_cones.cache_clear()
    five = crosscheck.run_all(5, 5)
    six = crosscheck.run_all(5, 6)
    assert crosscheck._orbit_cones.cache_info().currsize == 1
    assert [r.get("max_k") for r in six] == [None, 6, 6, 6]
    for a, b in zip(five, six, strict=True):
        a.pop("max_k", None)
        b.pop("max_k", None)
        assert a == b


# `oracle crosscheck --n 5 --max-k 5` checks every orbit datum, #K up to n;
# its checked counts per suite
CHECKED_N5_K5 = {"polygon": 2628, "hyper": 2405, "psi": 25272,
                 "orbit-membership": 1632}


def test_oracle_n5_every_k_is_pinned(capsys):
    """The orbit-membership suite only checks that accepted data are
    top-dimensional, so a freeness test that rejects too much would pass
    it; the counts of free data that the hyper and Ψ suites check, at every
    #K, pin what in_omega_X_free accepts."""
    from polycrep import cli
    assert cli.main(["oracle", "crosscheck", "--n", "5", "--max-k", "5"]) == 0
    reports = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert {r["suite"]: r["checked"] for r in reports} == CHECKED_N5_K5
    assert [r["mismatches"] for r in reports] == [0] * 4


def test_oracle_n5_counts_catch_a_strict_meets_bound(monkeypatch):
    """in_omega_X_free with `meets > 4` for `meets >= 4` rejects free data
    that meet four parts; every suite still reports 0 mismatches, and only
    the pinned counts of the hyper and Ψ suites move."""
    source = inspect.getsource(hyper_cones.in_omega_X_free)
    assert source.count("meets >= 4") == 1
    namespace = dict(vars(hyper_cones))
    exec(source.replace("meets >= 4", "meets > 4"), namespace)
    monkeypatch.setattr(hyper_cones, "in_omega_X_free",
                        namespace["in_omega_X_free"])
    crosscheck._orbit_cones.cache_clear()
    try:
        reports = crosscheck.run_all(5, 5)
    finally:
        crosscheck._orbit_cones.cache_clear()
    assert [r["mismatches"] for r in reports] == [0] * 4
    assert {r["suite"]: r["checked"] for r in reports} == {
        **CHECKED_N5_K5, "hyper": 2160, "psi": 22437}
