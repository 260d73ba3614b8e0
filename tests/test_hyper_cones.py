"""Hyper orbit cones, corner criteria, Psi membership, and the census."""

import itertools
import math

import pytest

from polycrep import (arrangements, bunches, hyper_cones as hc,
                      polygon_cones, ratgeom)
from polycrep.complexes import (Complex, Partition, _mask_is_full,
                                _splits_every_pair, cone_rows, family_mask,
                                mask_of, max_biconnected_masks)
from polycrep.hyper_cones import HyperCone
from polycrep.ratgeom import ConeV

import routes


def part(n, *blocks):
    return Partition(n, tuple(mask_of(b, n) for b in blocks))


def singletons(n):
    return part(n, *({i} for i in range(1, n + 1)))


def test_in_omega_X_free():
    assert hc.in_omega_X_free(part(5, {1, 2, 3, 4}, {5}), mask_of({1, 2}, 5))
    assert not hc.in_omega_X_free(part(5, {1, 2, 3, 4, 5}),
                                  mask_of({1, 2}, 5))
    assert hc.in_omega_X_free(singletons(5), 0)
    assert not hc.in_omega_X_free(part(5, {1, 2, 3}), 0)  # partial ground
    assert not hc.in_omega_X_free(part(5, {1, 2, 3, 4}, {5}), 0)  # 2 parts


def test_generators_hyper():
    c = HyperCone(5, singletons(5), 0)
    assert len(hc.generators_hyper(c)) == 10
    c = HyperCone(5, singletons(5), mask_of({1}, 5))
    gens = hc.generators_hyper(c)
    assert len(gens) == 11
    assert gens[-1] == (-1, 0, 0, 0, 0)
    c = HyperCone(5, singletons(5), mask_of({2, 5}, 5))
    assert hc.generators_hyper(c)[-2:] == [(0, -1, 0, 0, 0), (0, 0, 0, 0, -1)]
    # K is a subset mask of [n]: negative, or a bit at or above n, is refused
    for K in (-1, -0b10, 1 << 5, 0b100001):
        with pytest.raises(ValueError, match="K outside"):
            HyperCone(5, singletons(5), K)


def test_free_cones_are_top_dimensional():
    for c in itertools.islice(hc.free_orbit_data(5, 2), 40):
        v = ConeV(5, tuple(hc.generators_hyper(c)))
        assert ratgeom.cone_dim(v) == 5


def test_contains_corner():
    c = HyperCone(5, part(5, {1}, {2, 3, 4, 5}), mask_of({2}, 5))
    assert hc.contains_corner(c, 1)
    assert not hc.contains_corner(c, 2)
    c = HyperCone(5, singletons(5), 0)
    for i in range(1, 6):
        assert not hc.contains_corner(c, i)
    with pytest.raises(ValueError):
        hc.contains_corner(c, 6)
    # 5 is in [5] but in no part of the partition
    c = HyperCone(5, part(5, {1, 2}, {3, 4}), mask_of({5}, 5))
    with pytest.raises(ValueError, match="ground"):
        hc.contains_corner(c, 5)


def test_contains_F():
    assert hc.contains_F(HyperCone(5, singletons(5), mask_of({1, 2}, 5)))
    assert not hc.contains_F(HyperCone(5, singletons(5), 0))
    assert not hc.contains_F(
        HyperCone(5, part(5, {1, 2, 3}, {4}, {5}), mask_of({1, 2}, 5)))


def test_meet_C0():
    p = part(5, {1, 2, 3}, {4}, {5})
    c = HyperCone(5, p, mask_of({1, 2}, 5))
    m = hc.meet_C0(c)
    assert m == part(5, {1, 2, 3}, {4}, {5})  # eta_{123}
    c = HyperCone(5, p, 0)
    assert hc.meet_C0(c) == p
    with pytest.raises(ValueError):
        hc.meet_C0(HyperCone(5, singletons(5), mask_of({1, 2}, 5)))


def test_psi_membership_basics():
    full = Complex.from_faces(5, tuple(
        frozenset(q) for q in itertools.combinations(range(1, 6), 2)))
    # containing F is always enough
    c = HyperCone(5, part(5, {1, 2}, {3, 4}, {5}), mask_of({1, 2, 3, 4}, 5))
    assert hc.contains_F(c)
    assert routes.psi_membership(full, c)
    # K empty: membership of the partition in the complex
    c = HyperCone(5, singletons(5), 0)
    assert routes.psi_membership(full, c)
    c = HyperCone(5, part(5, {1, 2, 3}, {4}, {5}), 0)
    assert not routes.psi_membership(full, c)  # {1,2,3} is not a face
    # non-full complex: corner containment
    nonfull = Complex.from_faces(5, (frozenset({2, 3, 4, 5}),))
    c = HyperCone(5, part(5, {1}, {2, 3}, {4, 5}), mask_of({2, 3}, 5))
    assert hc.contains_corner(c, 1)
    assert routes.psi_membership(nonfull, c)
    assert not routes.psi_membership(
        Complex.from_faces(5, (frozenset({1, 3, 4, 5}),)), c)


def test_psi_membership_validates_its_arguments():
    full = Complex.from_faces(5, tuple(
        frozenset(q) for q in itertools.combinations(range(1, 6), 2)))
    free = HyperCone(5, singletons(5), 0)
    with pytest.raises(ValueError):
        routes.psi_membership(Complex.from_faces(5, (frozenset({1, 2}),)),
                              free)
    with pytest.raises(ValueError):
        routes.psi_membership(full, HyperCone(5, part(5, {1, 2}, {3, 4, 5}),
                                              0))


def test_psi_membership_rejects_mixed_ground_sets():
    """A complex on [5] and a free cone on [6] (and the other way round)
    are refused, not answered."""
    full5 = Complex.from_faces(5, tuple(
        frozenset(q) for q in itertools.combinations(range(1, 6), 2)))
    cone6 = HyperCone(6, part(6, {4, 5, 6}, {1}, {2}, {3}), 0)
    with pytest.raises(ValueError, match="ground-set mismatch"):
        routes.psi_membership(full5, cone6)
    full6 = Complex(6, next(max_biconnected_masks(6, full_only=True)))
    with pytest.raises(ValueError, match="ground-set mismatch"):
        routes.psi_membership(full6, HyperCone(5, singletons(5), 0))


def test_corner_cone_forms():
    rays = ratgeom.h_to_v(arrangements.cone_C0(5)).generators
    assert len(rays) == 10 and all(sum(r) == 2 for r in rays)
    rays = set(ratgeom.h_to_v(arrangements.cone_Ci(5, 1)).generators)
    assert (1, 0, 0, 0, 0) in rays
    assert len(rays) == 5
    for i in (0, 6):
        with pytest.raises(ValueError):
            arrangements.cone_Ci(5, i)
    # one H-form: F is cone_rows with no subsets, C_0 is ω of the
    # singletons, and C_i's θ_i >= 0 is implied by its v_I row
    for n in range(4, 8):
        assert arrangements.cone_F(n) == ratgeom.ConeH(
            n, tuple(cone_rows(n)))
        assert arrangements.cone_C0(n) == ratgeom.ConeH(
            n, tuple(polygon_cones.dual_generators(polygon_cones.eta(0, n))))
        for i in range(1, n + 1):
            assert len(arrangements.cone_Ci(n, i).inequalities) == n


def test_census_n5():
    recs = list(hc.census(5))
    assert len(recs) == 81
    assert [m for m, _ in recs] == list(max_biconnected_masks(5))
    assert all(w is not None for _, w in recs)
    assert hc.census_counts(5) == {
        "n": 5, "total": 81, "projective": 81, "nonprojective": 0}


def test_census_n6_counts():
    assert hc.census_counts(6) == {
        "n": 6, "total": 2646, "projective": 1684, "nonprojective": 962}


@pytest.mark.parametrize("n", [5, 6])
def test_census_counts_tally_the_records(n):
    """The structural counts equal the tally of the census records' kinds,
    which come from the chamber bank and the walk over every complex."""
    witnesses = [w for _, w in hc.census(n)]
    nonprojective = witnesses.count(None)
    assert hc.census_counts(n) == {
        "n": n, "total": len(witnesses),
        "projective": len(witnesses) - nonprojective,
        "nonprojective": nonprojective}


def test_census_range():
    """The counts reach n=8, the walk over every complex stops at 7; the
    walk's range check runs at the call, before any row is read."""
    for n in (3, 9):
        with pytest.raises(ValueError):
            hc.census_counts(n)
    for n in (3, 8):
        with pytest.raises(ValueError, match="supported range"):
            hc.census(n)


def test_chamber_complex_is_census_bank_key():
    """chamber_to_complex and the census bank produce one family mask per
    C0 chamber of A(5)."""
    n = 5
    a = arrangements.build_A(n)
    chambers = routes.chambers_in_cone(a, arrangements.cone_C0(n))
    by_witness = {w: m for m, w in hc._projective_bank(n).items()}
    assert len(by_witness) == len(chambers) == 76
    for theta in chambers:
        assert (routes.chamber_to_complex(a, theta)
                == Complex(n, by_witness[theta]))
    with pytest.raises(ValueError, match="hyperplane"):
        routes.chamber_to_complex(a, (1, 1, 1, 1, 2))  # v_{123} = 0
    with pytest.raises(ValueError, match="orthant"):
        routes.chamber_to_complex(a, (0, 1, 1, 1, 1))
    for theta in ((1, 1, 1, 1, 1, 100), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match="coordinate"):
            routes.chamber_to_complex(a, theta)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_orbit_sizes_match_brute_force_stabilisers(n):
    """n!/|Stab| of each orbit representative, with Stab counted over all
    of S_n as the permutations of θ that keep its family mask."""
    for theta, size in arrangements.chamber_orbits(n):
        assert all(x > y for x, y in zip(theta, theta[1:])) and theta[-1] > 0
        fam = family_mask(theta, n)
        stab = sum(1 for perm in itertools.permutations(theta)
                   if family_mask(perm, n) == fam)
        assert size * stab == math.factorial(n)


@pytest.mark.parametrize("n,reps,chambers", [(5, 6, 76), (6, 20, 1678)])
def test_orbit_bank_equals_full_split(n, reps, chambers):
    """The bank built from orbit representatives holds the family masks
    and witnesses that splitting all of C_0 gives."""
    assert len(arrangements.chamber_orbits(n)) == reps
    split = routes.chambers_in_cone(arrangements.build_A(n),
                                          arrangements.cone_C0(n))
    assert len(split) == chambers
    assert hc._projective_bank(n) == {family_mask(t, n): t for t in split}


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_bank_witness_is_projectivity_witness(n):
    """The census witness of each orbit representative, assembled from its
    W-piece's rays, is the projectivity witness of its complex, the ray_sum
    of the extreme rays of the closed chamber by its own double
    description (134 of them at n = 7)."""
    bank = hc._projective_bank(n)
    for theta, _ in arrangements.chamber_orbits(n):
        fam = family_mask(theta, n)
        assert bank[fam] == bunches.projectivity_witness(Complex(n, fam))


def test_bank_needs_the_extreme_ray_filter(monkeypatch):
    """Keeping every ray of a W-piece, extreme in the closed chamber or
    not, moves the witnesses away from those of the full split of C_0."""
    n = 5
    split = routes.chambers_in_cone(arrangements.build_A(n),
                                    arrangements.cone_C0(n))
    want = {family_mask(t, n): t for t in split}
    assert hc._projective_bank(n) == want
    monkeypatch.setattr(hc, "_chamber_ray", lambda ray, normals: True)
    bank = hc._projective_bank(n)
    assert bank.keys() == want.keys()
    changed = sum(bank[fam] != want[fam] for fam in want)
    assert changed > len(want) // 2, changed


@pytest.mark.parametrize("n", [5, 6])
def test_orbit_sum_sign_flip_identity(n):
    """A(n) is invariant under sign changes of coordinates, so it has 2^n
    times the regions inside the orthant F: the n corner chambers C_i and
    the chambers inside C_0."""
    c0 = sum(size for _, size in arrangements.chamber_orbits(n))
    assert 2 ** n * (n + c0) == arrangements.count_regions(
        arrangements.build_A(n), "charpoly")


def test_census_witnesses_are_generic_and_interior():
    """Every record at n = 5, 6: each witness lies in the open orthant, off
    every wall, and induces the record's complex; a non-full complex
    ↓([n] minus {i}) carries the corner witness of C_i; the kinds tally to
    census_counts."""
    for n in (5, 6):
        total = nonprojective = 0
        for mask, w in hc.census(n):
            total += 1
            if w is None:
                assert _mask_is_full(mask, n)
                nonprojective += 1
                continue
            fam = family_mask(w, n)
            assert all(x > 0 for x in w)
            assert fam == mask and _splits_every_pair(fam, n)
            if not _mask_is_full(mask, n):
                i = next(i for i in range(1, n + 1)
                         if not mask >> (1 << (i - 1)) & 1)
                assert w == hc._corner_witness(n, i)
        assert hc.census_counts(n) == {
            "n": n, "total": total, "projective": total - nonprojective,
            "nonprojective": nonprojective}


def test_segre_construction():
    """Each choice of one 3-set per {3-set, 3-set} partition of [6] generates
    a distinct full maximally-biconnected complex: 2^10 of them."""
    from polycrep.complexes import is_full, is_maximal_biconnected
    splits = []
    for I in itertools.combinations(range(2, 7), 2):
        a = frozenset({1} | set(I))
        splits.append((a, frozenset(range(1, 7)) - a))
    assert len(splits) == 10
    pairs = [frozenset(q) for q in itertools.combinations(range(1, 7), 2)]
    seen = set()
    for choice in itertools.product(*splits):
        chosen = set(choice)
        loose = [q for q in pairs if not any(q <= t for t in chosen)]
        d = Complex.from_faces(6, tuple(chosen) + tuple(loose))
        assert is_full(d) and is_maximal_biconnected(d)
        seen.add(d)
    assert len(seen) == 1024


def test_psi_restricted_to_K_empty_recovers_phi():
    """For full complexes, the K=∅ members of Ψ_Δ are exactly Φ_Δ."""
    for m in itertools.islice(max_biconnected_masks(5, full_only=True), 10):
        d = Complex(5, m)
        phi = routes.phi_from_complex(d)
        for c in hc.free_orbit_data(5, 0):
            in_psi = routes.psi_membership(d, c)
            in_phi = c.partition in phi.cones
            assert in_psi == in_phi
