"""Arrangement construction and exact region counting."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from polycrep import arrangements as ar, ratgeom
from polycrep.arrangements import Arrangement
from polycrep.complexes import mask_of

import routes


def whitney_char_poly(a: Arrangement) -> dict:
    """χ(t) = Σ_{S ⊆ A} (−1)^|S| t^(dim − rank S), Whitney's formula: a
    route to χ through ratgeom.rank alone, for a handful of normals."""
    coeffs = {}
    for k in range(len(a.normals) + 1):
        for s in itertools.combinations(a.normals, k):
            p = a.dim - (ratgeom.rank(s) if s else 0)
            coeffs[p] = coeffs.get(p, 0) + (-1) ** k
    return {p: c for p, c in sorted(coeffs.items(), reverse=True) if c}


def delete(a: Arrangement, h) -> Arrangement:
    """The arrangement without the hyperplane of normal h."""
    (h,) = Arrangement(a.dim, (h,)).normals
    return Arrangement(a.dim, tuple(g for g in a.normals if g != h))


def restrict(a: Arrangement, h) -> Arrangement:
    """The arrangement induced on the hyperplane of normal h (coordinates =
    a kernel basis of h)."""
    (h,) = Arrangement(a.dim, (h,)).normals
    basis = ratgeom.kernel_basis([h], a.dim)
    normals = set()
    for g in a.normals:
        if g == h:
            continue
        v = tuple(ratgeom.dot(g, b) for b in basis)
        if any(v):
            normals.add(ratgeom.canon_normal(v))
    return Arrangement(a.dim - 1, tuple(normals))


def count_points_mod_p(a: Arrangement, q: int) -> int:
    """Points of F_q^dim avoiding every hyperplane, by direct scan.  For
    primes q larger than every minor of the normal matrix this is χ(q)."""
    normals = [tuple(c % q for c in h) for h in a.normals]
    return sum(
        all(sum(c * x for c, x in zip(h, pt)) % q for h in normals)
        for pt in itertools.product(range(q), repeat=a.dim))


def test_build_A_counts():
    assert len(ar.build_A(5).normals) == 21
    assert len(ar.build_A(6).normals) == 38
    with pytest.raises(ValueError):
        ar.build_A(3)


def test_build_A_contains_vI_normals():
    a = ar.build_A(5)
    have = set(a.normals)
    for I in ({1}, {1, 2}, {2, 4}, set()):
        assert ratgeom.canon_normal(ar.v_I(mask_of(I, 5), 5)) in have
    # build_A's rows: the orthant rows, then v_I at row n + k for subsets[k]
    for n, subsets in ((4, ()), (5, (0b00110, 0, 0b11111, 0b00110)),
                       (6, tuple(range(64)))):
        rows = ar.cone_rows(n, subsets)
        assert len(rows) == n + len(subsets)
        assert rows[:n] == [tuple(int(j == i) for j in range(n))
                            for i in range(n)]
        for k, s in enumerate(subsets):
            assert rows[n + k] == ar.v_I(s, n)
    assert rows == ar.cone_rows(6, iter(range(64)))


def test_build_B():
    b = ar.build_B(6, 3)
    assert b.dim == 5 and len(b.normals) == 10
    assert all(sum(h) == 3 and set(h) <= {0, 1} for h in b.normals)
    assert len(ar.build_B(8, 4).normals) == 35
    with pytest.raises(ValueError):
        ar.build_B(7, 3)
    with pytest.raises(ValueError):
        ar.build_B(4, 2)


def test_hyperplane_canonical():
    assert Arrangement(3, ((-1, 1, 0),)) == Arrangement(3, ((1, -1, 0),))
    assert Arrangement(3, ((2, -2, 4),)).normals == ((1, -1, 2),)
    with pytest.raises(ValueError, match="zero normal"):
        Arrangement(3, ((0, 0, 0),))
    with pytest.raises(ValueError, match="dimension"):
        Arrangement(3, ((1, 0),))
    a = Arrangement(3, ((1, 0, 0), (0, 1, 0), (1, 1, 1)))
    assert delete(a, (-2, 0, 0)) == Arrangement(3, ((0, 1, 0), (1, 1, 1)))
    assert restrict(a, (-2, 0, 0)) == restrict(a, (1, 0, 0))


def test_count_regions_empty():
    assert ar.count_regions(Arrangement(4, ())) == 1


def test_count_regions_single_hyperplane():
    a = Arrangement(3, ((1, 1, 1),))
    assert ar.count_regions(a) == 2
    assert ar.count_regions(a, "charpoly") == 2


def test_boolean_arrangement():
    a = Arrangement(4, tuple(tuple(1 if j == i else 0 for j in range(4))
                             for i in range(4)))
    assert ar.count_regions(a) == 16
    assert ar.count_regions(a, "charpoly") == 16


def test_braid_like_counts():
    # generic-position count in the plane: n lines -> 1 + n + C(n,2) regions
    # through the origin instead: 2n regions
    a = Arrangement(2, ((1, 0), (0, 1), (1, 1), (1, -1)))
    assert ar.count_regions(a) == 8
    assert ar.count_regions(a, "charpoly") == 8


def test_non_essential_arrangement():
    # all normals orthogonal to (1,1,1): counts match the essential rank-2 one
    a = Arrangement(3, ((1, -1, 0), (0, 1, -1), (1, 0, -1)))
    assert ar.count_regions(a) == 6
    assert ar.count_regions(a, "charpoly") == 6


@pytest.mark.parametrize("a,regions", [
    (Arrangement(1, ((1,),)), 2),
    (Arrangement(3, ((2, -1, 5),)), 2),
    (Arrangement(4, ((1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1))), 6),
    (Arrangement(4, ((1, -1, 0, 0), (0, 1, -1, 0), (1, 0, -1, 0),
                     (1, 1, -2, 0), (3, -1, -2, 0))), 10),
    (Arrangement(5, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                     (1, 1, 1, 0, 0), (1, -1, 1, 0, 0), (1, 2, -3, 0, 0))), 30),
    (Arrangement(1, ()), 1),
    (Arrangement(2, ()), 1),
    (Arrangement(3, ()), 1),
    (Arrangement(2, ((3, -7),)), 2),
    (Arrangement(3, ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -2, 0))), 8),
    (Arrangement(4, ((1, -1, 0, 0), (0, 1, -1, 0), (1, 0, -1, 0),
                     (0, 0, 1, -1), (1, 0, 0, -1), (0, 1, 0, -1))), 24),
], ids=["line", "rank1", "rank2-3lines", "rank2-5lines", "rank3-in-Q5",
        "empty-1", "empty-2", "empty-3", "rank1-in-Q2", "rank2-in-Q3",
        "braid-rank3-in-Q4"])
def test_enumerate_halves_by_central_symmetry(a, regions):
    """enumerate splits only the sign cones with s_1 = +1 and doubles; on
    rank-1 and non-essential arrangements it still equals charpoly.
    charpoly stops at rank dim − 1 and reads the t^0 coefficient off
    χ(1) = 0, which holds for a non-empty arrangement only (the empty
    one's χ is t^dim); below full rank that coefficient is 0."""
    assert ar.count_regions(a, "enumerate") == regions
    assert ar.count_regions(a, "charpoly") == regions
    assert ar.char_poly(a) == whitney_char_poly(a)


def test_B63_both_modes():
    b = ar.build_B(6, 3)
    assert ar.count_regions(b, "enumerate") == 332
    assert ar.count_regions(b, "charpoly") == 332


def test_char_poly_B63():
    b = ar.build_B(6, 3)
    cp = ar.char_poly(b)
    assert sum(cp.values()) == 0  # chi(1) = 0 for any nonempty arrangement
    assert cp[5] == 1 and cp[4] == -10
    assert cp == whitney_char_poly(b)


def test_char_poly_A4_matches_whitney():
    a = ar.build_A(4)
    assert ar.char_poly(a) == whitney_char_poly(a)


def test_regions_in_cone_n5():
    a = ar.build_A(5)
    assert ar.count_regions_in_cone(a, ar.cone_F(5)) == 81
    assert ar.count_regions_in_cone(a, ar.cone_C0(5)) == 76


def test_regions_in_cone_requires_member_facets():
    a = ar.build_B(6, 3)
    with pytest.raises(ValueError):
        ar.count_regions_in_cone(a, ar.cone_F(5))


def test_regions_in_cone_refuses_zero_and_unpointed_cones():
    """x, y >= 0 and x + y <= 0 is the zero cone, which holds no region;
    x >= 0 alone is not pointed.  The ray x = 0, y >= 0 and the face
    θ_1 = 0 of A(4)'s orthant have no interior, so no open region lies in
    them."""
    a = Arrangement(2, ((1, 0), (0, 1), (1, 1)))
    zero = ratgeom.ConeH(2, ((1, 0), (0, 1), (-1, -1)))
    assert ratgeom.h_to_v(zero) == ratgeom.ConeV(2, ())
    with pytest.raises(ValueError, match="zero cone"):
        ar.count_regions_in_cone(a, zero)
    with pytest.raises(ValueError, match="cone must be pointed"):
        ar.count_regions_in_cone(a, ratgeom.ConeH(2, ((1, 0),)))
    ray = ratgeom.ConeH(2, ((1, 0), (-1, 0), (0, 1)))
    with pytest.raises(ValueError, match="cone has no interior"):
        ar.count_regions_in_cone(a, ray)
    face = ratgeom.ConeH(4, ((-1, 0, 0, 0), *ar.cone_F(4).inequalities))
    with pytest.raises(ValueError, match="cone has no interior"):
        ar.count_regions_in_cone(ar.build_A(4), face)


def test_chambers_carry_valid_witnesses():
    a = ar.build_A(5)
    c0 = ar.cone_C0(5)
    points = routes.chambers_in_cone(a, c0)
    assert len(set(points)) == len(points) == 76
    for theta in points:
        assert ratgeom.primitive(theta) == theta
        assert all(ratgeom.dot(h, theta) != 0 for h in a.normals)
        assert all(ratgeom.dot(f, theta) > 0 for f in c0.inequalities)


def test_count_chambers_at_ray():
    """θ names a ray: θ, and 3θ and θ/2 given as Fractions, count alike."""
    a = ar.build_A(6)
    # the generic ray lies on no hyperplane: an empty localization
    for theta, chambers in (((1,) * 6, 332), ((3, 9, 27, 81, 243, 365), 1)):
        for ray in (theta, tuple(Fraction(3 * t) for t in theta),
                    tuple(Fraction(t, 2) for t in theta)):
            assert ar.count_chambers_at_ray(a, ray) == chambers
        for bad in ((0,) * 6, (Fraction(0),) * 6, theta[:5], theta + (1,)):
            with pytest.raises(ValueError,
                               match="nonzero vector of the right"):
                ar.count_chambers_at_ray(a, bad)


def test_deletion_restriction():
    a = Arrangement(4, ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0),
                        (1, -1, 0, 1), (0, 1, 2, -1), (1, 1, 1, 1)))
    for h in a.normals:
        assert (ar.count_regions(a)
                == ar.count_regions(delete(a, h))
                + ar.count_regions(restrict(a, h)))


def test_finite_field_crosscheck():
    a = Arrangement(3, ((1, 0, 0), (0, 1, 0), (1, 1, 1), (1, -1, 0),
                        (0, 1, 2)))
    cp = ar.char_poly(a)
    for q in (53, 59, 61):
        assert count_points_mod_p(a, q) == sum(
            c * q ** p for p, c in cp.items())


def test_resource_bounds():
    with pytest.raises(ValueError):
        ar.count_regions(Arrangement(9, (tuple([1] + [0] * 8),)))
    many = tuple(tuple(1 if j == 0 else k for j in range(2))
                 for k in range(1, 66))
    with pytest.raises(ValueError):
        ar.count_regions(Arrangement(2, many))


def test_chamber_to_complex_central():
    from polycrep.complexes import is_full, is_maximal_biconnected
    a = ar.build_A(5)
    chs = routes.chambers_in_cone(a, ar.cone_C0(5))
    central = next(theta for theta in chs
                   if all(x == theta[0] for x in theta))
    d = routes.chamber_to_complex(a, central)
    assert is_full(d) and is_maximal_biconnected(d)
    assert all(len(f) == 2 for f in d.maximal_faces)


def test_mode_validation():
    with pytest.raises(ValueError):
        ar.count_regions(ar.build_B(6, 3), "magic")


def test_entry_beyond_int64():
    a = Arrangement(2, ((1, 0), (2 ** 63, 1), (0, 1)))
    assert ar.count_regions(a, "enumerate") == 6
    assert ar.count_regions(a, "charpoly") == 6


def test_generic_large_entries_match_zaslavsky():
    # 6 central planes in general position in Q^3: 2·(C(5,0)+C(5,1)+C(5,2))
    rng = random.Random(2406)
    coords = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for _ in range(20):
        planes = tuple(tuple(rng.choice((-1, 1)) * rng.randint(2 ** 30, 2 ** 45)
                             for _ in range(3)) for _ in range(3))
        normals = coords + planes
        assert all(ratgeom.rank(t) == 3
                   for t in itertools.combinations(normals, 3))
        a = Arrangement(3, normals)
        assert ar.count_regions(a, "enumerate") == 32
        assert ar.count_regions(a, "charpoly") == 32


@st.composite
def hostile_arrangements(draw):
    """Integer arrangements in Q^2..Q^4 with entries up to 2^70, dependent
    normals (integer combinations of others) and, when a lineality vector u
    is drawn, every normal v replaced by (u·u)v − (v·u)u ⊥ u."""
    dim = draw(st.integers(2, 4))
    entry = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
    vec = st.tuples(*[entry] * dim)
    gens = draw(st.lists(vec, min_size=1, max_size=4))
    normals = list(gens)
    combos = st.lists(st.integers(-2, 2), min_size=len(gens),
                      max_size=len(gens))
    for coeffs in draw(st.lists(combos, max_size=3)):
        normals.append(tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                             for i in range(dim)))
    u = draw(st.one_of(st.none(), vec))
    if u is not None and any(u):
        uu = ratgeom.dot(u, u)
        normals = [tuple(uu * x - ratgeom.dot(v, u) * y
                         for x, y in zip(v, u)) for v in normals]
    normals = tuple(v for v in normals if any(v))
    assume(normals)
    return Arrangement(dim, normals), draw(st.integers(0, len(normals) - 1))


@settings(max_examples=60, deadline=None)
@given(hostile_arrangements())
def test_backends_agree_on_hostile_inputs(case):
    a, k = case
    h = a.normals[k % len(a.normals)]
    count = ar.count_regions(a, "enumerate")
    assert count == ar.count_regions(a, "charpoly")
    assert ar.char_poly(a) == whitney_char_poly(a)
    assert count == (ar.count_regions(delete(a, h))
                     + ar.count_regions(restrict(a, h)))


def _both_modes(recs, decided: int, bounding: int) -> tuple:
    """dd_regions' count on records whose ray slots are None, and its
    count in collect mode on the records as they are."""
    regions = []
    collected = ratgeom.dd_regions(recs, decided, bounding, regions.append)
    assert collected == len(regions)
    blind = [(None, *rv[1:]) for rv in recs]
    return ratgeom.dd_regions(blind, decided, bounding, None), collected


def _sign_cone_counts(a: Arrangement) -> int:
    """The sign cones of _count_enumerate, each counted in both modes
    from its own start records, coordinates flipped with the values; the
    doubled sum of the counts."""
    recs, base = ratgeom.dd_start(a.normals, a.dim, (1 << len(a.normals)) - 1)
    flips = [(tuple(-x for x in r), [-v for v in vals], neg, pos, tight)
             for r, vals, pos, neg, tight in recs]
    total = 0
    for rest in itertools.product((False, True), repeat=len(recs) - 1):
        start = [f if s else rv
                 for s, rv, f in zip((False, *rest), recs, flips)]
        count, collected = _both_modes(start, base, 0)
        assert count == collected
        total += count
    return 2 * total


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("cone", [ar.cone_F, ar.cone_C0], ids=["F", "C0"])
def test_count_and_collect_agree(n, cone):
    """Counting carries no ray coordinates and skips the rays of a last
    cut; collecting builds every ray with its coordinates.  dd_regions
    without collect counts from start records whose ray slots are None
    (it would fail on reading one) and gets collect mode's count."""
    a, c = ar.build_A(n), cone(n)
    count = ar.count_regions_in_cone(a, c)
    assert count == len(routes.chambers_in_cone(a, c))
    facets = (1 << len(c.inequalities)) - 1
    recs, base = ratgeom.dd_start(ar._split_rows(a, c), n, facets)
    assert _both_modes(recs, base, facets) == (count, count)


def test_count_mode_reads_no_coordinates_on_B63_sign_cones():
    """Each of the 16 sign cones of B(6,3) that enumerate splits counts the
    same from records without coordinates as in collect mode."""
    a = ar.build_B(6, 3)
    assert _sign_cone_counts(a) == ar.count_regions(a, "charpoly") == 332


def test_count_mode_reads_no_coordinates_on_large_entries():
    """Seeded arrangements in Q^5 and Q^6 with entries of about 2^45, every
    normal v made orthogonal to a small lineality vector u as
    (u·u)v − (v·u)u: rank d − 1, so dd_start gives d − 1 rays and the
    ridge bound is d − 3.  Count and collect mode agree on every sign
    cone, and the doubled sum is the charpoly count."""
    rng = random.Random(45)
    for _ in range(6):
        dim = rng.choice((5, 6))
        normals = [tuple(rng.choice((-1, 1)) * rng.randint(2 ** 30, 2 ** 45)
                         for _ in range(dim)) for _ in range(dim + 3)]
        u = [rng.randint(-2, 2) for _ in range(dim - 1)] + [1]
        uu = ratgeom.dot(u, u)
        a = Arrangement(dim, tuple(
            tuple(uu * x - ratgeom.dot(v, u) * y for x, y in zip(v, u))
            for v in normals))
        assert ratgeom.rank(a.normals) == dim - 1
        assert max(abs(x) for h in a.normals for x in h) > 2 ** 40
        assert _sign_cone_counts(a) == ar.count_regions(a, "charpoly")


@settings(max_examples=60, deadline=None)
@given(hostile_arrangements())
def test_sign_cones_partition_the_regions(case):
    """On the essential form of the arrangement, each of the 2^d sign cones
    of the d independent normals of dd_start's base, split as a cone in
    its own right (its facets bounding, from its own simplicial start),
    counts the same in count and collect mode, and the counts sum to
    enumerate's, whose sign cones start from flipped records of one
    simplicial set."""
    a, _ = case
    _, pivs = ratgeom.row_reduce(a.normals)
    a = Arrangement(len(pivs), tuple(tuple(h[c] for c in pivs)
                                     for h in a.normals))
    _, base = ratgeom.dd_start(a.normals, a.dim, (1 << len(a.normals)) - 1)
    basis = [h for i, h in enumerate(a.normals) if base >> i & 1]
    total = 0
    for signs in itertools.product((1, -1), repeat=a.dim):
        cone = ratgeom.ConeH(a.dim, tuple(tuple(s * x for x in b)
                                          for s, b in zip(signs, basis)))
        count = ar.count_regions_in_cone(a, cone)
        assert count == len(routes.chambers_in_cone(a, cone))
        total += count
    assert total == ar.count_regions(a, "enumerate")
