"""Cox-ring relation generators, grading, iota identities, point checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polycrep import coxrelations as cx

import routes


def test_relation_counts():
    for n in (4, 5, 6):
        assert len(cx.plucker_relations(n)) == math.comb(n, 4)
        assert len(cx.sigma_relations(n)) == n * (n + 1) // 2


def test_plucker_degrees():
    for p in cx.plucker_relations(6):
        d = routes.degree_of(p, 6)
        assert sum(d) == 4 and set(d) <= {0, 1}


def test_sigma_degrees_and_shape():
    rels = cx.sigma_relations(5)
    # sigma_{i,i} has n-1 monomials (the k=i term vanishes)
    diag = [r for r in rels
            if routes.degree_of(r, 5).count(2) == 1]
    assert len(diag) == 5
    assert all(len(r) == 4 for r in diag)
    for r in rels:
        assert sum(routes.degree_of(r, 5)) == 2


def test_phi_normalization():
    assert cx.phi(2, 1) == cx.p_scale(cx.phi(1, 2), -1)
    assert cx.phi(3, 3) == {}


def test_degree_errors():
    with pytest.raises(routes.InhomogeneousError):
        routes.degree_of(cx.p_add(cx.phi(1, 2), cx.var("c", 1)), 5)
    with pytest.raises(ValueError):
        routes.degree_of({}, 5)


def test_product_degrees_add():
    a = cx.phi(1, 2)
    b = cx.var("c", 3)
    da = routes.degree_of(a, 5)
    db = routes.degree_of(b, 5)
    dab = routes.degree_of(cx.p_mul(a, b), 5)
    assert dab == tuple(x + y for x, y in zip(da, db))


def test_z_w_degrees_make_moment_generators_homogeneous():
    for i in (1, 3):
        pair = cx.p_add(cx.p_mul(cx.var("x", i), cx.var("z", i)),
                        cx.p_mul(cx.var("y", i), cx.var("w", i)))
        assert routes.degree_of(pair, 5) == (0,) * 5


def test_iota_identities():
    for n in range(4, 10):
        assert cx.iota_substitution_identities(n)


def test_iota_on_single_pair():
    p = cx.p_add(cx.p_mul(cx.var("x", 2), cx.var("z", 2)),
                 cx.p_mul(cx.var("y", 2), cx.var("w", 2)))
    assert cx.iota(p) == {}


def test_sample_points_and_vanishing():
    for n in (5, 6, 7, 8):
        for seed in range(5):
            pt = cx.sample_X_point(n, seed)
            assert len(pt.c) == n and any(pt.c)
            assert cx.verify_relations_vanish(pt)


@pytest.mark.parametrize("n", [4, 20, 40])
def test_sampler_at_any_n(n):
    # every seed gives n pairwise independent pairs and a nonzero c; the
    # quadrics are checked by XPoint itself
    for seed in range(5):
        pt = cx.sample_X_point(n, seed)
        assert len(pt.x) == len(pt.c) == n and any(pt.c)
        pairs = list(zip(pt.x, pt.y))
        assert all(a * d != b * c for i, (a, b) in enumerate(pairs)
                   for c, d in pairs[:i])
        again = cx.sample_X_point(n, seed)
        assert (again.x, again.y, again.c) == (pt.x, pt.y, pt.c)
    with pytest.raises(ValueError):
        cx.sample_X_point(3, 0)


def test_kernel_dimension():
    from polycrep import ratgeom
    for n in (5, 6, 7, 8):
        pt = cx.sample_X_point(n, 0)
        rows = [[int(x * x) for x in pt.x],
                [int(x * y) for x, y in zip(pt.x, pt.y)],
                [int(y * y) for y in pt.y]]
        assert len(ratgeom.kernel_basis(rows, n)) == n - 3


def test_invalid_point_rejected():
    with pytest.raises(ValueError):
        cx.XPoint(5, (1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (1, 1, 1, 1, 1))


def test_point_coordinates_are_ints_where_integral():
    """An integral coordinate is stored as an int, also when given as a
    Fraction, so the point equals and hashes as the int-built one; a
    Fraction is kept only where a coordinate is not integral."""
    pt = cx.sample_X_point(6, 3)
    assert all(type(v) is int for t in (pt.x, pt.y, pt.c) for v in t)
    again = cx.XPoint(6, *(tuple(Fraction(v) for v in t)
                           for t in (pt.x, pt.y, pt.c)))
    assert all(type(v) is int for t in (again.x, again.y, again.c)
               for v in t)
    assert again == pt and hash(again) == hash(pt)
    halved = cx.XPoint(6, pt.x, pt.y, tuple(Fraction(v, 2) for v in pt.c))
    assert any(type(v) is Fraction for v in halved.c)
    assert all(type(v) is int for v in halved.c if v.denominator == 1)
    assert cx.verify_relations_vanish(halved)
    with pytest.raises(ValueError, match="quadrics"):
        cx.XPoint(6, pt.x, pt.y, (Fraction(pt.c[0], 2),) + pt.c[1:])


def test_mutated_point_fails_relations():
    for n in (5, 6, 7, 8):
        pt = cx.sample_X_point(n, 1)
        bad = cx.XPoint.__new__(cx.XPoint)
        object.__setattr__(bad, "n", pt.n)
        object.__setattr__(bad, "x", pt.x)
        object.__setattr__(bad, "y", pt.y)
        object.__setattr__(bad, "c",
                           (pt.c[0] + 1,) + tuple(pt.c[1:]))
        assert not cx.verify_relations_vanish(bad)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_sampler_deterministic_in_seed(seed):
    a = cx.sample_X_point(6, seed)
    b = cx.sample_X_point(6, seed)
    assert (a.x, a.y, a.c) == (b.x, b.y, b.c)


def _unchecked_point(n, x, y, c):
    """An XPoint built without the quadric check."""
    pt = cx.XPoint.__new__(cx.XPoint)
    for name, value in (("n", n), ("x", x), ("y", y), ("c", c)):
        object.__setattr__(pt, name, value)
    return pt


def test_non_integral_point_verifies():
    for n in (5, 8):
        pt = cx.sample_X_point(n, 2)
        x = tuple(Fraction(v, 3) for v in pt.x)
        y = tuple(Fraction(v, 3) for v in pt.y)
        scaled = cx.XPoint(n, x, y, pt.c)  # the quadrics are homogeneous
        assert cx.verify_relations_vanish(scaled)
        value = routes.evaluate(cx.phi(1, 2), scaled)
        assert isinstance(value, Fraction)
        assert value == Fraction(pt.x[0] * pt.y[1] - pt.x[1] * pt.y[0], 9)
        bad = _unchecked_point(n, x, y, (pt.c[0] + 1,) + pt.c[1:])
        assert not cx.verify_relations_vanish(bad)


def test_evaluate_rejects_unknown_variables():
    pt = cx.sample_X_point(5, 0)
    with pytest.raises(ValueError):
        routes.evaluate(cx.var("x", 1), pt)
    assert routes.evaluate(cx.p_scale(cx.phi(2, 1), Fraction(1, 2)), pt) == \
        Fraction(pt.x[1] * pt.y[0] - pt.x[0] * pt.y[1], 2)


def test_mutating_returned_relations_leaves_the_check_intact():
    good = cx.sample_X_point(8, 4)
    bad = _unchecked_point(8, good.x, good.y, (good.c[0] + 1,) + good.c[1:])
    assert cx.verify_relations_vanish(good)
    assert not cx.verify_relations_vanish(bad)
    plucker = cx.plucker_relations(8)
    for r in plucker:
        r[()] = 1
    plucker.append({(): 1})
    sigma = cx.sigma_relations(8)
    for r in sigma:
        r.clear()
    assert cx.verify_relations_vanish(good)
    assert not cx.verify_relations_vanish(bad)
