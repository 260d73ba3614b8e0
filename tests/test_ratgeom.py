"""Exact cone kernel: dual descriptions, LP feasibility, canonical forms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polycrep import ratgeom
from polycrep.complexes import (_maximal_faces_of_mask, cone_rows,
                                max_biconnected_masks)
from polycrep.ratgeom import ConeH, ConeV

import routes


def orthant(n):
    return ConeV(n, tuple(tuple(1 if j == i else 0 for j in range(n))
                          for i in range(n)))


def contains_point(cone: ConeV, x) -> bool:
    """Exact LP: is x a nonnegative combination of the generators?"""
    if len(x) != cone.ambient_dim:
        raise ValueError("dimension mismatch")
    if not any(Fraction(v) for v in x):
        return True
    if not cone.generators:
        return False
    gens = cone.generators
    A = [[g[i] for g in gens] for i in range(cone.ambient_dim)]
    return routes.solve_eq_nonneg(A, list(x)) is not None


def test_primitive():
    assert ratgeom.primitive((2, 4, -6)) == (1, 2, -3)
    assert ratgeom.primitive((0, 0, 0)) == (0, 0, 0)
    assert ratgeom.primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)


def test_primitive_int_and_mixed_input():
    assert ratgeom.primitive((-4, 0, -6)) == (-2, 0, -3)
    assert ratgeom.primitive((0, -5)) == (0, -1)
    assert ratgeom.primitive(()) == ()
    big = 3 * 2 ** 100
    assert ratgeom.primitive((big, -2 * big, 0)) == (1, -2, 0)
    assert ratgeom.primitive((2 ** 80 + 1, 2 ** 80)) == (2 ** 80 + 1, 2 ** 80)
    assert ratgeom.primitive((2, Fraction(4, 3), -6)) == (3, 2, -9)
    assert ratgeom.primitive((Fraction(big), 2 * big)) == (1, 2)
    assert all(type(x) is int for x in ratgeom.primitive((Fraction(6), 4)))


def test_canon_normal_identifies_signs():
    assert ratgeom.canon_normal((-1, 2, 0)) == (1, -2, 0)
    assert ratgeom.canon_normal((0, -2, 4)) == (0, 1, -2)


def test_orthant_roundtrip():
    c = orthant(4)
    h = ratgeom.v_to_h(c)
    assert set(h.inequalities) == set(c.generators)
    assert ratgeom.canonical_form(c) == c


def test_halfspace_has_lineality():
    h = ConeH(3, ((1, 0, 0),))
    v = ratgeom.h_to_v(h)
    gens = set(v.generators)
    # contains +/- e2 and +/- e3 directions plus the ray e1
    assert (0, 1, 0) in gens and (0, -1, 0) in gens
    assert ratgeom.cone_dim(v) == 3


def test_cone_dim():
    assert ratgeom.cone_dim(orthant(5)) == 5
    ray = ConeV(3, ((1, 1, 0),))
    assert ratgeom.cone_dim(ray) == 1
    assert ratgeom.cone_dim(ConeV(3, ())) == 0


def test_contains_point():
    c = ConeV(3, ((1, 0, 0), (1, 1, 0), (1, 1, 1)))
    assert contains_point(c, (3, 2, 1))
    assert not contains_point(c, (0, 0, 1))
    assert not contains_point(c, (-1, 0, 0))


def test_relint_intersects_basic():
    a = ConeV(2, ((1, 0), (1, 1)))
    b = ConeV(2, ((1, 1), (0, 1)))
    # they share only the boundary ray (1,1): relints do meet along it? no —
    # relint of each is open between its rays; (1,1) is boundary for both
    assert not ratgeom.relint_intersects(a, b)
    c = ConeV(2, ((1, 0), (0, 1)))
    assert ratgeom.relint_intersects(a, c)
    assert ratgeom.relint_intersects(a, a)


def test_relint_errors():
    with pytest.raises(ValueError):
        ratgeom.relint_intersects(ConeV(2, ()), ConeV(2, ((1, 0),)))
    with pytest.raises(ValueError):
        ratgeom.relint_intersects(ConeV(2, ((1, 0),)), ConeV(3, ((1, 0, 0),)))


def test_solve_eq_nonneg():
    # x1 + x2 = 2, x1 - x2 = 0 -> x = (1, 1)
    sol = routes.solve_eq_nonneg([(1, 1), (1, -1)], [2, 0])
    assert sol == [1, 1]
    assert routes.solve_eq_nonneg([(1, 1)], [-1]) is None


def test_solve_eq_nonneg_breaks_ratio_ties_by_basis_index():
    # a degenerate system where Bland's leaving rule decides the vertex
    A = [(0, -2, -2, -2), (-1, 2, 1, -1), (-1, -2, -1, 0)]
    assert routes.solve_eq_nonneg(A, [-6, -2, -2]) == [1, 0, 1, 2]


def test_solve_ge():
    sol = routes.solve_ge([(1, 0), (0, 1), (-1, -1)], [1, 1, -10])
    assert sol is not None
    x, y = sol
    assert x >= 1 and y >= 1 and -x - y >= -10
    assert routes.solve_ge([(1, 0), (-1, 0)], [1, 0]) is None


def test_row_reduce_canonical():
    rows = ((2, 4, 0), (1, 2, 1))
    rref, pivs = ratgeom.row_reduce(rows)
    assert pivs == (0, 2)
    assert rref == ((1, 2, 0), (0, 0, 1))


def _rank_over_q(rows) -> int:
    """The rank by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_row_reduce_is_a_canonical_form_of_the_row_space(seed):
    """Seeded integer rows, some of them dependent: another basis of the
    same row space (rows scaled, shuffled, one added to another, a zero
    row appended) reduces to the same output; each reduced row is its own
    canon_normal with its first nonzero entry at its pivot; and there is
    one row per unit of rank."""
    rng = random.Random(seed)
    d, k = rng.randint(1, 5), rng.randint(1, 5)
    big = rng.random() < 0.3
    entry = (lambda: rng.randint(-2 ** 70, 2 ** 70)) if big else (
        lambda: rng.randint(-4, 4))
    gens = [[entry() for _ in range(d)] for _ in range(rng.randint(1, k))]
    rows = [[sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(d)]
            for coeffs in ([rng.randint(-2, 2) for _ in gens]
                           for _ in range(k))]
    rref, pivs = ratgeom.row_reduce(rows)

    other = [[s * x for x in row]
             for s, row in zip(rng.choices((-3, -2, -1, 2, 3), k=k), rows)]
    rng.shuffle(other)
    if len(other) > 1:
        i, j = rng.sample(range(len(other)), 2)
        other[i] = [x + y for x, y in zip(other[i], other[j])]
    other.append([0] * d)
    assert ratgeom.row_reduce(other) == (rref, pivs)

    assert len(rref) == len(pivs) == _rank_over_q(rows)
    assert list(pivs) == sorted(set(pivs))
    for row, p in zip(rref, pivs):
        assert ratgeom.canon_normal(row) == row
        assert next(c for c, x in enumerate(row) if x) == p


def test_kernel_basis():
    kb = ratgeom.kernel_basis([(1, 1, 1)], 3)
    assert len(kb) == 2
    for v in kb:
        assert sum(v) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.fractions(-20, 20, max_denominator=12), min_size=d,
             max_size=d), min_size=1, max_size=4)))
@example([[Fraction(1, 2), 1, 0], [1, Fraction(1, 3), 1]])
def test_rational_rows_reduce_as_their_integer_scalings(rows):
    """Rows with Fraction entries have the kernel and rank of the rows
    scaled to integers, and each kernel vector annihilates them exactly."""
    d = len(rows[0])
    scaled = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        scaled.append([int(x * den) for x in row])
    kb = ratgeom.kernel_basis(rows, d)
    assert kb == ratgeom.kernel_basis(scaled, d)
    assert ratgeom.rank(rows) == ratgeom.rank(scaled) == _rank_over_q(rows)
    for v in kb:
        assert all(ratgeom.dot(row, v) == 0 for row in rows)


@pytest.mark.parametrize("call", [
    lambda: ratgeom.row_reduce([[1, 2, 3], [0, 1]]),
    lambda: ratgeom.rank([[1, 2], [3]]),
    lambda: ratgeom.kernel_basis([[1, 1, 1]], 2),
    lambda: ratgeom.kernel_basis([[1, 1], [1]], 2),
    lambda: routes.solve_eq_nonneg([[1, 1]], [1, -5]),
    lambda: routes.solve_eq_nonneg([[1, 1], [1, 0]], [1]),
    lambda: routes.solve_eq_nonneg([[1, 2], [3]], [1, 2]),
], ids=["row_reduce-ragged", "rank-ragged", "kernel-dim", "kernel-ragged",
        "solve-long-b", "solve-short-b", "solve-ragged"])
def test_linear_algebra_refuses_bad_shapes(call):
    """Ragged rows, a dim other than the row length, and a right-hand side
    of another length than A are refused, not read in part."""
    with pytest.raises(ValueError):
        call()


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=7)


@st.composite
def cones(draw, max_dim=5, max_gens=8):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    ngen = draw(st.integers(min_value=1, max_value=max_gens))
    gens = [tuple(draw(rationals) for _ in range(dim)) for _ in range(ngen)]
    return ConeV(dim, tuple(g for g in gens if any(g)))


@settings(max_examples=60, deadline=None)
@given(cones())
def test_roundtrip_is_canonical_and_stable(c):
    v1 = ratgeom.canonical_form(c)
    assert ratgeom.canonical_form(v1) == v1
    # every original generator is contained in the canonical cone and
    # vice versa (same point set)
    h = ratgeom.v_to_h(c)
    for g in v1.generators:
        assert all(ratgeom.dot(i, g) >= 0 for i in h.inequalities)
    h1 = ratgeom.v_to_h(v1)
    for g in c.generators:
        assert all(ratgeom.dot(i, g) >= 0 for i in h1.inequalities)


@settings(max_examples=40, deadline=None)
@given(cones(max_dim=4, max_gens=6))
def test_dim_matches_rank(c):
    assert ratgeom.cone_dim(c) == ratgeom.rank(c.generators)


@settings(max_examples=40, deadline=None)
@given(cones(max_dim=4, max_gens=5), cones(max_dim=4, max_gens=5))
def test_relint_symmetry(a, b):
    if a.ambient_dim != b.ambient_dim or not a.generators or not b.generators:
        return
    assert (ratgeom.relint_intersects(a, b)
            == ratgeom.relint_intersects(b, a))


@settings(max_examples=40, deadline=None)
@given(cones(max_dim=4, max_gens=6))
def test_generators_inside_own_h_form(c):
    h = ratgeom.v_to_h(c)
    for g in c.generators:
        assert all(ratgeom.dot(i, g) >= 0 for i in h.inequalities)


# ---------------------------------------------------------------------------
# the integer double-description kernel on hostile inputs

HUGE = 2 ** 70
entries = st.one_of(st.integers(-3, 3), st.integers(-HUGE, HUGE))


@st.composite
def invertible_matrices(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    rows = [tuple(draw(entries) for _ in range(k)) for _ in range(k)]
    assume(ratgeom.rank(rows) == k)
    return rows


@st.composite
def deficient_matrices(draw):
    """Rows in Q^k of rank r < k: integer combinations of r rows."""
    k = draw(st.integers(min_value=1, max_value=4))
    gens = [tuple(draw(entries) for _ in range(k))
            for _ in range(draw(st.integers(min_value=0, max_value=k - 1)))]
    combos = st.lists(st.integers(-2, 2), min_size=len(gens),
                      max_size=len(gens))
    return [tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                  for i in range(k))
            for coeffs in draw(st.lists(combos, min_size=1, max_size=5))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(invertible_matrices(), deficient_matrices()), st.data())
def test_dd_start_inverts_the_first_independent_rows(rows, data):
    """dd_start's base is the greedy choice of independent bounding rows,
    and it gives one ray per base row, positive on its own row and zero on
    the others: k rays for an invertible matrix, r for rank r < k."""
    k = len(rows[0])
    every = (1 << len(rows)) - 1
    bounding = data.draw(st.sampled_from((every, every >> 1, every & ~1)))
    picks = [i for i in range(len(rows)) if bounding >> i & 1]
    greedy = [i for j, i in enumerate(picks)
              if ratgeom.rank([rows[p] for p in picks[:j + 1]])
              > ratgeom.rank([rows[p] for p in picks[:j]])]
    recs, base = ratgeom.dd_start(rows, k, bounding)
    assert [i for i in range(len(rows)) if base >> i & 1] == greedy
    assert len(recs) == len(greedy)
    if bounding == every:
        assert len(recs) == ratgeom.rank(rows)
    for j, (r, vals, *_) in enumerate(recs):
        assert vals == [ratgeom.dot(row, r) for row in rows]
        image = [vals[i] for i in greedy]
        assert image[j] > 0
        assert all(image[i] == 0 for i in range(len(greedy)) if i != j)


@pytest.mark.parametrize("d", [0, 1, 3])
def test_zero_cone_has_every_unit_row(d):
    """The dual of the zero cone is all of Q^d: each ± unit row bounds."""
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    assert ratgeom.v_to_h(ConeV(d, ())) == ConeH(
        d, (*units, *(tuple(-x for x in e) for e in units)))


@st.composite
def h_cones(draw):
    """Inequality systems with repeated rows, redundant rows (a positive
    combination of two others) and, when there are fewer rows than
    dimensions or a row and its negative, lineality or equalities.  Rows
    are often oriented to be positive at one point, so the cone is full
    and has many extreme rays."""
    d = draw(st.integers(min_value=1, max_value=4))
    rows = [tuple(draw(entries) for _ in range(d))
            for _ in range(draw(st.integers(min_value=1, max_value=6)))]
    if draw(st.booleans()):
        p = [draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1)))
             for _ in range(d)]
        rows = [a if ratgeom.dot(a, p) >= 0 else tuple(-x for x in a)
                for a in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(("repeat", "sum", "negate")))
        a = draw(st.sampled_from(rows))
        if kind == "repeat":
            rows.append(a)
        elif kind == "sum":
            b = draw(st.sampled_from(rows))
            s, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
        else:
            rows.append(tuple(-x for x in a))
    return ConeH(d, tuple(rows))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(h_cones(), st.lists(st.lists(st.integers(-4, 4), min_size=4,
                                    max_size=4), min_size=1, max_size=6))
def test_h_to_v_agrees_with_the_simplex(h, points):
    """Every generator satisfies every inequality, and membership by the
    inequalities equals membership by the exact LP over the generators;
    for pointed cones no extreme ray lies in the cone of the others."""
    d = h.ambient_dim
    v = ratgeom.h_to_v(h)
    for g in v.generators:
        assert all(ratgeom.dot(a, g) >= 0 for a in h.inequalities)
    gen_sum = [sum(c) for c in zip(*v.generators)] or [0] * d
    for x in [p[:d] for p in points] + [gen_sum]:
        inside = all(ratgeom.dot(a, x) >= 0 for a in h.inequalities)
        assert inside == contains_point(v, x)
    if ratgeom.rank(h.inequalities) == d:
        for g in v.generators:
            others = ConeV(d, tuple(o for o in v.generators if o != g))
            assert not contains_point(others, g)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(h_cones())
@example(ConeH(3, ((1, 0, 0),)))  # a half-space: lineality of rank 2
@example(ConeH(3, ((1, 1, 0), (-1, -1, 0), (0, 0, 1))))  # not full
@example(ConeH(2, ((1, 0), (-1, 0), (0, 1), (0, -1))))  # the zero cone
@example(ConeH(2, ()))  # all of Q^2
def test_h_to_v_output_is_canonical(h):
    """h_to_v gives the canonical generators of its cone already, so a
    second canonical_form changes nothing, lineality or not."""
    v = ratgeom.h_to_v(h)
    assert ratgeom.canonical_form(v) == v


def test_h_to_v_equals_the_projected_route():
    """h_to_v runs a pointed cone's own rows and projects only a cone with
    lineality onto its row space; on seeded random cones of both kinds,
    small and huge entries, it equals the route that always projects.
    The rows are combinations of r generators, so their rank is at most r;
    half of the systems are oriented to be positive at one point."""
    rng = random.Random(19)
    kinds = {True: 0, False: 0}
    for _ in range(300):
        d = rng.randint(1, 5)
        scale = rng.choice((1, HUGE))
        gens = [[rng.randint(-3, 3) * scale + rng.randint(-1, 1)
                 for _ in range(d)] for _ in range(rng.randint(1, d))]
        rows = [[sum(rng.randint(-2, 2) * g[i] for g in gens)
                 for i in range(d)] for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.5:
            p = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(d)]
            rows = [a if ratgeom.dot(a, p) >= 0 else [-x for x in a]
                    for a in rows]
        h = ConeH(d, tuple(map(tuple, rows)))
        kinds[ratgeom.rank(h.inequalities) == d] += 1
        assert ratgeom.h_to_v(h) == routes.h_to_v_projected(h)
    assert min(kinds.values()) >= 60, kinds


@pytest.fixture
def pruned_pairs(monkeypatch):
    """A counter of the plus/minus pairs that dd_cut's ridge pre-test
    skips: pairs with fewer common decided tight rows than the ridge."""
    counter = [0]
    cut = ratgeom.dd_cut

    def counting(rays, k, decided, todo, ridge):
        bit = 1 << k
        tights = [rv[4] & decided for rv in rays if rv[3] & bit]
        for rp in rays:
            if rp[2] & bit:
                counter[0] += sum((rp[4] & t).bit_count() < ridge
                                  for t in tights)
        return cut(rays, k, decided, todo, ridge)

    monkeypatch.setattr(ratgeom, "dd_cut", counting)
    return counter


def _degenerate(h: ConeH, rays) -> bool:
    """Whether some ray is tight on more rows than the d − 1 it needs."""
    d = h.ambient_dim
    return any(sum(ratgeom.dot(a, r) == 0 for a in h.inequalities) > d - 1
               for r in rays)


def test_h_to_v_equals_brute_rays_on_projectivity_cones(pruned_pairs):
    """On the n=5 projectivity cones, θ ≥ 0 and v_I ≥ 0 over the maximal
    faces of each full complex, h_to_v gives the extreme rays that
    brute force over the rank-4 row subsets gives.  Every one of these
    cones has a ray tight on more than 4 rows, and the ridge pre-test
    skips pairs."""
    degenerate = 0
    for k, mask in enumerate(max_biconnected_masks(5, full_only=True)):
        h = ConeH(5, tuple(cone_rows(5, _maximal_faces_of_mask(mask, 5))))
        want = routes.extreme_rays_brute(h)
        assert ratgeom.h_to_v(h).generators == want
        degenerate += _degenerate(h, want)
    assert k + 1 == 76
    assert degenerate == 76
    assert pruned_pairs[0] > 0


def test_h_to_v_equals_brute_rays_on_degenerate_cones(pruned_pairs):
    """Seeded pointed cones in Q^5 and Q^6 with rows of entries −1..1,
    oriented to be nonnegative at a point p, so that rays are often tight
    on more than d − 1 rows; every other cone also gets a row a with
    a·p = 0 and its negative, an implicit equality that cuts the cone to
    a lower dimension.  h_to_v equals the brute-force extreme rays."""
    rng = random.Random(5)
    kinds = {"degenerate": 0, "lower": 0}
    for k in range(40):
        d = rng.choice((5, 6))
        p = [1] + [rng.randint(-2, 2) for _ in range(d - 1)]
        rows = []
        for _ in range(rng.randint(d + 2, d + 5)):
            a = [rng.randint(-1, 1) for _ in range(d)]
            rows.append(a if ratgeom.dot(a, p) >= 0 else [-x for x in a])
        if k % 2:
            a = [0] + [rng.randint(-1, 1) for _ in range(d - 1)]
            a[0] = -ratgeom.dot(a, p)
            rows += [a, [-x for x in a]]
        h = ConeH(d, tuple(map(tuple, rows)))
        if ratgeom.rank(h.inequalities) < d:
            continue
        want = routes.extreme_rays_brute(h)
        assert ratgeom.h_to_v(h).generators == want
        kinds["degenerate"] += _degenerate(h, want)
        kinds["lower"] += bool(want) and ratgeom.rank(want) < d
    assert min(kinds.values()) >= 15, kinds
    assert pruned_pairs[0] > 0


# ---------------------------------------------------------------------------
# the fraction-free simplex against the all-Fraction one it replaced

def _fraction_simplex(A, b):
    """Phase-1 simplex with Bland's rule over Fractions, as the library's
    LP computed it before its tableau became an integer matrix."""
    m = len(A)
    n = len(A[0]) if m else 0
    T = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]] + [Fraction(b[i])]
        if row[-1] < 0:
            row = [-x for x in row]
        T.append(row[:n] + [Fraction(int(i == j)) for j in range(m)]
                 + [row[n]])
    basis = [n + i for i in range(m)]
    nvars = n + m
    cost = [sum(T[i][j] for i in range(m)) for j in range(nvars + 1)]
    for i in range(m):
        cost[n + i] -= 1
    while True:
        enter = next((j for j in range(nvars) if cost[j] > 0), -1)
        if enter < 0:
            break
        leave, best = -1, None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        pv = T[leave][enter]
        T[leave] = [x / pv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, T[leave])]
        basis[leave] = enter
    if cost[-1] != 0:
        return None
    y = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            y[bi] = T[i][-1]
    return y


rationals = st.builds(Fraction, entries, st.integers(1, 12))


@st.composite
def lp_systems(draw, entry):
    """A y = b with zero columns, duplicate (possibly inconsistent) rows,
    and b either A·y₀ for a small y₀ >= 0 (feasible) or drawn freely."""
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=7))
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in A:
            row[j] = 0
    if draw(st.booleans()):
        y0 = [draw(st.integers(0, 3)) for _ in range(n)]
        b = [sum(a * y for a, y in zip(row, y0)) for row in A]
    else:
        b = [draw(entry) for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(A) - 1))
        s = draw(st.sampled_from((1, -1, 2)))
        A.append([s * x for x in A[i]])
        b.append(s * b[i] + draw(st.sampled_from((0, 0, 1))))
    return A, b


def _check_solution(A, b, y):
    assert all(v >= 0 for v in y)
    assert all(sum(a * v for a, v in zip(row, y)) == bi
               for row, bi in zip(A, b))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lp_systems(entries))
def test_integer_simplex_returns_the_fraction_simplex_point(system):
    A, b = system
    got = routes.solve_eq_nonneg(A, b)
    assert got == _fraction_simplex(A, b)
    if got is not None:
        _check_solution(A, b, got)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lp_systems(st.one_of(entries, rationals)))
def test_integer_simplex_on_rational_systems(system):
    A, b = system
    got = routes.solve_eq_nonneg(A, b)
    assert (got is None) == (_fraction_simplex(A, b) is None)
    if got is not None:
        _check_solution(A, b, got)


big_entries = st.one_of(st.integers(-3, 3), st.integers(-2 ** 40, 2 ** 40))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lp_systems(st.one_of(big_entries,
                            st.builds(Fraction, big_entries,
                                      st.integers(1, 12)))))
def test_phase1_verdict_is_solve_eq_nonneg_feasibility(system):
    """The verdict that relint_intersects and count_regions_in_cone read
    is the feasibility of solve_eq_nonneg and of the all-Fraction simplex,
    and solve_eq_nonneg's point, when there is one, satisfies A·y = b and
    y >= 0 exactly."""
    A, b = system
    got = routes.solve_eq_nonneg(A, b)
    feasible = ratgeom.phase1(A, b) is not None
    assert feasible == (got is not None)
    assert feasible == (_fraction_simplex(A, b) is not None)
    if got is not None:
        _check_solution(A, b, got)
