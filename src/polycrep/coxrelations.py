"""Symbolic generators of the Cox-ring presentation and exact checks.

Polynomials are sparse dicts {monomial: coefficient} over tokenized graded
variables; monomials are sorted tuples of variable tokens.  The
generators have integer coefficients (±1 and 2); a caller's Fraction
coefficient works too.  Tokens:
("phi", i, j) with i < j (antisymmetry is normalized at construction),
("c", k), ("x", i), ("y", i), ("z", i), ("w", i).

The module generates the Plücker and σ relations, verifies the
substitution identities of the map ι (z_i ↦ c_i y_i, w_i ↦ −c_i x_i) by
exact expansion, and tests vanishing of every relation on exact sample
points of the variety cut out by the three quadric equations
Σc_i x_i² = Σc_i x_i y_i = Σc_i y_i² = 0.  A point's coordinates are
ints, and Fractions only where a caller gives a non-integral one, so the
seeded sample points, which are integral, are checked and evaluated in
int arithmetic and fractions is not loaded.  The Z^n-grading of the
variables is checked in the tests (tests/routes.py).
"""

from __future__ import annotations

import functools
import itertools
import random

from . import ratgeom
from .values import Value

# The relations, ι and the sampler all take MIN_N <= n <= MAX_N.  There
# are C(n, 4) Plücker relations, and their memory grows about as n⁴, so
# a request far past MAX_N could not finish.
MIN_N = 4
MAX_N = 40


def _check_n(n: int):
    if not MIN_N <= n <= MAX_N:
        raise ValueError(f"n={n} outside supported range {MIN_N}..{MAX_N}")


# ---------------------------------------------------------------------------
# sparse polynomials

def poly(*terms) -> dict:
    """Build a polynomial from (coeff, (var, ...)) terms."""
    p = {}
    for coeff, mono in terms:
        _add_term(p, coeff, tuple(sorted(mono)))
    return p


def _add_term(p, coeff, mono):
    if coeff == 0:
        return
    c = p.get(mono, 0) + coeff
    if c:
        p[mono] = c
    else:
        p.pop(mono, None)


def p_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, c in b.items():
        _add_term(out, c, mono)
    return out


def p_scale(a: dict, s) -> dict:
    return {m: c * s for m, c in a.items()} if s else {}


def p_mul(a: dict, b: dict) -> dict:
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            _add_term(out, ca * cb, tuple(sorted(ma + mb)))
    return out


def p_sub(a: dict, b: dict) -> dict:
    return p_add(a, p_scale(b, -1))


def phi(i: int, j: int) -> dict:
    """φ_{i,j} normalized: φ_{j,i} = −φ_{i,j}, φ_{i,i} = 0."""
    if i == j:
        return {}
    if i < j:
        return poly((1, (("phi", i, j),)))
    return poly((-1, (("phi", j, i),)))


def var(name: str, *idx) -> dict:
    return poly((1, ((name, *idx),)))


# ---------------------------------------------------------------------------
# relation generators

def plucker_relations(n: int) -> list:
    """φ_{ij}φ_{kl} − φ_{ik}φ_{jl} + φ_{il}φ_{jk} over i<j<k<l."""
    _check_n(n)
    out = []
    for i, j, k, l in itertools.combinations(range(1, n + 1), 4):
        out.append(p_add(p_sub(p_mul(phi(i, j), phi(k, l)),
                               p_mul(phi(i, k), phi(j, l))),
                         p_mul(phi(i, l), phi(j, k))))
    return out


def sigma_relations(n: int) -> list:
    """σ_{i,j} = Σ_k φ_{i,k} φ_{j,k} c_k over 1 <= i <= j <= n."""
    _check_n(n)
    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            s = {}
            for k in range(1, n + 1):
                s = p_add(s, p_mul(p_mul(phi(i, k), phi(j, k)), var("c", k)))
            out.append(s)
    return out


# ---------------------------------------------------------------------------
# the substitution map

def iota(p: dict) -> dict:
    """Apply z_i ↦ c_i y_i, w_i ↦ −c_i x_i to every monomial."""
    out = {}
    for mono, coeff in p.items():
        term = poly((coeff, ()))
        for t in mono:
            if t[0] == "z":
                term = p_mul(term, p_mul(var("c", t[1]), var("y", t[1])))
            elif t[0] == "w":
                term = p_mul(term, p_scale(p_mul(var("c", t[1]),
                                                 var("x", t[1])), -1))
            else:
                term = p_mul(term, poly((1, (t,))))
        out = p_add(out, term)
    return out


def j_generators(n: int) -> list:
    """The three quadrics Σc_i x_i², Σc_i x_i y_i, Σc_i y_i²."""
    qs = []
    for a, b in (("x", "x"), ("x", "y"), ("y", "y")):
        s = {}
        for i in range(1, n + 1):
            s = p_add(s, p_mul(p_mul(var("c", i), var(a, i)), var(b, i)))
        qs.append(s)
    return qs


def iota_substitution_identities(n: int) -> bool:
    """Exact expansion of ι on the six moment-map generator families."""
    _check_n(n)
    jxx, jxy, jyy = j_generators(n)

    def s(a, b):
        out = {}
        for i in range(1, n + 1):
            out = p_add(out, p_mul(var(a, i), var(b, i)))
        return out

    checks = [
        (iota(s("y", "z")), jyy),
        (iota(s("x", "w")), p_scale(jxx, -1)),
        (iota(s("x", "z")), jxy),
        (iota(s("y", "w")), p_scale(jxy, -1)),
        (iota(p_sub(s("x", "z"), s("y", "w"))), p_scale(jxy, 2)),
    ]
    for got, expect in checks:
        if got != expect:
            return False
    for i in range(1, n + 1):
        pair = p_add(p_mul(var("x", i), var("z", i)),
                     p_mul(var("y", i), var("w", i)))
        if iota(pair):
            return False
    return True


# ---------------------------------------------------------------------------
# exact sample points

def _exact(v):
    """A coordinate as an int when it is integral, else as a Fraction."""
    if type(v) is int:
        return v
    from fractions import Fraction
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


class XPoint(Value):
    """A point (x, y, c) of the variety of the three quadrics, its
    coordinates ints, or Fractions where they are not integral, so that
    an integral point is checked and evaluated in int arithmetic."""

    __slots__ = ("n", "x", "y", "c")

    def __init__(self, n: int, x: tuple, y: tuple, c: tuple):
        x, y, c = (tuple(map(_exact, t)) for t in (x, y, c))
        if not len(x) == len(y) == len(c) == n:
            raise ValueError("length mismatch")
        for a, b in ((x, x), (x, y), (y, y)):
            if sum(ci * ai * bi for ci, ai, bi in zip(c, a, b)) != 0:
                raise ValueError("point does not satisfy the quadrics")
        Value.__init__(self, n, x, y, c)


def sample_X_point(n: int, seed: int) -> XPoint:
    """Seeded exact point: integer (x, y) with pairwise independent pairs,
    c a nonzero integer vector in the kernel of the three quadric rows.

    The pairs are drawn one at a time from [−r, r]², r = max(9, n), and a
    pair that is zero or parallel to an earlier one is drawn again; the
    directions (0, 1) and (1, k), |k| <= r, are more than n, so the draws
    end.  A binary quadratic form vanishing at three pairwise independent
    pairs is zero, so the three rows are independent, the kernel has
    dimension n − 3 and any nonzero weights on its basis give a nonzero c.
    """
    _check_n(n)
    rng = random.Random(seed * 0x9E3779B1)
    r = max(9, n)
    x, y = [], []
    while len(x) < n:
        a, b = rng.randint(-r, r), rng.randint(-r, r)
        if (a or b) and all(a * yj != b * xj for xj, yj in zip(x, y)):
            x.append(a)
            y.append(b)
    rows = [[xi * xi for xi in x],
            [xi * yi for xi, yi in zip(x, y)],
            [yi * yi for yi in y]]
    kb = ratgeom.kernel_basis(rows, n)
    weights = [0]
    while not any(weights):
        weights = [rng.randint(-9, 9) for _ in kb]
    c = tuple(sum(w * b[i] for w, b in zip(weights, kb)) for i in range(n))
    return XPoint(n, tuple(x), tuple(y), c)


def _point_values(pt: XPoint) -> dict:
    """Every φ_ij = x_i y_j − x_j y_i (any i, j in [n]) and c_k at the point,
    keyed by variable token."""
    x, y = pt.x, pt.y
    vals = {("c", k + 1): ck for k, ck in enumerate(pt.c)}
    for i in range(pt.n):
        for j in range(pt.n):
            vals[("phi", i + 1, j + 1)] = x[i] * y[j] - x[j] * y[i]
    return vals


def _evaluate(p: dict, vals: dict):
    total = 0
    for mono, coeff in p.items():
        v = coeff
        for t in mono:
            try:
                v *= vals[t]
            except KeyError:
                raise ValueError(f"cannot evaluate variable {t}") from None
        total += v
    return total


@functools.lru_cache(maxsize=8)
def _relations(n: int) -> tuple:
    """The Plücker and σ relations for n, built once per n."""
    return tuple(plucker_relations(n) + sigma_relations(n))


def verify_relations_vanish(pt: XPoint) -> bool:
    """All Plücker and σ relations vanish exactly at the point."""
    vals = _point_values(pt)
    return all(_evaluate(r, vals) == 0 for r in _relations(pt.n))
