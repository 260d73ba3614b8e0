"""Exact rational polyhedral cone kernel.

Cones over Q in generator (V) and inequality (H) representation, conversion
between the two by double description, and exact LP feasibility (phase-1
simplex with Bland's rule).  Everything here is exact: vectors are tuples of
ints or Fractions, rays are canonicalized to primitive integer form, and no
operation ever rounds.  This module is the brute-force oracle against which
the closed-form combinatorial criteria of the other modules are validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence


Vec = tuple  # tuple of int/Fraction, length = ambient dimension


def primitive(v: Iterable) -> tuple:
    """Scale a rational vector to a primitive integer vector (same ray)."""
    v = tuple(v)
    if all(type(x) is int for x in v):
        g = gcd(*v)
        return tuple(x // g for x in v) if g > 1 else v
    v = [Fraction(x) for x in v]
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    w = [int(x * den) for x in v]
    g = 0
    for x in w:
        g = gcd(g, x)
    if g > 1:
        w = [x // g for x in w]
    return tuple(w)


def canon_normal(v: Iterable) -> tuple:
    """Primitive integer vector with first nonzero entry positive."""
    w = primitive(v)
    for x in w:
        if x > 0:
            return w
        if x < 0:
            return tuple(-y for y in w)
    return w


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


@dataclass(frozen=True)
class ConeV:
    """Cone given by generators; canonical form has primitive sorted rays."""

    ambient_dim: int
    generators: tuple

    def __post_init__(self):
        gens = []
        for g in self.generators:
            if len(g) != self.ambient_dim:
                raise ValueError("generator has wrong dimension")
            p = primitive(g)
            if any(p):
                gens.append(p)
        object.__setattr__(self, "generators", tuple(sorted(set(gens))))


@dataclass(frozen=True)
class ConeH:
    """Cone given by inequalities L·x >= 0."""

    ambient_dim: int
    inequalities: tuple

    def __post_init__(self):
        ineqs = []
        for a in self.inequalities:
            if len(a) != self.ambient_dim:
                raise ValueError("inequality has wrong dimension")
            p = primitive(a)
            if any(p):
                ineqs.append(p)
        object.__setattr__(self, "inequalities", tuple(sorted(set(ineqs))))


# ---------------------------------------------------------------------------
# integer linear algebra (fraction-free)

def row_reduce(rows):
    """Fraction-free RREF over Q of integer rows.

    Returns (reduced_rows, pivot_columns); reduced rows are primitive integer
    vectors with positive leading entry, so the output is a canonical form of
    the row space.
    """
    m = [list(r) for r in rows]
    if not m:
        return (), ()
    d = len(m[0])
    pivs = []
    r = 0
    for c in range(d):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                a, b = m[r][c], m[i][c]
                m[i] = [a * x - b * y for x, y in zip(m[i], m[r])]
                g = 0
                for x in m[i]:
                    g = gcd(g, x)
                if g > 1:
                    m[i] = [x // g for x in m[i]]
        pivs.append(c)
        r += 1
        if r == len(m):
            break
    out = []
    for i in range(r):
        row = m[i]
        g = 0
        for x in row:
            g = gcd(g, x)
        if g:
            row = [x // g for x in row]
        if row[pivs[i]] < 0:
            row = [-x for x in row]
        out.append(tuple(row))
    return tuple(out), tuple(pivs)


def rank(rows) -> int:
    return len(row_reduce(rows)[0])


def kernel_basis(rows, dim: int):
    """Primitive integer basis of {x : rows · x = 0}, deterministic order."""
    rref, pivs = row_reduce(rows)
    free = [c for c in range(dim) if c not in pivs]
    basis = []
    for f in free:
        x = [Fraction(0)] * dim
        x[f] = Fraction(1)
        for row, pc in zip(rref, pivs):
            x[pc] = Fraction(-row[f], row[pc])
        basis.append(primitive(x))
    return basis


def _det_and_adjugate(m):
    """Exact determinant and adjugate of a small integer matrix."""
    k = len(m)
    fm = [[Fraction(x) for x in row] for row in m]
    # LU-free cofactor via Gaussian elimination on an augmented identity
    det = Fraction(1)
    inv = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    a = [row[:] for row in fm]
    for c in range(k):
        pr = None
        for i in range(c, k):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            return 0, None
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            inv[c], inv[pr] = inv[pr], inv[c]
            det = -det
        det *= a[c][c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        inv[c] = [x / pv for x in inv[c]]
        for i in range(k):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[c])]
    det_i = int(det)
    adj = [[int(inv[i][j] * det) for j in range(k)] for i in range(k)]
    return det_i, adj


# ---------------------------------------------------------------------------
# double description

def _extreme_rays_pointed(ineqs, k):
    """Extreme rays of the pointed cone {t in Q^k : ineqs · t >= 0}.

    Starts from a simplicial subcone cut out by k independent inequalities and
    inserts the rest one at a time (standard double description step with the
    combinatorial adjacency test, valid because the cone is pointed).
    """
    if k == 0:
        return []
    # pick k independent rows for the simplicial start
    base_idx = []
    rows = []
    for i, a in enumerate(ineqs):
        if rank(rows + [a]) == len(rows) + 1:
            base_idx.append(i)
            rows.append(a)
            if len(rows) == k:
                break
    if len(rows) < k:
        raise ValueError("inequality system is not pointed")
    det, adj = _det_and_adjugate(rows)
    sgn = 1 if det > 0 else -1
    rays = [primitive(tuple(sgn * adj[j][i] for j in range(k))) for i in range(k)]

    def tight_mask(r, upto):
        m = 0
        for idx in range(upto):
            if dot(ineqs[idx], r) == 0:
                m |= 1 << idx
        return m

    base_set = set(base_idx)
    processed = sorted(base_set)
    # rays currently satisfy all processed inequalities
    for h, a in enumerate(ineqs):
        if h in base_set:
            continue
        vals = [dot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            processed.append(h)
            continue
        processed.append(h)
        upto = len(ineqs)  # masks taken over all rows seen so far is fine:
        # only processed rows are consulted below via proc_mask
        proc_mask = 0
        for idx in processed:
            proc_mask |= 1 << idx
        tights = [tight_mask(r, upto) & proc_mask for r in rays]
        plus = [i for i, v in enumerate(vals) if v > 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        new = []
        for ip in plus:
            for im in minus:
                t12 = tights[ip] & tights[im]
                adjacent = True
                for io in range(len(rays)):
                    if io in (ip, im):
                        continue
                    if (tights[io] & t12) == t12:
                        adjacent = False
                        break
                if adjacent:
                    vp, vm = vals[ip], -vals[im]
                    new.append(primitive(tuple(
                        vp * x + vm * y for x, y in zip(rays[im], rays[ip]))))
        rays = [rays[i] for i in plus + zero] + new
    return rays


def h_to_v(cone: ConeH) -> ConeV:
    """Generator representation of an H-cone; lineality emitted as ± ray pairs."""
    d = cone.ambient_dim
    A = list(cone.inequalities)
    if not A:
        gens = []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            gens.append(tuple(e))
            gens.append(tuple(-x for x in e))
        return ConeV(d, tuple(gens))
    lines = kernel_basis(A, d)
    # complement of the lineality: the row space of A
    basis, _ = row_reduce(A)
    k = len(basis)
    gens = []
    for b in lines:
        gens.append(b)
        gens.append(tuple(-x for x in b))
    if k:
        reduced = [tuple(dot(a, b) for b in basis) for a in A]
        for t in _extreme_rays_pointed(reduced, k):
            x = [0] * d
            for coef, b in zip(t, basis):
                x = [xi + coef * bi for xi, bi in zip(x, b)]
            gens.append(primitive(x))
    return ConeV(d, tuple(gens))


def v_to_h(cone: ConeV) -> ConeH:
    """Inequality representation: generators of the dual cone, by duality."""
    d = cone.ambient_dim
    if not cone.generators:
        # zero cone: all +/- coordinate inequalities
        ineqs = []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            ineqs.append(tuple(e))
            ineqs.append(tuple(-x for x in e))
        return ConeH(d, tuple(ineqs))
    dual = h_to_v(ConeH(d, cone.generators))
    return ConeH(d, dual.generators)


def canonical_form(cone: ConeV) -> ConeV:
    """Irredundant canonical generators (extreme rays + lineality pairs)."""
    return h_to_v(v_to_h(cone))


def cone_dim(cone: ConeV) -> int:
    return rank(cone.generators)


# ---------------------------------------------------------------------------
# exact LP feasibility (phase-1 simplex, Bland's rule)

def solve_eq_nonneg(A, b) -> Optional[list]:
    """A feasible point of {y >= 0 : A y = b}, or None.

    A: list of rows (length-n rationals), b: list of rationals.  Phase-1
    simplex with artificial variables and Bland's rule (deterministic,
    guaranteed to terminate).
    """
    m = len(A)
    n = len(A[0]) if m else 0
    T = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]] + [Fraction(b[i])]
        if row[-1] < 0:
            row = [-x for x in row]
        T.append(row)
    # artificial variable i is basic in row i
    basis = [n + i for i in range(m)]
    nvars = n + m
    for i in range(m):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        T[i] = T[i][:n] + art + [T[i][n]]
    # cost row for minimizing the sum of artificials
    cost = [Fraction(0)] * (nvars + 1)
    for i in range(m):
        for j in range(nvars + 1):
            cost[j] += T[i][j]
    for i in range(m):
        cost[n + i] -= Fraction(1)

    while True:
        enter = -1
        for j in range(nvars):
            if cost[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            raise RuntimeError("phase-1 simplex: unexpected unboundedness")
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


def solve_ge(A, rhs) -> Optional[tuple]:
    """A point x (free sign) with A x >= rhs, or None."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = []
    for i in range(m):
        a = list(A[i])
        s = [0] * m
        s[i] = -1
        rows.append(a + [-x for x in a] + s)
    y = solve_eq_nonneg(rows, list(rhs))
    if y is None:
        return None
    return tuple(y[j] - y[n + j] for j in range(n))


# ---------------------------------------------------------------------------
# cone predicates

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
    return solve_eq_nonneg(A, list(x)) is not None


def relint_intersects(a: ConeV, b: ConeV) -> bool:
    """Exact LP: do the relative interiors meet?

    Feasibility of {lam >= 1, mu >= 1, sum lam_i a_i = sum mu_j b_j}; a
    relative-interior point of a V-cone is exactly an all-positive generator
    combination, and cones are scale-invariant so >=1 realizes strictness.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("dimension mismatch")
    if not a.generators or not b.generators:
        raise ValueError("relint test requires nonzero cones")
    ga, gb = a.generators, b.generators
    d = a.ambient_dim
    # lam = 1 + lam', mu = 1 + mu':  A lam' - B mu' = sum(b) - sum(a)
    A = [[g[i] for g in ga] + [-g[i] for g in gb] for i in range(d)]
    rhs = [sum(g[i] for g in gb) - sum(g[i] for g in ga) for i in range(d)]
    return solve_eq_nonneg(A, rhs) is not None


def cone_subset(a: ConeV, b: ConeV) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("dimension mismatch")
    return all(contains_point(b, g) for g in a.generators)
