"""Exact rational polyhedral cone kernel.

Cones over Q in generator (V) and inequality (H) representation, conversion
between the two by double description, and exact LP feasibility (phase-1
simplex with Bland's rule).  Everything here is exact: vectors are tuples of
ints or Fractions, rays are canonicalized to primitive integer form, and no
operation ever rounds.  This module is the brute-force oracle against which
the closed-form combinatorial criteria of the other modules are validated.

One driver, dd_regions, runs every double-description step (dd_cut), from
the simplicial rays of the first independent bounding rows, which dd_start
reads off one fraction-free row reduction.  It cuts a cone to the
nonnegative side of each bounding row and splits it by the others, so in
H-to-V conversion every row bounds and the extreme rays are those of the
one uncut region.  Rays carry their constraint values and sign/tight
bitmasks, and new rays get their values by a linear update, so the DD path
builds no Fraction.  A run that only counts carries no coordinates at all:
its records are (None, vals, pos, neg, tight), each new ray's values
divided by their gcd, since a region's count depends on the rays' signs
and adjacency alone.  In both modes a plus/minus pair with fewer common
tight rows than a ridge needs (r − 2, r the cone's dimension modulo its
lineality) is never adjacent and is skipped before the adjacency scan
(Fukuda & Prodon 1996).

The LP is one phase-1 kernel, phase1, which returns its final integer
tableau for a feasible system and None otherwise.  The library reads only
its verdict (relint_intersects and the interior test of
arrangements.count_regions_in_cone) and builds no point; the tests' second
routes read a point off the tableau.  fractions (and the decimal module it
loads) is imported only where a Fraction is built, for a row with a
non-integer entry.
"""

from __future__ import annotations

from math import gcd, lcm
from collections.abc import Iterable, Sequence

from .values import Value


Vec = tuple  # tuple of int/Fraction, length = ambient dimension


def _integer_row(row):
    """The row scaled by the lcm of its denominators (an integer row as
    it is)."""
    if all(type(x) is int for x in row):
        return row
    from fractions import Fraction
    row = [Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def primitive(v: Iterable) -> tuple:
    """Scale a rational vector to a primitive integer vector (same ray)."""
    w = _integer_row(tuple(v))
    g = gcd(*w)
    return tuple(x // g for x in w) if g > 1 else tuple(w)


def ray_sum(rays: Iterable) -> tuple:
    """The primitive sum of a pointed cone's extreme rays, a point of its
    relative interior: the one witness rule for chambers and projectivity."""
    return primitive(map(sum, zip(*rays)))


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


def _vector_set(dim: int, vectors, noun: str) -> tuple:
    """The vectors made primitive, zeros dropped, deduplicated and sorted:
    the canonical set of a cone's generators or inequalities."""
    out = set()
    for v in vectors:
        if len(v) != dim:
            raise ValueError(f"{noun} has wrong dimension")
        p = primitive(v)
        if any(p):
            out.add(p)
    return tuple(sorted(out))


class ConeV(Value):
    """Cone given by generators; canonical form has primitive sorted rays."""

    __slots__ = ("ambient_dim", "generators")

    def __init__(self, ambient_dim: int, generators: tuple):
        Value.__init__(self, ambient_dim,
                       _vector_set(ambient_dim, generators, "generator"))


class ConeH(Value):
    """Cone given by inequalities L·x >= 0."""

    __slots__ = ("ambient_dim", "inequalities")

    def __init__(self, ambient_dim: int, inequalities: tuple):
        Value.__init__(self, ambient_dim,
                       _vector_set(ambient_dim, inequalities, "inequality"))


# ---------------------------------------------------------------------------
# integer linear algebra (fraction-free)

def row_reduce(rows):
    """Fraction-free RREF over Q of rational rows, each first scaled to
    an integer row.

    Returns (reduced_rows, pivot_columns).  Each reduced row is
    canon_normal's form of itself, a primitive integer vector whose first
    nonzero entry, at its pivot column, is positive, so the output is a
    canonical form of the row space.
    """
    m = [list(_integer_row(r)) for r in rows]
    if not m:
        return (), ()
    d = len(m[0])
    if any(len(r) != d for r in m):
        raise ValueError("rows of different lengths")
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
                row = [a * x - b * y for x, y in zip(m[i], m[r])]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivs.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(map(canon_normal, m[:r])), tuple(pivs)


def rank(rows) -> int:
    return len(row_reduce(rows)[0])


def kernel_basis(rows, dim: int):
    """Primitive integer basis of {x : rows · x = 0}, deterministic order.

    The RREF rows are scaled, so each free column f gives the kernel vector
    with x_f = L and x_p = −row_f · L / row_p at each pivot p, L the lcm of
    the pivot entries."""
    if any(len(r) != dim for r in rows):
        raise ValueError("row length differs from dim")
    return _kernel_from_rref(*row_reduce(rows), dim)


def _kernel_from_rref(rref, pivs, dim: int) -> list:
    """kernel_basis from the output of row_reduce."""
    scale = lcm(*(row[pc] for row, pc in zip(rref, pivs)))
    basis = []
    for f in range(dim):
        if f in pivs:
            continue
        x = [0] * dim
        x[f] = scale
        for row, pc in zip(rref, pivs):
            x[pc] = -row[f] * (scale // row[pc])
        basis.append(primitive(x))
    return basis


# ---------------------------------------------------------------------------
# double description

def ray_records(rays, rows) -> list:
    """A record per ray: (ray, values on the constraint rows, and the
    positive, negative and tight masks over the row indices)."""
    sparse = [tuple((j, c) for j, c in enumerate(row) if c) for row in rows]
    out = []
    for r in rays:
        vals = [sum(c * r[j] for j, c in row) for row in sparse]
        pos = neg = tight = 0
        bit = 1
        for v in vals:
            if v > 0:
                pos |= bit
            elif v < 0:
                neg |= bit
            else:
                tight |= bit
            bit <<= 1
        out.append((r, vals, pos, neg, tight))
    return out


def dd_cut(rays, cut: int, decided: int, todo: int, ridge: int):
    """One double-description step: cut the cone of the ray records by
    constraint number `cut`.

    Returns (plus, minus, zero, new): the records strictly positive,
    strictly negative and zero on the cut, and one new ray on the cut per
    adjacent plus/minus pair.  The rays must be the extreme rays of a cone,
    pointed modulo its lineality, on which every `decided` constraint is
    weakly one-signed; two rays are adjacent when no third ray is tight on
    every decided constraint both are tight on.

    Adjacent rays span a 2-face, and the span of a face is cut out by the
    decided rows tight on all of it, so their common tight rows have rank
    r − 2, r the dimension of the cone modulo its lineality, and number at
    least `ridge` = r − 2 (Fukuda & Prodon, "Double description method
    revisited", 1996).  A pair with fewer is skipped before the scan over
    the other rays; the scan would reject it too, so the output does not
    change.  The bound holds on a lower-dimensional region as well: its
    implicit equalities are tight on every ray, so they count towards
    every pair's tight rows.

    A new ray a·r₋ + b·r₊ gets values a·vals₋ + b·vals₊ only on the `todo`
    constraints, exact because the values are linear in the ray; on a
    decided constraint both parents are weakly on one side, so its sign
    there is theirs, read off their masks.  Records whose ray slot is None
    carry no coordinates (count mode): the new record is (None, vals, …),
    its values divided by their gcd, or left as they are when all are 0.
    Otherwise the ray is divided by the gcd g of its coordinates, and its
    values by g too; g divides the values' gcd, so counting keeps values
    no larger than collecting does.
    """
    bit = 1 << cut
    plus, minus, zero = [], [], []
    for rv in rays:
        (plus if rv[2] & bit else minus if rv[3] & bit else zero).append(rv)
    new = []
    todo_bits = []
    m = todo
    while m:
        low = m & -m
        todo_bits.append((low.bit_length() - 1, low))
        m ^= low
    for rp in plus:
        vp = rp[1]
        a = vp[cut]
        for rm in minus:
            t12 = rp[4] & rm[4] & decided
            if t12.bit_count() < ridge or any(
                    r3[4] & t12 == t12 for r3 in rays
                    if r3 is not rp and r3 is not rm):
                continue
            vm = rm[1]
            b = -vm[cut]
            vs = [a * vm[c] + b * vp[c] for c, _ in todo_bits]
            if rp[0] is None:
                r = None
                g = gcd(*vs)
            else:
                r = [a * x + b * y for x, y in zip(rm[0], rp[0])]
                g = gcd(*r)
                r = tuple(x // g for x in r)
            if g > 1:
                vs = [v // g for v in vs]
            npos = (rp[2] | rm[2]) & decided
            nneg = (rp[3] | rm[3]) & decided
            ntight = t12 | bit
            vals = {}
            for (c, cbit), v in zip(todo_bits, vs):
                vals[c] = v
                if v > 0:
                    npos |= cbit
                elif v < 0:
                    nneg |= cbit
                else:
                    ntight |= cbit
            new.append((r, vals, npos, nneg, ntight))
    return plus, minus, zero, new


def dd_start(rows, k: int, bounding: int):
    """The start of a dd_regions run over integer rows in Q^k: the records
    over every row of the simplicial rays of B's first independent rows, B
    the bounding rows (a mask over the row indices), and the mask of those
    rows, now decided.

    One fraction-free RREF of [Bᵀ | I_k] gives both: its pivot columns in
    Bᵀ are B's first independent rows, and pivot row j's I-half y_j has
    b_i·y_j = p_j δ_ij over those rows, p_j > 0.  If B has rank r < k, the
    r rays stand for the cone modulo its lineality."""
    picks = [i for i in range(len(rows)) if bounding >> i & 1]
    m = len(picks)
    rref, pivs = row_reduce([[rows[i][c] for i in picks]
                             + [int(c == j) for j in range(k)]
                             for c in range(k)])
    rays = [primitive(row[m:]) for row, p in zip(rref, pivs) if p < m]
    return ray_records(rays, rows), sum(1 << picks[p] for p in pivs if p < m)


def dd_regions(rays, decided: int, bounding: int, collect) -> int:
    """Count (and optionally report) the regions into which the rows not
    decided cut the cone of the ray records from dd_start (pointed modulo
    its lineality), one dd_cut per step.

    A bounding row that some ray is negative on is cut once, keeping its
    nonnegative side (no ray left: no region); any other row with rays on
    both sides splits the region in two.  A row that does neither is
    decided.  dd_cut carries the values to new rays on the rows that still
    cut, and skips pairs with fewer than r − 2 common tight rows, r the
    number of start rays: by dd_start's contract, the dimension of the
    cone modulo its lineality.  collect(rays) receives each region's ray
    records (ray first).

    Without collect the run counts only, and nothing reads a ray's
    coordinates: the start records' ray slots are replaced by None, so
    every record is (None, vals, pos, neg, tight), and dd_cut normalises a
    new ray's values by their own gcd.  A split that leaves no other row
    cutting counts its two children and builds no rays: each side keeps a
    ray off the row.
    """
    count = 0
    ridge = len(rays) - 2
    if collect is None:
        rays = [(None, *rv[1:]) for rv in rays]
    # (rays, rows still to test, decided rows), as masks over row indices
    stack = [(rays, ((1 << len(rays[0][1])) - 1) ^ decided, decided)]
    while stack:
        rays, remaining, decided = stack.pop()
        pos = neg = 0
        for rv in rays:
            pos |= rv[2]
            neg |= rv[3]
        cutting = (pos | bounding) & neg & remaining
        decided |= remaining ^ cutting
        if not cutting:
            count += 1
            if collect is not None:
                collect(rays)
            continue
        bit = cutting & -cutting
        keep = cutting ^ bit
        if not keep and collect is None and not bit & bounding:
            count += 2
            continue
        plus, minus, zero, new = dd_cut(
            rays, bit.bit_length() - 1, decided, keep, ridge)
        decided |= bit
        if plus or zero:
            stack.append((plus + zero + new, keep, decided))
        if not bit & bounding:
            stack.append((minus + zero + new, keep, decided))
    return count


def h_to_v(cone: ConeH) -> ConeV:
    """Generator representation of an H-cone; lineality emitted as ± ray pairs.

    A pointed cone (A of rank d) is the one region of A's rows, all
    bounding, and its extreme rays are that region's rays.  With lineality
    the rays are taken in the row space of A, which complements the
    lineality space, so that they are canonical."""
    d = cone.ambient_dim
    A = list(cone.inequalities)
    every = (1 << len(A)) - 1
    region = []
    if 0 < d <= len(A):
        rays, base = dd_start(A, d, every)
        if base.bit_count() == d:
            dd_regions(rays, base, every, region.extend)
            return ConeV(d, tuple(r for r, *_ in region))
    # the row space of A complements the lineality space, its kernel
    basis, pivs = row_reduce(A)
    lines = _kernel_from_rref(basis, pivs, d)
    k = len(basis)
    gens = []
    for b in lines:
        gens.append(b)
        gens.append(tuple(-x for x in b))
    if k:
        # the pointed part: the one region of the reduced rows, all bounding
        reduced = [tuple(dot(a, b) for b in basis) for a in A]
        dd_regions(*dd_start(reduced, k, every), every, region.extend)
        for t, *_ in region:
            x = [0] * d
            for coef, b in zip(t, basis):
                x = [xi + coef * bi for xi, bi in zip(x, b)]
            gens.append(primitive(x))
    return ConeV(d, tuple(gens))


def v_to_h(cone: ConeV) -> ConeH:
    """Inequality representation: generators of the dual cone, by duality."""
    d = cone.ambient_dim
    return ConeH(d, h_to_v(ConeH(d, cone.generators)).generators)


def canonical_form(cone: ConeV) -> ConeV:
    """Irredundant canonical generators (extreme rays + lineality pairs)."""
    return h_to_v(v_to_h(cone))


def cone_dim(cone: ConeV) -> int:
    return rank(cone.generators)


# ---------------------------------------------------------------------------
# exact LP feasibility (phase-1 simplex, Bland's rule)

def phase1(A, b) -> tuple | None:
    """Whether {y >= 0 : A y = b} is feasible: None if not, and if so the
    final integer tableau T, its basis and the divisor D, whose basic
    solution (y[basis[i]] = T[i][-1] / D where basis[i] < n, 0 elsewhere)
    is a feasible point.  A: list of rows (length-n rationals), b: list of
    rationals.

    Phase-1 simplex with artificial variables and Bland's rule
    (deterministic, guaranteed to terminate).  Fraction-free: each
    equation is scaled to integers, and the tableau is an integer matrix T
    standing for T / D, D the last pivot (Bareiss, Edmonds).  Every entry
    of T is a minor of the initial integer tableau, so the update
    (T[i][j]·pv − T[i][e]·T[r][j]) // D is exact, and D > 0 keeps every
    sign of the true tableau.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if len(b) != m or any(len(row) != n for row in A):
        raise ValueError("A must have rows of one length, b one entry per row")
    nvars = n + m
    # rows [A_i | e_i | b_i] with b_i >= 0; artificial i is basic in row i
    T = []
    for i in range(m):
        row = _integer_row(list(A[i]) + [b[i]])
        if row[-1] < 0:
            row = [-x for x in row]
        art = [0] * m
        art[i] = 1
        T.append(row[:n] + art + row[n:])
    basis = [n + i for i in range(m)]
    # cost row for minimizing the sum of artificials
    cost = [sum(col) for col in zip(*T)] if m else [0] * (nvars + 1)
    for i in range(m):
        cost[n + i] -= 1
    D = 1

    while True:
        enter = next((j for j in range(nvars) if cost[j] > 0), -1)
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            if T[i][enter] > 0:
                if leave < 0:
                    leave = i
                    continue
                # ratio T[i][-1] / T[i][e] against the best so far
                lhs = T[i][-1] * T[leave][enter]
                rhs = T[leave][-1] * T[i][enter]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            raise RuntimeError("phase-1 simplex: unexpected unboundedness")
        prow = T[leave]
        pv = prow[enter]
        for i in range(m):
            if i != leave:
                T[i] = _pivot_row(T[i], prow, enter, pv, D)
        cost = _pivot_row(cost, prow, enter, pv, D)
        basis[leave] = enter
        D = pv

    if cost[-1] != 0:
        return None
    return T, basis, D


def _pivot_row(row, prow, e, pv, D) -> list:
    """One fraction-free pivot update of a non-pivot row."""
    f = row[e]
    if not f:
        if pv == D:
            return row
        return [x * pv // D for x in row]
    return [(x * pv - f * y) // D for x, y in zip(row, prow)]


# ---------------------------------------------------------------------------
# cone predicates

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
    return phase1(A, rhs) is not None

