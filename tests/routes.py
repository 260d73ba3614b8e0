"""Second routes: the reference computations the tests compare the library
with.

Nothing in polycrep calls these.  Each one reaches an answer the library
reaches too, by another way, so a test that checks the two against each
other fails when either is wrong:

* arrangements: split all of C_0 and report a point per chamber
  (chambers_in_cone), and read a chamber's complex off that point
  (chamber_to_complex), where the census splits one cone per S_n-orbit;
* bunches: the Bunch value class and Φ_Δ as one (phi_from_complex), the
  bunch axioms (is_bunch), the inverse of phi_from_complex
  (complex_from_bunch), Φ_θ from a character (bunch_from_theta), and an
  exact LP on the bunch itself for projectivity
  (projectivity_witness_lp), where the library reads the complex's faces;
* complexes: biconnectedness and the [n] <-> [n-1] bijection behind the
  structural count of λ(n), and that count as a plain sum with one term
  per downset (count_max_biconnected_plain), where the library sums over
  orbits;
* coxrelations: the Z^n-grading of a polynomial and its value at a point;
* hyper_cones: Ψ_Δ membership with its argument checks (psi_membership),
  where the oracle checks each complex and datum once and runs the
  kernel per pair;
* ratgeom: a feasible point of {y >= 0 : A y = b} read off the phase-1
  tableau (solve_eq_nonneg), where the library reads only the verdict,
  A x >= rhs over free-sign x by the phase-1 simplex, H-to-V
  conversion that always projects onto the row space (h_to_v_projected),
  where the library runs a pointed cone's rows as they are, and a pointed
  cone's extreme rays as the kernel lines of its rank-(d−1) row subsets
  (extreme_rays_brute), where the library runs double description.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from polycrep import hyper_cones, ratgeom
from polycrep.arrangements import Arrangement, _split_rows
from polycrep.complexes import (Complex, Partition, _check_range, _closure,
                                _complement_image, _count_downsets,
                                _iter_downset_masks, _mask_is_full,
                                _maximal_faces_of_mask, _partition_masks,
                                _splits_every_pair, _tables, cone_rows,
                                family_mask, is_full, is_maximal_biconnected)
from polycrep.coxrelations import XPoint, _evaluate, _point_values
from polycrep.polygon_cones import is_free
from polycrep.ratgeom import (ConeH, ConeV, _kernel_from_rref, dd_regions,
                              dd_start, dot, primitive, ray_sum, row_reduce)
from polycrep.values import Value


# ---------------------------------------------------------------------------
# arrangements

def chambers_in_cone(a: Arrangement, cone: ConeH) -> list:
    """One interior point per region inside the cone: the ray_sum of the
    region's extreme rays, from the split count_regions_in_cone counts,
    with every cut made.  No hyperplane cuts the region, so the point is
    off every hyperplane."""
    out = []

    def collect(rays):
        out.append(ray_sum(rv[0] for rv in rays))

    facets = (1 << len(cone.inequalities)) - 1
    ratgeom.dd_regions(*ratgeom.dd_start(_split_rows(a, cone), a.dim, facets),
                       facets, collect)
    return out


def chamber_to_complex(a: Arrangement, theta):
    """The maximally-biconnected complex of the chamber inside C_0 ∩ F
    with interior point theta: the subsets I with v_I(θ) > 0."""
    n = a.dim
    if len(theta) != n:
        raise ValueError("theta must have one entry per coordinate")
    if any(t <= 0 for t in theta):
        raise ValueError("chamber not inside the open orthant")
    fam = family_mask(theta, n)
    # v_I(θ) = 0 exactly when neither I nor its complement is a face
    if not _splits_every_pair(fam, n):
        raise ValueError("witness lies on an arrangement hyperplane")
    return Complex(n, fam)


# ---------------------------------------------------------------------------
# bunches

class Bunch(Value):
    """A set of free polygon orbit cones, each named by its Partition."""

    __slots__ = ("n", "cones")

    def __init__(self, n: int, cones: frozenset):
        for c in cones:
            if c.n != n:
                raise ValueError("ambient rank mismatch")
        Value.__init__(self, n, cones)


def _free_bunch(n: int, family: int) -> Bunch:
    """The free cones ω_P, P a partition of [n] into >= 3 parts each in the
    family mask."""
    return Bunch(n, frozenset(
        Partition(n, parts)
        for parts in _partition_masks((1 << n) - 1, family, 3)))


def phi_from_complex(d: Complex) -> Bunch:
    """Φ_Δ: all free partitions of [n] whose parts are faces of Δ."""
    phi = _free_bunch(d.n, d.family)
    if not phi.cones:
        raise ValueError("complex admits no free partition")
    return phi


def is_bunch(phi: Bunch) -> bool:
    """Pairwise-meeting interiors plus upward closure under refinement.

    Two free cones have disjoint relative interiors exactly when a part of
    one and a part of the other cover [n], and two parts of one free
    partition never do, so the interiors meet pairwise exactly when no two
    member parts cover [n]."""
    cones = list(phi.cones)
    if not cones:
        return False
    for c in cones:
        if not is_free(c):
            raise ValueError("bunch members must be free cones")
    n = phi.n
    full = (1 << n) - 1
    members = {c.parts for c in cones}
    parts = {p for m in members for p in m}
    if any(a | b == full for a in parts for b in parts):
        return False
    # Upward closure under refinement.  Every refinement of a member is
    # reached by splitting one part in two at a time, and each step is still
    # free, so it is enough that every such split of a member is a member.
    for m in members:
        for i, part in enumerate(m):
            low = part & -part
            rest = part ^ low
            sub = rest
            while sub:
                sub = (sub - 1) & rest
                q = m[:i] + m[i + 1:] + (low | sub, rest ^ sub)
                if tuple(sorted(q, key=lambda s: s & -s)) not in members:
                    return False
    return True


def complex_from_bunch(phi: Bunch) -> Complex:
    """Downward closure of all member parts; inverse of phi_from_complex."""
    if not is_bunch(phi):
        raise ValueError("not a bunch")
    parts = (part for c in phi.cones for part in c.parts)
    d = Complex(phi.n, _closure(phi.n, parts))
    if not (is_full(d) and is_maximal_biconnected(d)):
        raise ValueError("not a maximal bunch")
    if phi_from_complex(d) != phi:
        raise ValueError("not a maximal bunch")
    return d


def is_maximal_bunch(phi: Bunch) -> bool:
    if not is_bunch(phi):
        raise ValueError("not a bunch")
    try:
        complex_from_bunch(phi)
    except ValueError:
        return False
    return True


def bunch_from_theta(theta, n: int) -> Bunch:
    """Φ_θ: all free P with θ strictly interior to ω_P.

    Requires θ componentwise positive, strictly inside C_0, and off every
    wall v_I = 0 (so strict membership is decided by signs alone).  The
    family of the I with v_I(θ) > 0 decides the last two: θ is inside C_0
    when it holds every singleton, and on a wall when it holds neither I
    nor its complement.
    """
    theta = tuple(Fraction(t) for t in theta)
    if len(theta) != n:
        raise ValueError("dimension mismatch")
    if any(t <= 0 for t in theta):
        raise ValueError("theta must lie in the open orthant")
    family = family_mask(theta, n)
    if not _mask_is_full(family, n):
        raise ValueError("theta must lie in the interior of C_0")
    if not _splits_every_pair(family, n):
        raise ValueError("theta lies on a wall of the arrangement")
    return _free_bunch(n, family)


def projectivity_witness_lp(phi: Bunch):
    """Independent LP route on the bunch itself: with the maximal parts of
    its members (subsets of parts are implied), θ_i >= 1 and v_I(θ) >= 1 is
    feasible (by scaling) exactly when the common interior is nonempty."""
    n = phi.n
    parts = (part for c in phi.cones for part in c.parts)
    rows = cone_rows(n, _maximal_faces_of_mask(_closure(n, parts), n))
    return solve_ge(rows, [1] * len(rows))


# ---------------------------------------------------------------------------
# complexes

def is_biconnected(d: Complex) -> bool:
    """No two faces (a face with itself included) union to [n].  Faces f, g
    of a downset with f ∪ g = [n] put [n] minus f in it next to f, so this
    holds exactly when the family meets its complement image nowhere."""
    return not d.family & _complement_image(d.family, d.n)


def max_biconnected_to_biconnected(d: Complex) -> Complex:
    """Image of a maximally-biconnected complex on [n] under the bijection
    with biconnected complexes on [n-1].

    Membership rule: K ∈ image <=> K ∪ {n} ∈ d, including K = ∅ (which is in
    the image exactly when {n} ∈ d, encoded by the sole-empty-face family).
    The subsets containing n are the top half of d's family mask.
    """
    if not is_maximal_biconnected(d):
        raise ValueError("input is not maximally biconnected")
    n = d.n
    return Complex(n - 1, d.family >> (1 << (n - 1)))


def biconnected_to_max_biconnected(d: Complex) -> Complex:
    """Inverse of max_biconnected_to_biconnected: d lives on [n-1].

    K ∪ {n} is a face exactly when K ∈ d, and K is one exactly when
    [n-1] minus K ∉ d."""
    if not is_biconnected(d):
        raise ValueError("input is not biconnected")
    m = d.n
    every = (1 << (1 << m)) - 1
    return Complex(m + 1, d.family << (1 << m)
                   | ~_complement_image(d.family, m) & every)


def count_max_biconnected_plain(n: int) -> int:
    """λ(n) as the sum of #downsets(T(D₀)) over every downset D₀ of 2^[k],
    k = n-2, one term each (7581 at n=7)."""
    _check_range(n)
    k = n - 2
    down, up, _, _ = _tables(k)
    memo = {}
    return sum(_count_downsets(d0 & ~_complement_image(d0, k), down, up, memo)
               for d0 in _iter_downset_masks(k))


# ---------------------------------------------------------------------------
# coxrelations

class InhomogeneousError(ValueError):
    def __init__(self, mono_a, mono_b):
        super().__init__(f"inhomogeneous: {mono_a} vs {mono_b}")
        self.monomials = (mono_a, mono_b)


def var_degree(token, n: int) -> tuple:
    name = token[0]
    deg = [0] * n
    if name == "phi":
        deg[token[1] - 1] += 1
        deg[token[2] - 1] += 1
    elif name == "c":
        deg[token[1] - 1] -= 2
    elif name in ("x", "y"):
        deg[token[1] - 1] += 1
    elif name in ("z", "w"):
        deg[token[1] - 1] -= 1
    else:
        raise ValueError(f"unknown variable {token}")
    return tuple(deg)


def degree_of(p: dict, n: int) -> tuple:
    """Common Z^n-degree of all monomials; InhomogeneousError otherwise."""
    if not p:
        raise ValueError("zero polynomial has no degree")
    degs = {}
    for mono in p:
        d = tuple(sum(col) for col in
                  zip(*(var_degree(t, n) for t in mono))) if mono else (0,) * n
        degs[d] = mono
        if len(degs) > 1:
            a, b = (degs[k] for k in degs)
            raise InhomogeneousError(a, b)
    return next(iter(degs))


def evaluate(p: dict, pt: XPoint):
    """Evaluate a polynomial in φ, c at a point, via φ_ij = x_i y_j − x_j y_i.

    Exact: an int at an integral point with integer coefficients, a
    Fraction otherwise."""
    return _evaluate(p, _point_values(pt))


# ---------------------------------------------------------------------------
# hyper_cones

def psi_membership(d: Complex, c: hyper_cones.HyperCone) -> bool:
    """Membership of ω_{P,K} in Ψ_Δ, checking both arguments first: c
    free, one ground set, Δ maximally biconnected.  The suite checks each
    once and runs hyper_cones._psi per pair."""
    faces = hyper_cones._psi_faces(c)
    if c.n != d.n:
        raise ValueError("ground-set mismatch")
    return hyper_cones._psi(d.family, hyper_cones._psi_corner(d), c, faces)


# ---------------------------------------------------------------------------
# ratgeom

def solve_eq_nonneg(A, b) -> list | None:
    """A feasible point of {y >= 0 : A y = b}, or None: the basic solution
    at which ratgeom.phase1 ends, as Fractions."""
    end = ratgeom.phase1(A, b)
    if end is None:
        return None
    T, basis, D = end
    y = [Fraction(0)] * (len(A[0]) if A else 0)
    for i, bi in enumerate(basis):
        if bi < len(y):
            y[bi] = Fraction(T[i][-1], D)
    return y


def solve_ge(A, rhs) -> tuple | None:
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


def h_to_v_projected(cone: ConeH) -> ConeV:
    """h_to_v through the row space of A for every cone: the lineality
    pairs, then the one region of A's rows projected onto the RREF basis,
    lifted back."""
    d = cone.ambient_dim
    A = list(cone.inequalities)
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
        every = (1 << len(A)) - 1
        region = []
        dd_regions(*dd_start(reduced, k, every), every, region.extend)
        for t, *_ in region:
            x = [0] * d
            for coef, b in zip(t, basis):
                x = [xi + coef * bi for xi, bi in zip(x, b)]
            gens.append(primitive(x))
    return ConeV(d, tuple(gens))


def _det(m) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    m = [list(r) for r in m]
    k = len(m)
    sign, prev = 1, 1
    for i in range(k):
        p = next((r for r in range(i, k) if m[r][i]), None)
        if p is None:
            return 0
        if p != i:
            m[i], m[p] = m[p], m[i]
            sign = -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * prev


def extreme_rays_brute(cone: ConeH) -> tuple:
    """The extreme rays of a pointed H-cone, primitive and sorted, by brute
    force.  An extreme ray is a face of dimension 1, so the rows tight on
    it have rank d − 1: it spans the kernel of some d − 1 independent rows.
    For every (d−1)-subset of rows the kernel is found by cofactors (its
    entries are the signed maximal minors, all 0 when the rank is below
    d − 1), and the sign of the line that satisfies every row is kept."""
    d = cone.ambient_dim
    rows = cone.inequalities
    if ratgeom.rank(rows) != d:
        raise ValueError("cone must be pointed")
    rays = set()
    for sub in itertools.combinations(rows, d - 1):
        x = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in sub])
             for j in range(d)]
        if not any(x):
            continue
        for s in (1, -1):
            if all(dot(a, x) * s >= 0 for a in rows):
                rays.add(primitive(s * v for v in x))
    return tuple(sorted(rays))
